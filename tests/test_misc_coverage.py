"""Residual-coverage tests: flag propagation, helper paths, edge behaviours
not exercised elsewhere."""

import numpy as np
import pytest

from repro.counting import exact_count
from repro.logic import CNF, Var, tseitin_cnf
from repro.logic.formula import dag_size, fold, semantically_equal
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.ast import Iden, ReflClosure, RelRef
from repro.spec.evaluate import evaluate_concrete


class TestCnfFlagPropagation:
    def test_conjoin_preserves_aux_unique_when_both_safe(self):
        x, y = Var(1), Var(2)
        a = tseitin_cnf(x | y, num_input_vars=2)
        b = CNF([[1, -2]], projection=[1, 2])
        combined = a.conjoin(b)
        assert combined.counts_without_projection()
        assert exact_count(combined) == 2  # (x|y) & (x|!y) -> x

    def test_conjoin_drops_flag_when_unsafe(self):
        a = tseitin_cnf(Var(1) | Var(2), num_input_vars=2)
        unsafe = CNF([[3, 4]], projection=[3])  # aux var 4, no guarantee
        assert not unsafe.counts_without_projection()
        assert not a.conjoin(unsafe).counts_without_projection()

    def test_copy_preserves_everything(self):
        cnf = tseitin_cnf(Var(1) & Var(2), num_input_vars=2)
        clone = cnf.copy()
        assert clone.aux_unique == cnf.aux_unique
        assert clone.projection == cnf.projection
        clone.add_clause([1])
        assert len(clone) == len(cnf) + 1  # copy is independent

    def test_repr_mentions_shape(self):
        cnf = CNF([[1, 2]], projection=[1])
        assert "clauses=1" in repr(cnf)


class TestFormulaHelpers:
    def test_fold_memoises_shared_nodes(self):
        x = Var(1)
        shared = x & Var(2)
        formula = shared | ~shared  # same node twice
        calls = []

        def count_node(node, child_results):
            calls.append(node)
            return 1 + sum(child_results)

        fold(formula, count_node)
        # The shared conjunction is folded once, not twice.
        assert sum(1 for node in calls if node == shared) == 1

    def test_dag_size_counts_distinct_nodes(self):
        x, y = Var(1), Var(2)
        shared = x & y
        formula = shared | shared  # Or() dedupes -> collapses to shared
        assert dag_size(formula) == 3  # And node + two vars

    def test_semantically_equal_negative_case(self):
        assert not semantically_equal(Var(1), Var(2))


class TestSpecOddsAndEnds:
    def test_refl_closure_grounds_correctly(self):
        # *r contains iden even for the empty relation.
        formula = translate(
            __import__("repro.spec.ast", fromlist=["In"]).In(Iden(), ReflClosure(RelRef("r"))),
            3,
        )
        assert exact_count(formula.cnf) == 2**9  # tautology: all relations

    def test_closure_semantics_on_concrete_matrix(self):
        from repro.spec.ast import Closure, In

        reaches = In(Iden(), Closure(RelRef("r")))
        cycle = [[False, True], [True, False]]
        chain = [[False, True], [False, False]]
        assert evaluate_concrete(reaches, cycle)
        assert not evaluate_concrete(reaches, chain)

    def test_translate_raw_formula_names_node_type(self):
        from repro.spec.ast import Some

        problem = translate(Some(RelRef("r")), 2)
        assert problem.name == "Some"
        negated = translate(Some(RelRef("r")), 2, negate=True)
        assert negated.name.startswith("not(")
        assert exact_count(problem.cnf) + exact_count(negated.cnf) == 16

    def test_symmetry_formula_custom_positions(self):
        sb = SymmetryBreaking("adjacent")
        with pytest.raises(ValueError):
            sb.formula(3, var_of=[Var(1)])  # wrong length

    def test_mask_rejects_wrong_width(self):
        sb = SymmetryBreaking("adjacent")
        with pytest.raises(ValueError):
            sb.mask(np.zeros((4, 5), dtype=bool), 3)


class TestSolverStats:
    def test_stats_populated_after_search(self):
        from repro.sat import Solver

        solver = Solver()
        # Force at least one conflict: parity chain with a contradiction.
        clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2, 3], [-3]]
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        assert solver.stats["propagations"] >= 0
        assert solver.stats["decisions"] >= 0

    def test_model_literals_helper(self):
        from repro.sat import SatResult, Solver

        solver = Solver(2)
        solver.add_clause([1])
        solver.add_clause([-2])
        assert solver.solve() is SatResult.SAT
        assert solver.model_literals([1, 2]) == [1, -2]


class TestDatasetEdge:
    def test_properties_available_for_all_16_via_pipeline(self):
        """Every registered property can produce a dataset at scope 3."""
        from repro.data import generate_dataset
        from repro.spec import PROPERTIES

        for prop in PROPERTIES:
            dataset = generate_dataset(prop, 3, max_positives=10, rng=0)
            assert len(dataset) > 0
            assert dataset.property_name == prop.name
