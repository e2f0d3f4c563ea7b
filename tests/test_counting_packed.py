"""Differential suite for the packed counting engine.

Pins the bitmask-packed :class:`ExactCounter` rewrite to three independent
oracles:

* vectorised brute force over the full ``2^{n²}`` space (the pre-Tseitin
  formula swept with numpy) on every registered property at scopes 2-4,
  with and without symmetry breaking;
* the original tuple-based algorithm (:class:`LegacyExactCounter`);
* :func:`brute_force_count` on randomized aux-free CNFs.

Plus regression tests that :class:`CountingEngine` cache hits return
bit-identical counts to cold calls, and unit tests for the packed clause
representation itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.counting import (
    CountingEngine,
    ExactCounter,
    LegacyExactCounter,
    brute_force_count,
    shared_engine,
)
from repro.counting.vector import FormulaBruteCounter
from repro.logic import CNF, Var, tseitin_cnf
from repro.logic.cnf import pack_clauses
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES

from tests.test_sat_solver import random_cnf

SCOPES = (2, 3, 4)
SYMMETRY = (None, SymmetryBreaking())


def _case_id(case) -> str:
    prop, scope, symmetry = case
    return f"{prop.name}-{scope}-{'symbr' if symmetry else 'plain'}"


ALL_CASES = [
    (prop, scope, symmetry)
    for prop in PROPERTIES
    for scope in SCOPES
    for symmetry in SYMMETRY
]


class TestPackedAgainstBruteForce:
    """Packed counter vs the exhaustive sweep, every property × scope × symmetry."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
    def test_matches_full_space_sweep(self, case):
        prop, scope, symmetry = case
        problem = translate(prop, scope, symmetry=symmetry)
        packed = ExactCounter().count(problem.cnf)
        swept = FormulaBruteCounter().count_formula(problem.formula, scope * scope)
        assert packed == swept

    @pytest.mark.parametrize("scope", SCOPES)
    def test_negated_problems_partition_the_space(self, scope):
        # φ and ¬φ counts must sum to 2^{n²} — exercises the negated
        # translation (used for the fp/tn counting problems) end to end.
        prop = get_property("Antisymmetric")
        counter = ExactCounter()
        positive = counter.count(translate(prop, scope).cnf)
        negative = counter.count(translate(prop, scope, negate=True).cnf)
        assert positive + negative == 1 << (scope * scope)


class TestPackedAgainstLegacy:
    """Packed counter vs the seed's tuple-based algorithm, bit for bit."""

    @pytest.mark.parametrize(
        "case",
        [c for c in ALL_CASES if c[1] <= 3],
        ids=_case_id,
    )
    def test_matches_legacy_at_small_scopes(self, case):
        prop, scope, symmetry = case
        cnf = translate(prop, scope, symmetry=symmetry).cnf
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    def test_matches_legacy_on_the_ablation_instance(self):
        cnf = translate(
            get_property("PartialOrder"), 4, symmetry=SymmetryBreaking()
        ).cnf
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    @given(random_cnf(max_vars=8, max_clauses=16))
    @settings(max_examples=60, deadline=None)
    def test_matches_legacy_on_random_cnfs(self, instance):
        num_vars, clauses = instance
        cnf = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    @given(random_cnf(max_vars=10, max_clauses=24))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_random_cnfs(self, instance):
        num_vars, clauses = instance
        cnf = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        assert ExactCounter().count(cnf) == brute_force_count(cnf)

    @given(random_cnf(max_vars=6, max_clauses=12))
    @settings(max_examples=40, deadline=None)
    def test_random_projection_subsets(self, instance):
        # Project onto the odd variables only: the packed counter's
        # projected search vs brute-force projection by model enumeration.
        num_vars, clauses = instance
        projection = [v for v in range(1, num_vars + 1) if v % 2 == 1]
        cnf = CNF(clauses, num_vars=num_vars, projection=projection)
        full = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        from repro.counting import brute_force_models

        models = brute_force_models(full)
        columns = [v - 1 for v in projection]
        distinct = (
            len(np.unique(models[:, columns], axis=0)) if len(models) else 0
        )
        assert ExactCounter().count(cnf) == distinct


class TestCountingEngine:
    def test_cache_hit_is_bit_identical(self):
        prop = get_property("PartialOrder")
        cnf = translate(prop, 3, symmetry=SymmetryBreaking()).cnf
        engine = CountingEngine()
        cold = engine.solve(cnf).value
        assert engine.stats.count_hits == 0
        # A structurally equal but distinct CNF object must hit the memo.
        clone = translate(prop, 3, symmetry=SymmetryBreaking()).cnf
        warm = engine.solve(clone).value
        assert engine.stats.count_hits == 1
        assert warm == cold == ExactCounter().count(cnf)

    def test_count_many_deduplicates(self):
        cnf = translate(get_property("Reflexive"), 3).cnf
        engine = CountingEngine()
        first, second = (r.value for r in engine.solve_many([cnf, cnf.copy()]))
        assert first == second
        assert engine.stats.count_calls == 2
        assert engine.stats.count_hits == 1

    def test_signature_distinguishes_projections(self):
        # Same clauses, different projection → different counts, no false hit.
        engine = CountingEngine()
        narrow = CNF([[1]], num_vars=1, projection=[1])
        wide = CNF([[1]], num_vars=3, projection=[1, 2, 3])
        assert engine.solve(narrow).value == 1
        assert engine.solve(wide).value == 4
        assert engine.stats.count_hits == 0

    def test_translate_memo(self):
        engine = CountingEngine()
        prop = get_property("Transitive")
        a = engine.translate(prop, 3, symmetry=SymmetryBreaking())
        b = engine.translate(prop, 3, symmetry=SymmetryBreaking())
        c = engine.translate(prop, 3)
        assert a is b
        assert c is not a
        assert engine.stats.translate_hits == 1

    def test_ground_truth_memo_and_counts(self):
        engine = CountingEngine()
        gt1 = engine.ground_truth(get_property("Reflexive"), 3)
        gt2 = engine.ground_truth(get_property("Reflexive"), 3)
        assert gt1 is gt2
        assert engine.solve(gt1.positive().cnf).value == 1 << 6  # free off-diagonal bits

    def test_backend_delegation(self):
        engine = shared_engine(None)
        assert engine.backend_name == "exact"
        # The engine is not a backend: backend attributes live on
        # ``engine.counter`` only.
        with pytest.raises(AttributeError):
            engine.count
        with pytest.raises(AttributeError):
            engine.max_nodes
        assert engine.counter.max_nodes > 0
        assert shared_engine(engine) is engine
        # Wrapping an engine in a fresh engine unwraps to the same backend.
        rewrapped = CountingEngine(engine)
        assert rewrapped.counter is engine.counter

    def test_region_memo(self):
        from repro.ml.decision_tree import TreePath

        paths = (
            TreePath(conditions=((0, True),), label=1),
            TreePath(conditions=((0, False),), label=0),
        )
        engine = CountingEngine()
        first = engine.region(paths, 1, 4)
        second = engine.region(paths, 1, 4)
        assert first is second
        assert engine.stats.region_hits == 1
        assert engine.solve(first).value == 8  # x1 true, three free bits


class TestPackedRepresentation:
    def test_pack_clauses_masks(self):
        packed = pack_clauses([(1, -3), (3, 7)])
        assert packed.variables == (1, 3, 7)
        assert packed.num_vars == 3
        assert packed.clauses == [(0b001, 0b010), (0b110, 0)]
        assert packed.var_mask() == 0b111

    def test_literal_of_roundtrip(self):
        packed = pack_clauses([(2, -5)])
        assert packed.literal_of(0b01, True) == 2
        assert packed.literal_of(0b10, False) == -5

    def test_signature_is_order_insensitive(self):
        a = pack_clauses([(1, 2), (-1, 3)]).signature()
        b = pack_clauses([(-1, 3), (1, 2)]).signature()
        assert a == b

    def test_cnf_signature_ignores_clause_order(self):
        first = CNF([[1, 2], [2, 3]], projection=[1, 2, 3])
        second = CNF([[2, 3], [1, 2]], projection=[1, 2, 3])
        assert first.signature() == second.signature()

    def test_projected_count_survives_aux_flag_removal(self):
        # The projection-aware search no longer needs the unique-extension
        # flag: flagged and unflagged CNFs agree bit for bit.
        x1, x2, x3, x4 = (Var(i) for i in range(1, 5))
        cnf = tseitin_cnf((x1 & x2) | (x3 & x4), num_input_vars=4)
        flagged = ExactCounter().count(cnf)
        cnf.aux_unique = False
        assert ExactCounter().count(cnf) == flagged == 7
