"""End-to-end integration tests for the MCML pipeline and cross-backend
consistency — the "does the whole machine agree with itself" layer."""

import numpy as np
import pytest

from repro.core import MCMLPipeline
from repro.core.accmc import AccMC, GroundTruth
from repro.counting import CountingEngine, ExactCounter, FormulaBruteCounter
from repro.counting.vector import count_formula, evaluate_formula_block
from repro.data import generate_dataset
from repro.logic.formula import And, Iff, Implies, Not, Or, Var, iter_assignments
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.spec import SymmetryBreaking, get_property, translate

from tests.test_logic_formula import formula_strategy, _MAX_VARS
from hypothesis import given, settings


class TestVectorizedFormulaCounting:
    @given(formula_strategy())
    @settings(max_examples=80, deadline=None)
    def test_count_formula_matches_truth_table(self, f):
        expected = sum(
            1
            for a in iter_assignments(range(1, _MAX_VARS + 1))
            if f.evaluate(a)
        )
        assert count_formula(f, _MAX_VARS) == expected

    def test_block_evaluation_shapes(self):
        f = And(Var(1), Or(Var(2), Not(Var(3))))
        block = np.array(
            [[True, False, True], [True, True, False], [False, True, True]]
        )
        result = evaluate_formula_block(f, block)
        assert result.tolist() == [False, True, False]

    def test_iff_implies_nodes(self):
        f = Iff(Var(1), Implies(Var(2), Var(1)))
        assert count_formula(f, 2) == sum(
            1 for a in iter_assignments([1, 2]) if f.evaluate(a)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            count_formula(Var(9), 3)
        with pytest.raises(ValueError):
            count_formula(Var(1), 40)


class TestPipeline:
    def test_run_returns_complete_result(self):
        pipeline = MCMLPipeline(seed=0)
        result = pipeline.run("Reflexive", 3, train_fraction=0.5)
        assert result.property_name == "Reflexive"
        assert result.model_name == "DT"
        assert result.train_size + result.test_size > 0
        assert result.whole_space is not None
        assert 0 <= result.test_metrics["accuracy"] <= 1

    def test_non_tree_models_skip_whole_space(self):
        pipeline = MCMLPipeline(seed=0)
        result = pipeline.run("Reflexive", 3, model_name="SVM", train_fraction=0.5)
        assert result.whole_space is None

    def test_whole_space_requires_tree(self):
        pipeline = MCMLPipeline(seed=0)
        with pytest.raises(ValueError):
            pipeline.run(
                "Reflexive", 3, model_name="SVM", whole_space=True, train_fraction=0.5
            )

    def test_unknown_model_rejected(self):
        pipeline = MCMLPipeline(seed=0)
        dataset = pipeline.make_dataset("Reflexive", 3)
        with pytest.raises(KeyError):
            pipeline.train("XGBOOST", dataset)

    def test_dataset_reuse_is_deterministic(self):
        pipeline = MCMLPipeline(seed=7)
        dataset = pipeline.make_dataset("Function", 3)
        a = pipeline.run("Function", 3, dataset=dataset, train_fraction=0.5)
        b = pipeline.run("Function", 3, dataset=dataset, train_fraction=0.5)
        assert a.test_counts == b.test_counts
        assert a.whole_space.counts == b.whole_space.counts

    def test_symmetry_knobs_are_independent(self):
        pipeline = MCMLPipeline(seed=0)
        sb = SymmetryBreaking()
        mismatch = pipeline.run(
            "Equivalence", 3, data_symmetry=sb, eval_symmetry=None, train_fraction=0.5
        )
        matched = pipeline.run(
            "Equivalence", 3, data_symmetry=sb, eval_symmetry=sb, train_fraction=0.5
        )
        # Unconstrained evaluation space is the full 2^9; constrained is smaller.
        assert mismatch.whole_space.counts.total == 2**9
        assert matched.whole_space.counts.total < 2**9


class TestBackendConsistency:
    """Exact counter vs vectorised sweep, product vs derived — all equal."""

    @pytest.mark.parametrize("prop_name", ["Function", "PartialOrder", "Equivalence"])
    @pytest.mark.parametrize("symmetry", [None, SymmetryBreaking("adjacent")])
    def test_all_four_paths_agree(self, prop_name, symmetry):
        prop = get_property(prop_name)
        dataset = generate_dataset(prop, 3, symmetry=symmetry, rng=0)
        train, _ = dataset.split(0.5, rng=0)
        tree = DecisionTreeClassifier().fit(train.X.astype(float), train.y)
        gt = GroundTruth(prop, 3, symmetry=symmetry)
        results = {
            (mode, counter.name): AccMC(mode, CountingEngine(counter)).evaluate(tree, gt).counts
            for mode in ("product", "derived")
            for counter in (ExactCounter(), FormulaBruteCounter())
        }
        baseline = results[("product", "exact")]
        for key, counts in results.items():
            assert counts == baseline, f"{key} disagrees with product/exact"

    def test_tseitin_negation_consistency(self):
        """mc(φ) + mc(¬φ) = 2^m — the negate=True compilation is really the
        complement (no symmetry constraint involved)."""
        from repro.counting import exact_count

        for name in ("Transitive", "Connex"):
            prop = get_property(name)
            pos = translate(prop, 3)
            neg = translate(prop, 3, negate=True)
            assert exact_count(pos.cnf) + exact_count(neg.cnf) == 2**9

    def test_symmetry_constrained_negation_partitions_reduced_space(self):
        from repro.counting import exact_count
        from repro.logic.tseitin import tseitin_cnf

        sb = SymmetryBreaking()
        prop = get_property("Transitive")
        pos = translate(prop, 3, symmetry=sb)
        neg = translate(prop, 3, symmetry=sb, negate=True)
        space = tseitin_cnf(sb.formula(3), num_input_vars=9)
        assert exact_count(pos.cnf) + exact_count(neg.cnf) == exact_count(space)
