"""End-to-end integration tests for the MCML pipeline and cross-backend
consistency — the "does the whole machine agree with itself" layer."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import MCMLPipeline
from repro.core import pipeline as pipeline_module
from repro.core.accmc import AccMC, GroundTruth
from repro.counting import CountingEngine, ExactCounter, LegacyExactCounter
from repro.counting.vector import count_formula, evaluate_formula_block
from repro.data import enumerate_positive_bits, generate_dataset
from repro.data import generation as generation_module
from repro.experiments.config import ExperimentConfig
from repro.logic.formula import And, Iff, Implies, Not, Or, Var, iter_assignments
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.spec import PROPERTIES, SymmetryBreaking, get_property, translate

from tests.test_core_accmc_diffmc import InexactExactCounter, _sweep_counts
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

    def test_block_evaluation_frees_its_memo_on_return(self):
        """The per-node arrays of one block go when the call returns, not
        at the cyclic collector's next pass: numpy allocations rarely
        trigger one, so a sweep's blocks would pile up."""
        formula = translate(get_property("PartialOrder"), 4).formula
        rows = 1 << 14
        block = ((np.arange(rows)[:, None] >> np.arange(16)) & 1).astype(bool)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = evaluate_formula_block(formula, block)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert result.nbytes == rows
        # The result array and a few hundred bytes of bookkeeping; the
        # memo of PartialOrder's φ holds over a hundred such arrays.
        assert kept < result.nbytes + 8 * 1024, kept

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


@pytest.fixture
def enumerations(monkeypatch):
    """Every positive enumeration as ``(property, scope, symmetry kind)``.

    Both bindings are wrapped: the pipeline's memo and
    :func:`generate_dataset` when it is not handed a set.
    """
    calls = []

    def recording(prop, scope, symmetry=None):
        calls.append((prop.name, scope, None if symmetry is None else symmetry.kind))
        return enumerate_positive_bits(prop, scope, symmetry)

    monkeypatch.setattr(pipeline_module, "enumerate_positive_bits", recording)
    monkeypatch.setattr(generation_module, "enumerate_positive_bits", recording)
    return calls


class TestPositiveSetMemo:
    """A pipeline enumerates each (property, scope) once, and its datasets
    are byte-identical to enumerating on every call."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_memo_matches_enumeration_and_direct_generation(self, prop):
        seed = 3
        pipeline = MCMLPipeline(seed=seed)
        for scope in (2, 3, 4):
            for symmetry in (None, SymmetryBreaking("adjacent")):
                memoized = pipeline.positives(prop, scope, symmetry)
                expected = enumerate_positive_bits(prop, scope, symmetry)
                assert memoized.dtype == expected.dtype
                assert np.array_equal(memoized, expected)
                for max_positives in (None, 5):
                    for ratio in (1.0, 2.5):
                        got = pipeline.make_dataset(
                            prop, scope, symmetry=symmetry,
                            negative_ratio=ratio, max_positives=max_positives,
                        )
                        want = generate_dataset(
                            prop, scope, symmetry=symmetry,
                            negative_ratio=ratio, max_positives=max_positives,
                            rng=np.random.default_rng(seed),
                        )
                        assert got.X.dtype == want.X.dtype
                        assert np.array_equal(got.X, want.X)
                        assert np.array_equal(got.y, want.y)
                        assert got.symmetry == want.symmetry

    def test_one_enumeration_per_property_and_scope_per_session(self, enumerations):
        config = ExperimentConfig(
            properties=("Function", "PartialOrder", "Transitive"),
            scope=3,
            max_positives=40,
        )
        with config.session() as session:
            for number in (3, 5, 6, 7, 8, 9):
                session.table(number, config=config)
        # Table 9 adds Antisymmetric; symmetry-broken sets come by mask.
        assert sorted(enumerations) == [
            ("Antisymmetric", 3, None),
            ("Function", 3, None),
            ("PartialOrder", 3, None),
            ("Transitive", 3, None),
        ]

    def test_no_cache_across_sessions(self, enumerations):
        config = ExperimentConfig(seed=0)
        for _ in range(2):
            with config.session() as session:
                session.pipeline.make_dataset("PartialOrder", 3)
                session.pipeline.make_dataset(
                    "PartialOrder", 3, symmetry=SymmetryBreaking()
                )
        assert enumerations == [("PartialOrder", 3, None)] * 2

    @pytest.mark.parametrize("symmetry", [None, SymmetryBreaking()])
    def test_memoized_sets_are_read_only(self, symmetry):
        pipeline = MCMLPipeline(seed=0)
        bits = pipeline.positives("PartialOrder", 3, symmetry)
        with pytest.raises(ValueError, match="read-only"):
            bits[0, 0] ^= 1
        dataset = pipeline.make_dataset("PartialOrder", 3, symmetry=symmetry)
        dataset.X[0, 0] ^= 1  # datasets own their rows
        assert np.array_equal(
            pipeline.positives("PartialOrder", 3, symmetry),
            enumerate_positive_bits(get_property("PartialOrder"), 3, symmetry),
        )


class TestBackendConsistency:
    """The exact and legacy counters (derived from four counts) and an
    inexact declaration (the four products) — all equal to a sweep over
    every input."""

    @pytest.mark.parametrize("prop_name", ["Function", "PartialOrder", "Equivalence"])
    @pytest.mark.parametrize("symmetry", [None, SymmetryBreaking("adjacent")])
    def test_every_path_agrees(self, prop_name, symmetry):
        prop = get_property(prop_name)
        dataset = generate_dataset(prop, 3, symmetry=symmetry, rng=0)
        train, _ = dataset.split(0.5, rng=0)
        tree = DecisionTreeClassifier().fit(train.X.astype(float), train.y)
        gt = GroundTruth(prop, 3, symmetry=symmetry)
        expected = _sweep_counts(tree, prop, 3, symmetry)
        for counter in (
            ExactCounter(),
            LegacyExactCounter(),
            InexactExactCounter(),
        ):
            counts = AccMC(CountingEngine(counter)).evaluate(tree, gt).counts
            assert counts == expected, f"{counter.name} disagrees with the sweep"

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
