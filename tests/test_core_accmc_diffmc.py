"""AccMC and DiffMC tests: whole-space metrics against brute-force truth."""

import functools
import itertools

import numpy as np
import pytest

from repro.core import AccMC, DiffMC, MCMLPipeline
from repro.core.accmc import GroundTruth
from repro.counting import (
    ApproxMCCounter,
    CountingEngine,
    ExactCounter,
    LegacyExactCounter,
)
from repro.counting.api import Capabilities, make_counter
from repro.data import generate_dataset
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import ConfusionCounts
from repro.spec import SymmetryBreaking, get_property
from repro.spec.evaluate import evaluate_bits
from repro.spec.matrices import bits_to_matrices, property_mask
from repro.spec.properties import PROPERTIES


class InexactExactCounter:
    """An ``ExactCounter`` declaring ``exact=False``: AccMC counts the
    paper's four products on it, and the counts stay exact."""

    name = "inexact-exact"
    capabilities = Capabilities(exact=False)

    def __init__(self) -> None:
        self._counter = ExactCounter()

    def count(self, cnf) -> int:
        return self._counter.count(cnf)


def _tree_for(prop_name: str, scope: int, symmetry=None, seed=0, train_fraction=0.5):
    prop = get_property(prop_name)
    dataset = generate_dataset(prop, scope, symmetry=symmetry, rng=seed)
    train, _ = dataset.split(train_fraction, rng=seed)
    tree = DecisionTreeClassifier().fit(train.X.astype(float), train.y)
    return tree, prop


def _brute_confusion(tree, prop, scope):
    """Ground truth by enumerating all 2^(scope²) inputs."""
    m = scope * scope
    tp = fp = tn = fn = 0
    for bits in itertools.product([0, 1], repeat=m):
        actual = evaluate_bits(prop.formula, bits, scope)
        predicted = bool(tree.predict(np.array([bits], dtype=float))[0])
        if actual and predicted:
            tp += 1
        elif actual and not predicted:
            fn += 1
        elif not actual and predicted:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


class TestAccMC:
    @pytest.mark.parametrize("prop_name", ["Reflexive", "Function", "Transitive"])
    def test_counts_match_brute_force_scope2(self, prop_name):
        tree, prop = _tree_for(prop_name, 2)
        result = AccMC().evaluate(tree, GroundTruth(prop, 2))
        tp, fp, tn, fn = _brute_confusion(tree, prop, 2)
        assert (result.counts.tp, result.counts.fp) == (tp, fp)
        assert (result.counts.tn, result.counts.fn) == (tn, fn)

    def test_counts_partition_space(self):
        tree, prop = _tree_for("PartialOrder", 3)
        result = AccMC().evaluate(tree, GroundTruth(prop, 3))
        assert result.counts.total == 2**9

    @pytest.mark.parametrize(
        "backend, regions",
        ((ExactCounter, 1), (InexactExactCounter, 2)),
        ids=("derived", "product"),
    )
    def test_construction_follows_exactness(self, backend, regions):
        """No knob picks the construction: an exact backend derives from
        φ∧τ, φ, space∧τ and the space, compiling τ only; an inexact one
        counts the four products, compiling ψ too.  Both equal the sweep."""
        tree, prop = _tree_for("Equivalence", 3)
        engine = CountingEngine(backend())
        result = AccMC(engine=engine).evaluate(tree, GroundTruth(prop, 3))
        assert result.counts == _sweep_counts(tree, prop, 3)
        assert engine.stats.region_calls == regions

    def test_with_symmetry_constrained_ground_truth(self):
        sb = SymmetryBreaking("adjacent")
        tree, prop = _tree_for("Equivalence", 3, symmetry=sb)
        result = AccMC().evaluate(tree, GroundTruth(prop, 3, symmetry=sb))
        # tp + fn = number of positives under symmetry breaking = F(4) = 3.
        assert result.counts.tp + result.counts.fn == 3
        # Both φ and ¬φ are evaluated inside the symmetry-reduced space
        # (Table 3 footnote), so the counts sum to that space's size —
        # computed independently with the vectorised lex-leader filter.
        from repro.counting.brute import iter_assignment_blocks

        space_size = sum(int(sb.mask(b, 3).sum()) for b in iter_assignment_blocks(9))
        assert result.counts.total == space_size

    def test_symmetry_space_reflexive_diagonal_tree_is_perfect(self):
        """Paper Table 3, Reflexive row: a diagonal-checking tree scores a
        perfect 1.0 precision *inside the symmetry-reduced space*."""
        import numpy as np

        prop = get_property("Reflexive")
        sb = SymmetryBreaking("adjacent")
        # Train on the full scope-2 space so CART recovers the exact check.
        dataset = generate_dataset(prop, 2, negative_ratio=3.0, rng=1)
        tree = DecisionTreeClassifier().fit(dataset.X.astype(float), dataset.y)
        result = AccMC().evaluate(tree, GroundTruth(prop, 2, symmetry=sb))
        assert result.precision == 1.0
        assert result.recall == 1.0

    def test_perfect_tree_for_reflexive(self):
        """A tree that checks the diagonal exactly scores 1.0 everywhere —
        the paper's explanation for Reflexive/Irreflexive rows.  Trained on
        the full scope-2 space (negative_ratio=3 pulls in all 12 negatives)
        so CART provably recovers the diagonal check."""
        prop = get_property("Reflexive")
        dataset = generate_dataset(prop, 2, negative_ratio=3.0, rng=1)
        assert len(dataset) == 16
        tree = DecisionTreeClassifier().fit(dataset.X.astype(float), dataset.y)
        result = AccMC().evaluate(tree, GroundTruth(prop, 2))
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.accuracy == 1.0

    def test_feature_count_mismatch_rejected(self):
        tree, prop = _tree_for("Reflexive", 2)
        with pytest.raises(ValueError):
            AccMC().evaluate(tree, GroundTruth(prop, 3))

    def test_result_row_fields(self):
        tree, prop = _tree_for("Irreflexive", 2)
        row = AccMC().evaluate(tree, GroundTruth(prop, 2)).as_row()
        assert set(row) == {"accuracy", "precision", "recall", "f1", "time"}


@functools.lru_cache(maxsize=None)
def _matrix_tree(prop_name: str, scope: int, fraction: float = 0.5, rng: int = 0):
    """A DT of one cell of the 16 properties × scopes 2–4 matrix, trained the
    way the tables train: seed 0, at most 500 positives, adjacent symmetry
    breaking, a ``fraction`` split."""
    pipeline = MCMLPipeline(seed=0)
    dataset = pipeline.make_dataset(
        get_property(prop_name), scope, symmetry=SymmetryBreaking(), max_positives=500
    )
    train, _ = dataset.split(fraction, rng=rng)
    return pipeline.train("DT", train)


def _all_inputs(num_features: int) -> np.ndarray:
    """Every input as a row: bit j of row i is feature j."""
    return (np.arange(1 << num_features)[:, None] >> np.arange(num_features)) & 1


def _predictions(tree, num_features: int):
    """The tree's verdict (``True`` for label 1) on all 2^num_features inputs."""
    return tree.predict(_all_inputs(num_features).astype(float)) == 1


def _sweep_counts(tree, prop, scope: int, symmetry=None) -> ConfusionCounts:
    """The tree's confusion counts over every input of the evaluation space,
    from its predictions, the property's vectorised evaluator and the
    lex-leader mask: an oracle that shares no code with AccMC."""
    m = scope * scope
    rows = _all_inputs(m)
    predicted = _predictions(tree, m)
    actual = property_mask(prop.name)(bits_to_matrices(rows, scope))
    space = (
        np.ones(len(rows), dtype=bool) if symmetry is None else symmetry.mask(rows, scope)
    )
    return ConfusionCounts(
        tp=int(np.sum(space & actual & predicted)),
        fp=int(np.sum(space & ~actual & predicted)),
        tn=int(np.sum(space & ~actual & ~predicted)),
        fn=int(np.sum(space & actual & ~predicted)),
    )


@functools.lru_cache(maxsize=None)
def _matrix_sweep_counts(prop_name: str, scope: int) -> ConfusionCounts:
    prop = get_property(prop_name)
    return _sweep_counts(_matrix_tree(prop_name, scope), prop, scope, SymmetryBreaking())


#: Backend per AccMC construction: exact counts derived from four counts,
#: and the paper's four products.
ROUTES = {
    "cnf": ExactCounter,
    "product": InexactExactCounter,
}


def _assert_in_envelope(estimates, truths) -> None:
    """ApproxMC's (ε, δ) bound at its default ε = 0.8, count by count:
    truth / 1.8 <= estimate <= truth · 1.8, and an empty region counts 0."""
    for estimate, truth in zip(estimates, truths, strict=True):
        if truth == 0:
            assert estimate == 0
        else:
            assert truth / 1.8 <= estimate <= truth * 1.8, (estimate, truth)


class TestAccMCMatrix:
    """Every AccMC route against the sweep oracle: 16 properties × scopes
    2–4, adjacent symmetry breaking."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_route_matches_the_sweep(self, route, prop, scope):
        accmc = AccMC(engine=CountingEngine(ROUTES[route]()))
        actual = accmc.evaluate(
            _matrix_tree(prop.name, scope),
            accmc.ground_truth(prop, scope, symmetry=SymmetryBreaking()),
        )
        assert actual.counts == _matrix_sweep_counts(prop.name, scope)

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3))
    def test_approxmc_products_lie_in_the_envelope(self, prop, scope):
        """The ``approxmc`` backend, built as ``mcml --backend approxmc``
        builds it: each of the four products estimates the sweep's count.
        Scopes 2–3 only: the hashed cells of scope 4 take minutes."""
        accmc = AccMC(engine=CountingEngine(make_counter("approxmc")))
        actual = accmc.evaluate(
            _matrix_tree(prop.name, scope),
            accmc.ground_truth(prop, scope, symmetry=SymmetryBreaking()),
        )
        truth = _matrix_sweep_counts(prop.name, scope)
        _assert_in_envelope(
            (actual.counts.tp, actual.counts.fp, actual.counts.tn, actual.counts.fn),
            (truth.tp, truth.fp, truth.tn, truth.fn),
        )


class TestDiffMC:
    def test_identical_trees_have_zero_diff(self):
        tree, _ = _tree_for("PreOrder", 2)
        result = DiffMC().evaluate(tree, tree)
        assert result.diff == 0.0
        assert result.sim == 1.0
        assert result.tf == 0 and result.ft == 0

    def test_counts_match_brute_force(self):
        tree1, _ = _tree_for("Transitive", 2, seed=0)
        tree2, _ = _tree_for("Transitive", 2, seed=7, train_fraction=0.3)
        result = DiffMC().evaluate(tree1, tree2)
        tt = tf = ft = ff = 0
        for bits in itertools.product([0, 1], repeat=4):
            x = np.array([bits], dtype=float)
            a = bool(tree1.predict(x)[0])
            b = bool(tree2.predict(x)[0])
            tt += a and b
            tf += a and not b
            ft += (not a) and b
            ff += (not a) and (not b)
        assert (result.tt, result.tf, result.ft, result.ff) == (tt, tf, ft, ff)

    def test_partition_and_sim_identity(self):
        tree1, _ = _tree_for("Connex", 3, seed=1)
        tree2, _ = _tree_for("Connex", 3, seed=9)
        result = DiffMC().evaluate(tree1, tree2)
        assert result.tt + result.tf + result.ft + result.ff == 2**9
        assert result.sim == pytest.approx(1.0 - result.diff)

    def test_symmetric_in_arguments(self):
        tree1, _ = _tree_for("Functional", 2, seed=2)
        tree2, _ = _tree_for("Functional", 2, seed=3)
        ab = DiffMC().evaluate(tree1, tree2)
        ba = DiffMC().evaluate(tree2, tree1)
        assert ab.diff == ba.diff
        assert (ab.tf, ab.ft) == (ba.ft, ba.tf)

    def test_feature_mismatch_rejected(self):
        tree2, _ = _tree_for("Reflexive", 2)
        tree3, _ = _tree_for("Reflexive", 3)
        with pytest.raises(ValueError):
            DiffMC().evaluate(tree2, tree3)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            DiffMC().evaluate(DecisionTreeClassifier(), DecisionTreeClassifier())

    def test_row_reports_percent(self):
        tree1, _ = _tree_for("Irreflexive", 2, seed=4)
        tree2, _ = _tree_for("Irreflexive", 2, seed=5)
        row = DiffMC().evaluate(tree1, tree2).as_row()
        assert 0.0 <= row["diff_percent"] <= 100.0


def _agreement_sweep(first, second, num_features: int) -> tuple[int, int, int, int]:
    """TT, TF, FT and FF of two trees from their predictions on every input."""
    a = _predictions(first, num_features)
    b = _predictions(second, num_features)
    return (
        int(np.sum(a & b)),
        int(np.sum(a & ~b)),
        int(np.sum(~a & b)),
        int(np.sum(~a & ~b)),
    )


#: The exact counters DiffMC's regions are pinned on: the ``exact`` backend
#: and the tuple-clause counter kept as its oracle.
EXACT_COUNTERS = {"exact": ExactCounter, "legacy": LegacyExactCounter}


class TestDiffMCMatrix:
    """DiffMC's four region conjunctions against both trees' predictions on
    every input: 16 properties × scopes 2–4, the cell's DT against a DT
    trained on another split of the same dataset."""

    @pytest.mark.parametrize("counter", EXACT_COUNTERS)
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_counts_match_prediction_sweep(self, counter, prop, scope):
        first = _matrix_tree(prop.name, scope)
        second = _matrix_tree(prop.name, scope, fraction=0.3, rng=1)
        engine = CountingEngine(EXACT_COUNTERS[counter]())
        result = DiffMC(engine=engine).evaluate(first, second)
        assert (result.tt, result.tf, result.ft, result.ff) == _agreement_sweep(
            first, second, scope * scope
        )

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3))
    def test_approxmc_counts_lie_in_the_envelope(self, prop, scope):
        """Table 8 on ``mcml --backend approxmc``: each of the four counts
        estimates the sweep's.  Scopes 2–3 only, as for AccMC."""
        first = _matrix_tree(prop.name, scope)
        second = _matrix_tree(prop.name, scope, fraction=0.3, rng=1)
        result = DiffMC(engine=CountingEngine(make_counter("approxmc"))).evaluate(
            first, second
        )
        _assert_in_envelope(
            (result.tt, result.tf, result.ft, result.ff),
            _agreement_sweep(first, second, scope * scope),
        )


class TestApproxBackend:
    def test_accmc_with_approx_counter_is_close(self):
        tree, prop = _tree_for("Reflexive", 2)
        exact = AccMC().evaluate(tree, GroundTruth(prop, 2))
        approx = AccMC(engine=CountingEngine(ApproxMCCounter(seed=1))).evaluate(
            tree, GroundTruth(prop, 2)
        )
        # Scope-2 counts are tiny, so ApproxMC's exact-small path applies.
        assert approx.counts == exact.counts
