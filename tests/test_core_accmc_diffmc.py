"""AccMC and DiffMC tests: whole-space metrics against brute-force truth."""

import functools
import itertools

import numpy as np
import pytest

from repro.core import AccMC, DiffMC, MCMLPipeline
from repro.core.accmc import GroundTruth
from repro.counting import ApproxMCCounter, CountingEngine, make_backend
from repro.data import generate_dataset
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.spec import SymmetryBreaking, get_property
from repro.spec.evaluate import evaluate_bits
from repro.spec.properties import PROPERTIES


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

    def test_modes_agree(self):
        tree, prop = _tree_for("Equivalence", 3)
        gt = GroundTruth(prop, 3)
        product = AccMC(mode="product").evaluate(tree, gt)
        derived = AccMC(mode="derived").evaluate(tree, gt)
        assert product.counts == derived.counts

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

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            AccMC(mode="magic")

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


@functools.lru_cache(maxsize=None)
def _formula_sweep_counts(prop_name: str, scope: int):
    """The cell DT's confusion counts from the numpy formula sweep
    (``brute``), which shares no code with the CNF route."""
    sweep = AccMC(engine=CountingEngine(make_backend("brute")), mode="product")
    ground_truth = sweep.ground_truth(
        get_property(prop_name), scope, symmetry=SymmetryBreaking()
    )
    return sweep.evaluate(_matrix_tree(prop_name, scope), ground_truth).counts


def _predictions(tree, num_features: int):
    """The tree's verdict (``True`` for label 1) on all 2^num_features inputs."""
    bits = (np.arange(1 << num_features)[:, None] >> np.arange(num_features)) & 1
    return tree.predict(bits.astype(float)) == 1


class TestAccMCMatrix:
    """The CNF route against the numpy formula sweep, which shares no code
    with it: 16 properties × scopes 2–4, adjacent symmetry breaking."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_cnf_route_matches_formula_sweep(self, prop, scope):
        cnf_route = AccMC(engine=CountingEngine(make_backend("exact")), mode="product")
        actual = cnf_route.evaluate(
            _matrix_tree(prop.name, scope),
            cnf_route.ground_truth(prop, scope, symmetry=SymmetryBreaking()),
        )
        assert actual.counts == _formula_sweep_counts(prop.name, scope)

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_derived_mode_matches_formula_sweep(self, prop, scope):
        """``mode="derived"`` counts φ∧τ, φ, τ and the symmetry-reduced space
        on the CNF route and derives fp, fn and tn from the partition
        identities; they must equal the sweep's four product counts."""
        derived = AccMC(engine=CountingEngine(make_backend("exact")), mode="derived")
        actual = derived.evaluate(
            _matrix_tree(prop.name, scope),
            derived.ground_truth(prop, scope, symmetry=SymmetryBreaking()),
        )
        assert actual.counts == _formula_sweep_counts(prop.name, scope)


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


class TestDiffMCMatrix:
    """DiffMC's four region conjunctions against both trees' predictions on
    every input: 16 properties × scopes 2–4, the cell's DT against a DT
    trained on another split of the same dataset."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_counts_match_prediction_sweep(self, prop, scope):
        first = _matrix_tree(prop.name, scope)
        second = _matrix_tree(prop.name, scope, fraction=0.3, rng=1)
        result = DiffMC(engine=CountingEngine(make_backend("exact"))).evaluate(first, second)
        a = _predictions(first, scope * scope)
        b = _predictions(second, scope * scope)
        assert (result.tt, result.tf, result.ft, result.ff) == (
            int(np.sum(a & b)),
            int(np.sum(a & ~b)),
            int(np.sum(~a & b)),
            int(np.sum(~a & ~b)),
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
