"""Tree2CNF tests: the Section 4 construction, checked semantically."""

import itertools

import numpy as np
import pytest

from repro.core.pipeline import MCMLPipeline
from repro.core.tree2cnf import label_region_cnf, path_count, tree_paths_formula
from repro.counting import brute_force_count, exact_count
from repro.ml.decision_tree import DecisionTreeClassifier, TreePath
from repro.spec import SymmetryBreaking
from repro.spec.properties import PROPERTIES


def _fit_tree(num_features: int, label_fn, seed=0, n=400):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, num_features)).astype(float)
    y = np.array([label_fn(row) for row in X.astype(int)], dtype=int)
    return DecisionTreeClassifier().fit(X, y), X, y


class TestFigure3Example:
    """The paper's Figure 3: 2 inputs x, y; tree computes x ↔ y."""

    PATHS = [
        TreePath(((0, True), (1, True)), 1),
        TreePath(((0, True), (1, False)), 0),
        TreePath(((0, False), (1, True)), 0),
        TreePath(((0, False), (1, False)), 1),
    ]

    def test_true_region_cnf(self):
        # Section 4 derives CNF(true) = (!x ∨ !y') form... concretely:
        # false paths are [x,!y] and [!x,y]; negations are the clauses.
        cnf = label_region_cnf(self.PATHS, 1, 2)
        assert sorted(cnf.clauses) == [(-1, 2), (1, -2)]

    def test_false_region_cnf(self):
        # (!x∨!y) ∧ (x∨y), as printed in the paper.
        cnf = label_region_cnf(self.PATHS, 0, 2)
        assert sorted(cnf.clauses) == [(-1, -2), (1, 2)]

    def test_counts(self):
        assert exact_count(label_region_cnf(self.PATHS, 1, 2)) == 2
        assert exact_count(label_region_cnf(self.PATHS, 0, 2)) == 2


class TestConstructionProperties:
    def test_no_aux_vars_and_linear_size(self):
        tree, _, _ = _fit_tree(4, lambda x: int(x.sum() % 2 == 0))
        for label in (0, 1):
            cnf = label_region_cnf(tree, label, 4)
            assert cnf.variables() <= set(range(1, 5))
            # One clause per opposite-label leaf (Section 4's analysis).
            assert len(cnf.clauses) == path_count(tree, 1 - label)

    def test_regions_partition_space(self):
        tree, _, _ = _fit_tree(5, lambda x: int(x[0] and (x[1] or not x[3])))
        true_cnf = label_region_cnf(tree, 1, 5)
        false_cnf = label_region_cnf(tree, 0, 5)
        assert exact_count(true_cnf) + exact_count(false_cnf) == 2**5

    def test_cnf_matches_predict_pointwise(self):
        tree, _, _ = _fit_tree(4, lambda x: int((x[0] ^ x[2]) or x[3]))
        true_cnf = label_region_cnf(tree, 1, 4)
        for bits in itertools.product([0, 1], repeat=4):
            predicted = tree.predict(np.array([bits], dtype=float))[0]
            satisfied = true_cnf.evaluate({k + 1: bool(bits[k]) for k in range(4)})
            assert satisfied == (predicted == 1)

    def test_dnf_formula_equals_cnf_region(self):
        tree, _, _ = _fit_tree(4, lambda x: int(x[1] and not x[2]))
        for label in (0, 1):
            dnf = tree_paths_formula(tree, label)
            cnf = label_region_cnf(tree, label, 4)
            for bits in itertools.product([False, True], repeat=4):
                assignment = {k + 1: bits[k] for k in range(4)}
                assert dnf.evaluate(assignment) == cnf.evaluate(assignment)

    def test_single_leaf_tree(self):
        # A constant tree: one region is everything, the other empty.
        X = np.zeros((10, 3))
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert exact_count(label_region_cnf(tree, 1, 3)) == 8
        assert exact_count(label_region_cnf(tree, 0, 3)) == 0

    def test_label_validation(self):
        with pytest.raises(ValueError):
            label_region_cnf([], 2, 3)

    def test_feature_range_validation(self):
        paths = [TreePath(((7, True),), 0), TreePath(((7, False),), 1)]
        with pytest.raises(ValueError):
            label_region_cnf(paths, 1, 3)

    def test_counts_match_brute_force_on_random_trees(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tree, _, _ = _fit_tree(
                6,
                lambda x: int(rng.random() < 0.5),  # noisy labels → bushy tree
                seed=seed,
                n=150,
            )
            cnf = label_region_cnf(tree, 1, 6)
            assert exact_count(cnf) == brute_force_count(cnf)


class TestRegionMatrix:
    """Section 4's construction on the trees the tables train: 16 properties
    × scopes 2–4 (seed 0, at most 500 positives, adjacent symmetry breaking,
    half the data), each region against the tree's own predictions on all
    2^(scope²) inputs."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_regions_match_tree_predictions(self, prop, scope):
        pipeline = MCMLPipeline(seed=0)
        dataset = pipeline.make_dataset(
            prop, scope, symmetry=SymmetryBreaking(), max_positives=500
        )
        train, _ = dataset.split(0.5, rng=0)
        tree = pipeline.train("DT", train)
        m = scope * scope
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        predicted = tree.predict(bits.astype(float))
        for label in (0, 1):
            cnf = label_region_cnf(tree, label, m)
            assert cnf.variables() <= set(range(1, m + 1))
            assert len(cnf.clauses) == path_count(tree, 1 - label)
            assert exact_count(cnf) == int(np.sum(predicted == label))
