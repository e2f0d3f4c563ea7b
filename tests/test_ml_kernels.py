"""The training kernels against their previous implementations, bit for bit.

The tree builder, the tree router, GBDT's split loop and the SVM's dual
coordinate loop were rewritten for speed under one rule: the same bits come
out.  The previous implementations are kept here verbatim as oracles:

* :class:`ReferenceTree` — the array-copying CART build (each node masks
  and copies its rows) and the per-row tree walk.
* :class:`ReferenceRegressionTree` — GBDT's regression tree with
  ``np.unique`` per node and feature, and its per-row walk.
* :class:`ReferenceSVC` — the dual coordinate loop on numpy scalars.

Each case fits the library model and the oracle on the same data and
compares every node (feature, threshold, label, node weights, leaf values),
``coef_``/``intercept_`` bytes and the predictions.  Ensembles get the
oracle by swapping the tree class their module builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generation import generate_dataset
from repro.experiments.config import EXPERIMENT_MODEL_PARAMS, PRINTED_RATIOS
from repro.experiments.table8 import SECOND_TREE_PARAMS
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LinearSVC,
    RandomForestClassifier,
    adaboost,
    gradient_boosting,
    random_forest,
)
from repro.ml.base import check_X, check_Xy
from repro.ml.decision_tree import TreeNode, _gini
from repro.ml.gradient_boosting import _RegressionNode, _RegressionTree
from repro.spec.properties import get_property
from repro.spec.symmetry import SymmetryBreaking

# -- reference implementations ------------------------------------------------------


class ReferenceTree(DecisionTreeClassifier):
    """CART with the array-copying ``_build``/``_best_split`` and per-row walk."""

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        if sample_weight is None:
            weight = np.ones(len(y))
        else:
            weight = np.asarray(sample_weight, dtype=np.float64)
            if weight.shape != y.shape:
                raise ValueError("sample_weight shape mismatch")
            if (weight < 0).any():
                raise ValueError("sample_weight must be non-negative")
        self.n_features = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._n_subset = self._resolve_max_features(X.shape[1])
        self.root = self._build(X, y, weight, depth=0)
        return self

    def _build(self, X, y, weight, depth):
        w_pos = float(weight[y == 1].sum())
        w_neg = float(weight[y == 0].sum())
        node = TreeNode(label=int(w_pos >= w_neg), weight=(w_neg, w_pos))

        if (
            w_pos == 0.0
            or w_neg == 0.0
            or len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        split = self._best_split(X, y, weight)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], weight[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], weight[~mask], depth + 1)
        return node

    def _best_split(self, X, y, weight):
        n_features = X.shape[1]
        if self._n_subset < n_features:
            candidates = self._rng.choice(n_features, size=self._n_subset, replace=False)
        else:
            candidates = np.arange(n_features)

        total_w = weight.sum()
        total_pos = (weight * y).sum()
        parent_gini = _gini(total_pos, total_w)

        best = None
        for feature in candidates:
            column = X[:, feature]
            values = np.unique(column)
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = column <= threshold
                w_left = weight[mask].sum()
                w_right = total_w - w_left
                if w_left == 0 or w_right == 0:
                    continue
                pos_left = (weight[mask] * y[mask]).sum()
                pos_right = total_pos - pos_left
                split_gini = (
                    w_left * _gini(pos_left, w_left)
                    + w_right * _gini(pos_right, w_right)
                ) / total_w
                gain = parent_gini - split_gini
                if gain <= 1e-12:
                    continue
                key = (split_gini, int(feature), float(threshold))
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[1], best[2]

    def predict(self, X):
        X = check_X(X, self.n_features)
        return reference_walk(self.root, X, np.int64, lambda node: node.label)


class ReferenceRegressionTree(_RegressionTree):
    """GBDT's regression tree with ``np.unique`` per node and per-row walk."""

    def fit(self, X, residual, hessian, *_):
        self.root = self._build(X, residual, hessian, depth=0)
        return self

    def _build(self, X, residual, hessian, depth):
        node = _RegressionNode(value=self._leaf_value(residual, hessian))
        n = X.shape[0]
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, residual)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], residual[mask], hessian[mask], depth + 1)
        node.right = self._build(X[~mask], residual[~mask], hessian[~mask], depth + 1)
        return node

    def _best_split(self, X, residual):
        n, n_features = X.shape
        total_sum = residual.sum()
        best = None
        for feature in range(n_features):
            column = X[:, feature]
            values = np.unique(column)
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(mask.sum())
                n_right = n - n_left
                if n_left == 0 or n_right == 0:
                    continue
                sum_left = residual[mask].sum()
                sum_right = total_sum - sum_left
                score = sum_left**2 / n_left + sum_right**2 / n_right
                key = (-score, feature, float(threshold))
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[1], best[2]

    def predict(self, X):
        return reference_walk(self.root, X, np.float64, lambda node: node.value)


class ReferenceSVC(LinearSVC):
    """The dual coordinate loop on numpy scalars."""

    def fit(self, X, y):
        X, y01 = check_Xy(X, y)
        self.n_features = X.shape[1]
        n = X.shape[0]
        y_signed = np.where(y01 == 1, 1.0, -1.0)
        Xb = np.hstack([X, np.ones((n, 1))])

        rng = np.random.default_rng(self.random_state)
        alpha = np.zeros(n)
        w = np.zeros(Xb.shape[1])
        q = np.einsum("ij,ij->i", Xb, Xb)
        order = np.arange(n)

        for _ in range(self.max_iter):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order:
                gradient = y_signed[i] * (Xb[i] @ w) - 1.0
                projected = gradient
                if alpha[i] <= 0:
                    projected = min(gradient, 0.0)
                elif alpha[i] >= self.C:
                    projected = max(gradient, 0.0)
                if abs(projected) > max_violation:
                    max_violation = abs(projected)
                if abs(projected) > 1e-12 and q[i] > 0:
                    old = alpha[i]
                    alpha[i] = float(np.clip(old - gradient / q[i], 0.0, self.C))
                    delta = (alpha[i] - old) * y_signed[i]
                    if delta != 0.0:
                        w += delta * Xb[i]
            if max_violation < self.tol:
                break

        self.coef_ = w[:-1].copy()
        self.intercept_ = float(w[-1])
        return self


def reference_walk(root, X, dtype, leaf_value):
    """The per-row walk: left exactly when ``x[f] <= t``."""
    out = np.empty(X.shape[0], dtype=dtype)
    for i, row in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = leaf_value(node)
    return out


# -- comparison ---------------------------------------------------------------------


def _hex(value) -> str:
    return float(value).hex()


def tree_nodes(root) -> list[tuple]:
    """Every node in pre-order, floats as hex so -0.0 and 0.0 differ."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, TreeNode):
            leaf = (node.label, _hex(node.weight[0]), _hex(node.weight[1]))
        else:
            leaf = (_hex(node.value),)
        if node.is_leaf:
            out.append(leaf)
        else:
            out.append((node.feature, _hex(node.threshold)) + leaf)
            stack.extend((node.right, node.left))
    return out


def assert_same_tree(new, old, *inputs):
    assert tree_nodes(new.root) == tree_nodes(old.root)
    for X in inputs:
        expected = reference_walk(new.root, check_X(X, new.n_features), np.int64, lambda n: n.label)
        assert new.predict(X).tobytes() == expected.tobytes()
        assert new.predict(X).tobytes() == old.predict(X).tobytes()


def fit_pair(monkeypatch, abbrev, params, X, y):
    """(library model, oracle model), both fitted on ``(X, y)``."""
    new = _FACTORIES[abbrev](**params).fit(X, y)
    with monkeypatch.context() as patch:
        patch.setattr(random_forest, "DecisionTreeClassifier", ReferenceTree)
        patch.setattr(adaboost, "DecisionTreeClassifier", ReferenceTree)
        patch.setattr(gradient_boosting, "_RegressionTree", ReferenceRegressionTree)
        old = _ORACLES[abbrev](**params).fit(X, y)
    return new, old


def assert_same_model(abbrev, new, old, *inputs):
    if abbrev == "DT":
        assert_same_tree(new, old, *inputs)
    elif abbrev in ("RFT", "ABT"):
        assert len(new.estimators_) == len(old.estimators_)
        for a, b in zip(new.estimators_, old.estimators_):
            assert_same_tree(a, b, *inputs)
        if abbrev == "ABT":
            assert new.estimator_weights_ == old.estimator_weights_
    elif abbrev == "GBDT":
        assert _hex(new.base_score_) == _hex(old.base_score_)
        assert len(new.stages_) == len(old.stages_)
        for a, b in zip(new.stages_, old.stages_):
            assert tree_nodes(a.root) == tree_nodes(b.root)
        for X in inputs:
            raw = new.decision_function(X)
            assert raw.tobytes() == old.decision_function(X).tobytes()
    else:
        assert new.coef_.tobytes() == old.coef_.tobytes()
        assert _hex(new.intercept_) == _hex(old.intercept_)
    for X in inputs:
        assert new.predict(X).tobytes() == old.predict(X).tobytes()


_FACTORIES = {
    "DT": DecisionTreeClassifier,
    "RFT": RandomForestClassifier,
    "GBDT": GradientBoostingClassifier,
    "ABT": AdaBoostClassifier,
    "SVM": LinearSVC,
}
_ORACLES = {**_FACTORIES, "DT": ReferenceTree, "SVM": ReferenceSVC}


# -- the classify datasets ----------------------------------------------------------


@pytest.fixture(scope="module", params=[True, False], ids=["symbr", "nosymbr"])
def classify_dataset(request):
    """PartialOrder at scope 4 with at most 200 positives, as Tables 2 and 4
    run in the reduced benchmark."""
    symmetry = SymmetryBreaking("adjacent") if request.param else None
    return generate_dataset(
        get_property("PartialOrder"),
        4,
        symmetry=symmetry,
        max_positives=200,
        rng=np.random.default_rng(0),
    )


def _split(dataset, ratio):
    train, test = dataset.split(ratio, rng=np.random.default_rng(1))
    return (
        train.X.astype(np.float64),
        train.y,
        test.X.astype(np.float64),
        dataset.X.astype(np.float64),
    )


@pytest.mark.parametrize("ratio", PRINTED_RATIOS)
@pytest.mark.parametrize("abbrev", sorted(_FACTORIES))
def test_classify_models_match_reference(monkeypatch, classify_dataset, abbrev, ratio):
    X, y, X_test, X_all = _split(classify_dataset, ratio)
    params = {**EXPERIMENT_MODEL_PARAMS[abbrev], "random_state": 0}
    new, old = fit_pair(monkeypatch, abbrev, params, X, y)
    assert_same_model(abbrev, new, old, X_test, X_all)


@pytest.mark.parametrize("ratio", PRINTED_RATIOS)
def test_table8_second_tree_matches_reference(classify_dataset, ratio):
    X, y, X_test, X_all = _split(classify_dataset, ratio)
    new = DecisionTreeClassifier(**SECOND_TREE_PARAMS, random_state=0).fit(X, y)
    old = ReferenceTree(**SECOND_TREE_PARAMS, random_state=0).fit(X, y)
    assert_same_tree(new, old, X_test, X_all)


def test_adaboost_weighted_stumps_match_reference(monkeypatch, classify_dataset):
    X, y, X_test, X_all = _split(classify_dataset, 0.25)
    new, old = fit_pair(monkeypatch, "ABT", {"n_estimators": 15}, X, y)
    assert any(stump.depth() == 1 for stump in new.estimators_)
    assert_same_model("ABT", new, old, X_test, X_all)


# -- multi-valued numeric columns ---------------------------------------------------

_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _numeric_dataset(seed: int):
    """Columns of every kind a numeric feature can take: few and many
    distinct values, a constant, signed zeros, huge values whose midpoint
    overflows, and ``nextafter(1.0, 0.0)`` beside ``1.0``."""
    rng = np.random.default_rng(seed)
    n = 60 + 10 * seed
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(0, 4, size=n) * 0.5,
            rng.choice([0.0, _BELOW_ONE, 1.0, 2.0], size=n),
            rng.choice([-0.0, 0.0, 1.0], size=n),
            np.full(n, 3.0),
            rng.choice([-1.7e308, -1.5e308, 1.5e308, 1.7e308], size=n),
            rng.integers(0, 2, size=n).astype(float),
        ]
    )
    score = X[:, 0] + (X[:, 2] >= 1.0) - X[:, 1] + rng.normal(scale=0.5, size=n)
    y = (score > np.median(score)).astype(np.int64)
    return X, y


@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
@pytest.mark.parametrize("seed", range(6))
def test_numeric_trees_match_reference(monkeypatch, seed):
    X, y = _numeric_dataset(seed)
    X_probe, _ = _numeric_dataset(seed + 100)
    for abbrev, params in (
        ("DT", {}),
        ("DT", {"max_features": 3, "random_state": seed}),
        ("DT", {"min_samples_leaf": 4, "max_depth": 5}),
        ("RFT", {"n_estimators": 5, "random_state": seed}),
        ("GBDT", {"n_estimators": 8}),
        ("ABT", {"n_estimators": 6, "base_max_depth": 2}),
    ):
        new, old = fit_pair(monkeypatch, abbrev, params, X, y)
        assert_same_model(abbrev, new, old, X, X_probe)


@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_weighted_numeric_tree_matches_reference(seed):
    X, y = _numeric_dataset(seed)
    weight = np.random.default_rng(seed).random(len(y))
    weight[::7] = 0.0
    new = DecisionTreeClassifier().fit(X, y, sample_weight=weight)
    old = ReferenceTree().fit(X, y, sample_weight=weight)
    assert_same_tree(new, old, X)


def test_midpoint_that_rounds_onto_the_upper_value_sends_it_left():
    # (nextafter(1, 0) + 1) / 2 rounds to 1.0, so the only split of this
    # column is x <= 1.0, which keeps both values on the left.
    X = np.array([[_BELOW_ONE], [_BELOW_ONE], [1.0], [1.0], [2.0], [2.0]])
    y = np.array([0, 0, 1, 1, 1, 1])
    new = DecisionTreeClassifier().fit(X, y)
    old = ReferenceTree().fit(X, y)
    assert new.root.threshold == 1.0
    assert_same_tree(new, old, X)
    assert new.predict(np.array([[1.0]])).tolist() == [new.root.left.label]


def test_numeric_svm_matches_reference():
    X, y = _numeric_dataset(1)
    X = X[:, [0, 1, 2, 3, 6]]
    for params in ({"max_iter": 50}, {"max_iter": 50, "C": 3}):
        new = LinearSVC(**params).fit(X, y)
        old = ReferenceSVC(**params).fit(X, y)
        assert_same_model("SVM", new, old, X)
