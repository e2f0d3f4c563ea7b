"""Gradient-boosted decision trees for binary classification.

Standard binomial-deviance GBM: at each stage fit a small regression tree
to the negative gradient (residuals) of the log-loss, then set each leaf's
value with a one-step Newton update.  Defaults mirror scikit-learn's
GradientBoostingClassifier: 100 stages, learning rate 0.1, depth-3 trees.

Residual sums stay numpy's ``residual[mask].sum()``: a float sum depends on
its summation order.  A two-valued column has one candidate threshold at
every node, so it comes from a table built once per fit instead of
``np.unique`` per node.  Prediction uses the decision tree's level-wise
:class:`~repro.ml.decision_tree.TreeRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_Xy
from repro.ml.decision_tree import TreeRouter


@dataclass
class _RegressionNode:
    feature: int | None = None
    threshold: float = 0.5
    left: "_RegressionNode | None" = None
    right: "_RegressionNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class _RegressionTree:
    """Squared-error CART regression tree with Newton leaf values."""

    def __init__(self, max_depth: int, min_samples_leaf: int) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.root: _RegressionNode | None = None

    def fit(
        self,
        X: np.ndarray,
        residual: np.ndarray,
        hessian: np.ndarray,
        thresholds: list[list[float] | None],
    ) -> "_RegressionTree":
        """``thresholds`` is :func:`_fixed_thresholds` of ``X``."""
        self._thresholds = thresholds
        self.root = self._build(X, residual, hessian, depth=0)
        self._router = TreeRouter(self.root, lambda node: node.value, np.float64)
        return self

    def _leaf_value(self, residual: np.ndarray, hessian: np.ndarray) -> float:
        # Newton step for log-loss: Σr / Σh (h = p(1-p)).
        denom = float(hessian.sum())
        if denom < 1e-12:
            return 0.0
        return float(residual.sum()) / denom

    def _build(
        self, X: np.ndarray, residual: np.ndarray, hessian: np.ndarray, depth: int
    ) -> _RegressionNode:
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

    def _best_split(
        self, X: np.ndarray, residual: np.ndarray
    ) -> tuple[int, float] | None:
        n, n_features = X.shape
        total_sum = residual.sum()
        best: tuple[float, int, float] | None = None
        for feature in range(n_features):
            column = X[:, feature]
            thresholds = self._thresholds[feature]
            if thresholds is None:
                values = np.unique(column)
                thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(np.count_nonzero(mask))
                n_right = n - n_left
                if n_left == 0 or n_right == 0:
                    continue
                sum_left = residual[mask].sum()
                sum_right = total_sum - sum_left
                # Variance-reduction score (maximise): Σl²/nl + Σr²/nr.
                score = sum_left**2 / n_left + sum_right**2 / n_right
                key = (-score, feature, float(threshold))
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[1], best[2]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._router.route(X)


class GradientBoostingClassifier(BaseClassifier):
    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state  # accepted for API symmetry
        self.stages_: list[_RegressionTree] = []
        self.base_score_: float = 0.0
        self.n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X, y = check_Xy(X, y)
        self.n_features = X.shape[1]
        self.stages_ = []
        # Initial raw score: log-odds of the positive class.
        positive_rate = np.clip(y.mean(), 1e-9, 1 - 1e-9)
        self.base_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(X.shape[0], self.base_score_)
        thresholds = _fixed_thresholds(X)
        for _ in range(self.n_estimators):
            probability = _sigmoid(raw)
            residual = y - probability
            hessian = probability * (1 - probability)
            tree = _RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X, residual, hessian, thresholds)
            update = tree.predict(X)
            raw += self.learning_rate * update
            self.stages_.append(tree)
            if np.abs(residual).max() < 1e-6:
                break
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features)
        raw = np.full(X.shape[0], self.base_score_)
        for tree in self.stages_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)


def _fixed_thresholds(X: np.ndarray) -> list[list[float] | None]:
    """Per feature, the thresholds every node tries if they do not depend on
    the node: none for a constant column, one midpoint for a two-valued one.
    ``None`` means the midpoints of the node's own distinct values."""
    uniques = [np.unique(column) for column in X.T]
    return [
        None if len(values) > 2 else ((values[:-1] + values[1:]) / 2.0).tolist()
        for values in uniques
    ]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
