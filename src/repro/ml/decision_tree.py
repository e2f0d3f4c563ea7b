"""CART decision-tree classifier.

The tree is the model MCML quantifies, so beyond ordinary fit/predict it
exposes its *paths*: every leaf yields the conjunction of branch conditions
leading to it plus the predicted label (:class:`TreePath`), which
:mod:`repro.core.tree2cnf` turns into CNF.

Splits use the gini criterion on a threshold test ``x[f] <= t``; for the
study's 0/1 features the only sensible threshold is 0.5, which makes the
branch conditions pure literals — the property Section 4 of the paper relies
on.  Thresholds are found for arbitrary numeric features anyway (midpoints
of consecutive observed values) so the model is generally usable.

Supports ``sample_weight`` (needed by AdaBoost), ``max_features`` (needed by
random forests) and the usual depth/min-samples regularisers.  A node whose
best split leaves fewer than ``min_samples_leaf`` rows on a side stays a
leaf; the next-best split is not tried.

Training is one recursion over row bitsets (Python ints, bit ``i`` = row
``i``).  Each feature's ``x <= v`` row sets are built once per fit (one set
per distinct value, so ``n**2`` bits for a continuous column), so a node's
counts are ``&`` and ``int.bit_count()`` when every weight is 1.
Other weights are summed by numpy over the node's rows in row order, since
a float sum depends on its order.  Prediction routes all rows level by
level through the tree flattened into arrays (:class:`TreeRouter`); a row
goes left exactly when ``x[f] <= t``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_Xy


@dataclass
class TreeNode:
    """Internal representation; leaves have ``feature is None``."""

    feature: int | None = None
    threshold: float = 0.5
    left: "TreeNode | None" = None  # x[feature] <= threshold
    right: "TreeNode | None" = None  # x[feature] >  threshold
    label: int = 0
    weight: tuple[float, float] = (0.0, 0.0)  # class-weight totals at node

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class TreePath:
    """One root-to-leaf path.

    ``conditions`` holds ``(feature, value)`` pairs meaning "binary feature
    ``feature`` equals ``value`` on this path"; ``label`` is the leaf's
    prediction.  Only meaningful for trees trained on binary features —
    :meth:`DecisionTreeClassifier.decision_paths` enforces that.
    """

    conditions: tuple[tuple[int, bool], ...]
    label: int


class DecisionTreeClassifier(BaseClassifier):
    """CART with gini impurity.

    Parameters mirror scikit-learn's defaults: unlimited depth, split while
    at least 2 samples and positive impurity decrease.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root: TreeNode | None = None
        self.n_features: int | None = None

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
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
        self.root = self._grow(X, y, weight)
        self._router = TreeRouter(self.root, lambda node: node.label, np.int64)
        return self

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int):
            if not 1 <= self.max_features <= n_features:
                raise ValueError("max_features out of range")
            return self.max_features
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def _grow(self, X: np.ndarray, y: np.ndarray, weight: np.ndarray) -> TreeNode:
        """Grow the tree in pre-order; a node is the bitset of its rows.

        ``weigh`` gives a row set's (total, positive) weight: popcounts,
        which equal numpy's float sums of unit weights exactly, or numpy's
        masked sums in row order.  Candidate features are drawn in
        pre-order and ``(gini, feature, threshold)`` breaks ties.
        """
        n, n_features = X.shape
        rng = np.random.default_rng(self.random_state)
        n_subset = self._resolve_max_features(n_features)
        columns = [_column_bitsets(column) for column in X.T]
        positive = _bitset(y == 1)
        negative = ((1 << n) - 1) ^ positive
        if (weight == 1.0).all():

            def weigh(rows: int) -> tuple[float, float]:
                return float(rows.bit_count()), float((rows & positive).bit_count())

        else:
            weighted_y = weight * y

            def weigh(rows: int) -> tuple[float, float]:
                mask = _mask(rows, n)
                return weight[mask].sum(), weighted_y[mask].sum()

        def best_split(rows: int) -> tuple[float, int, float, int] | None:
            if n_subset < n_features:
                candidates = rng.choice(n_features, size=n_subset, replace=False).tolist()
            else:
                candidates = range(n_features)
            total_w, total_pos = weigh(rows)
            parent_gini = _gini(total_pos, total_w)
            best = None
            for feature in candidates:
                values, below = columns[feature]
                # The distinct values among the node's rows, in order.
                present, seen = [], 0
                for value, value_rows in zip(values, below):
                    value_rows &= rows
                    if value_rows != seen:
                        present.append(value)
                        seen = value_rows
                        if seen == rows:
                            break
                for low, high in zip(present, present[1:]):
                    threshold = (low + high) / 2.0
                    at = bisect_right(values, threshold) - 1
                    left = rows & below[at] if at >= 0 else 0
                    w_left, pos_left = weigh(left)
                    w_right = total_w - w_left
                    if w_left == 0 or w_right == 0:
                        continue
                    pos_right = total_pos - pos_left
                    split_gini = (
                        w_left * _gini(pos_left, w_left)
                        + w_right * _gini(pos_right, w_right)
                    ) / total_w
                    if parent_gini - split_gini <= 1e-12:
                        continue
                    if best is None or (split_gini, feature, threshold) < best[:3]:
                        best = (split_gini, feature, threshold, left)
            return best

        def grow(rows: int, depth: int) -> TreeNode:
            w_pos = float(weigh(rows & positive)[0])
            w_neg = float(weigh(rows & negative)[0])
            node = TreeNode(label=int(w_pos >= w_neg), weight=(w_neg, w_pos))
            if (
                w_pos == 0.0
                or w_neg == 0.0
                or rows.bit_count() < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                return node
            split = best_split(rows)
            if split is None:
                return node
            _, feature, threshold, left = split
            right = rows ^ left
            if min(left.bit_count(), right.bit_count()) < self.min_samples_leaf:
                return node
            node.feature = feature
            node.threshold = threshold
            node.left = grow(left, depth + 1)
            node.right = grow(right, depth + 1)
            return node

        return grow((1 << n) - 1, 0)

    # -- inference ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features)
        return self._router.route(X)

    # -- structure ------------------------------------------------------------------

    def decision_paths(self) -> list[TreePath]:
        """All root-to-leaf paths as literal conjunctions.

        Requires the tree to be a *binary-feature* tree (every threshold in
        (0, 1)), which is always the case on adjacency-matrix data.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        paths: list[TreePath] = []

        def walk(node: TreeNode, conditions: list[tuple[int, bool]]) -> None:
            if node.is_leaf:
                paths.append(TreePath(tuple(conditions), node.label))
                return
            if not 0.0 < node.threshold < 1.0:
                raise ValueError(
                    "decision_paths requires binary features; found threshold "
                    f"{node.threshold} on feature {node.feature}"
                )
            assert node.left is not None and node.right is not None
            walk(node.left, conditions + [(node.feature, False)])
            walk(node.right, conditions + [(node.feature, True)])

        walk(self.root, [])
        return paths

    def n_leaves(self) -> int:
        # Every inner node has two children, so leaves = inner nodes + 1.
        return (len(self._fitted().value) + 1) // 2

    def depth(self) -> int:
        return self._fitted().depth

    def _fitted(self) -> "TreeRouter":
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self._router


class TreeRouter:
    """A fitted tree flattened into arrays, routing all rows level by level.

    Nodes are numbered breadth first.  A row goes left exactly when
    ``x[feature] <= threshold``.  A leaf is its own left and right child, so
    after ``depth`` steps every row sits on its leaf.  Serves
    :class:`DecisionTreeClassifier` and GBDT's regression trees, and through
    them random forests and AdaBoost.
    """

    def __init__(self, root, leaf_value, dtype) -> None:
        nodes, depths, children = [root], [0], []
        for at, node in enumerate(nodes):
            if node.is_leaf:
                children.append((at, at))
            else:
                children.append((len(nodes), len(nodes) + 1))
                nodes += (node.left, node.right)
                depths += (depths[at] + 1,) * 2
        self.depth = max(depths)
        self.feature = np.array([n.feature or 0 for n in nodes], dtype=np.intp)
        self.threshold = np.array([np.inf if n.is_leaf else n.threshold for n in nodes])
        self.left, self.right = np.array(children, dtype=np.intp).T
        self.value = np.array([leaf_value(n) for n in nodes], dtype=dtype)

    def route(self, X: np.ndarray) -> np.ndarray:
        """The leaf value each row of ``X`` reaches."""
        rows, at = np.arange(len(X)), np.zeros(len(X), dtype=np.intp)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
        return self.value[at]


def _bitset(mask: np.ndarray) -> int:
    """The rows of a boolean mask as an int: bit ``i`` is row ``i``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mask(rows: int, n: int) -> np.ndarray:
    """Inverse of :func:`_bitset`: the boolean mask of ``n`` rows."""
    packed = np.frombuffer(rows.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


def _column_bitsets(column: np.ndarray) -> tuple[list[float], list[int]]:
    """A column's sorted distinct values and, for each value ``v``, the rows
    with ``x <= v``."""
    values = np.unique(column).tolist()
    below = [_bitset(column <= value) for value in values[:-1]]
    return values, below + [(1 << len(column)) - 1]


def _gini(weight_pos: float, weight_total: float) -> float:
    """Gini impurity of a node with the given positive/total weights."""
    if weight_total <= 0:
        return 0.0
    p = weight_pos / weight_total
    return 2.0 * p * (1.0 - p)
