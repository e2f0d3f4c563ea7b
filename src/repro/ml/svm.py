"""Linear support-vector classifier.

L2-regularised hinge-loss SVM trained by dual coordinate descent — the
liblinear algorithm behind scikit-learn's ``LinearSVC`` (the paper's "SVM"
subject; an RBF kernel would be hopeless on 10⁴ samples in pure Python and
the study's data is near-linearly-separable anyway, as Table 2 shows).

A constant bias feature is appended so the bias is regularised exactly as in
liblinear's default formulation.  The coordinate loop does its per-sample
scalar work on Python floats; only the dot product and the ``w`` update run
in numpy, which keeps BLAS's summation order.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_Xy


class LinearSVC(BaseClassifier):
    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 1000,
        tol: float = 1e-4,
        random_state: int | None = 0,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVC":
        X, y01 = check_Xy(X, y)
        self.n_features = X.shape[1]
        n = X.shape[0]
        Xb = np.hstack([X, np.ones((n, 1))])  # bias feature

        rng = np.random.default_rng(self.random_state)
        w = np.zeros(Xb.shape[1])
        # Python floats for everything but the two vector operations: numpy
        # keeps the dot product (``row.dot(w)`` calls the same BLAS kernel
        # as ``row @ w``, with less call overhead) and ``w += delta * row``,
        # so the summation order is BLAS's; the scalars skip numpy's.
        rows = list(Xb)
        signs = np.where(y01 == 1, 1.0, -1.0).tolist()
        # Per-sample squared norms (the Q_ii diagonal).
        q = np.einsum("ij,ij->i", Xb, Xb).tolist()
        alpha = [0.0] * n
        C = float(self.C)
        order = np.arange(n)

        for _ in range(self.max_iter):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order.tolist():
                row = rows[i]
                gradient = signs[i] * float(row.dot(w)) - 1.0
                old = alpha[i]
                projected = gradient
                if old <= 0:
                    projected = min(gradient, 0.0)
                elif old >= C:
                    projected = max(gradient, 0.0)
                if abs(projected) > max_violation:
                    max_violation = abs(projected)
                if abs(projected) > 1e-12 and q[i] > 0:
                    alpha[i] = min(max(old - gradient / q[i], 0.0), C)
                    delta = (alpha[i] - old) * signs[i]
                    if delta != 0.0:
                        w += delta * row
            if max_violation < self.tol:
                break

        self.coef_ = w[:-1].copy()
        self.intercept_ = float(w[-1])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features)
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)
