"""Shared classifier plumbing."""

from __future__ import annotations

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


def check_Xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalise a training pair.

    ``X`` becomes a 2-D ``float64`` array of finite values (models are
    feature-type agnostic even though the study only uses 0/1 features);
    ``y`` a 1-D int array of 0/1 labels.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    labels = np.unique(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0/1, got {labels}")
    _check_finite(X)
    return X, y.astype(np.int64)


def check_X(X: np.ndarray, n_features: int | None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if n_features is None:
        raise NotFittedError("model is not fitted yet")
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    _check_finite(X)
    return X


def _check_finite(X: np.ndarray) -> None:
    """Reject NaN and infinities: no model here is defined on them."""
    finite = np.isfinite(X)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise ValueError(
            f"X must be finite, got {X[row, column]} at row {row}, column {column}"
        )


class BaseClassifier:
    """Minimal fit/predict interface shared by all six models."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled set."""
        y = np.asarray(y)
        return float((self.predict(X) == y).mean())
