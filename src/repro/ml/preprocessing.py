"""Feature preprocessing: standardisation."""

from __future__ import annotations

import numpy as np

from .base import check_2d

__all__ = ["StandardScaler"]


class StandardScaler:
    """Zero-mean / unit-variance feature scaling.

    Constant features get a scale of 1 so transforming them is a no-op
    (instead of dividing by zero).  Fitting a matrix with no rows raises
    ``ValueError``: its mean would be NaN, and every stage behind the
    scaler would answer from it without a word.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_2d(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on a matrix with no rows")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        X = check_2d(X)
        if X.shape[1] != self.mean_.size:
            raise ValueError(
                f"expected {self.mean_.size} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)
