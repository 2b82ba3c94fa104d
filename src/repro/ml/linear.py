"""Logistic regression: the hybrid model's dependence classifier (a small,
fast, well-calibrated baseline)."""

from __future__ import annotations

import numpy as np

from .base import check_2d, check_fitted
from .losses import binary_cross_entropy

__all__ = ["LogisticRegression"]

#: L2 penalty on the weights (the intercept is unpenalised).
_L2 = 1e-3
#: First step of each iteration's line search.
_LEARNING_RATE = 1.0
_MAX_ITER = 500
#: Stop once an iteration improves the regularised loss by less than this.
_TOL = 1e-7


class LogisticRegression:
    """Binary logistic regression trained by full-batch gradient descent.

    Deterministic (no minibatch shuffling), with L2 regularisation and a
    step-halving line search on the regularised loss, so convergence is
    monotone — important because the dependence classifier is retrained in
    every experiment run and must not be seed-sensitive.
    """

    def __init__(self) -> None:
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.history_: list[float] = []
        self._fitted = False

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        ez = np.exp(z[~positive])
        out[~positive] = ez / (1.0 + ez)
        return out

    def _loss(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
        probs = self._sigmoid(X @ w + b)
        return binary_cross_entropy(probs, y) + 0.5 * _L2 * float(w @ w)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = check_2d(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != X.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be binary 0/1")
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        self.history_ = []
        loss = self._loss(X, y, w, b)
        for _ in range(_MAX_ITER):
            probs = self._sigmoid(X @ w + b)
            grad_w = X.T @ (probs - y) / n + _L2 * w
            grad_b = float((probs - y).mean())
            step = _LEARNING_RATE
            # Backtracking line search keeps the iteration monotone.
            for _ in range(30):
                w_new = w - step * grad_w
                b_new = b - step * grad_b
                new_loss = self._loss(X, y, w_new, b_new)
                if new_loss <= loss:
                    break
                step *= 0.5
            else:
                break
            improvement = loss - new_loss
            w, b, loss = w_new, b_new, new_loss
            self.history_.append(loss)
            if improvement < _TOL:
                break
        self.coef_ = w
        self.intercept_ = b
        self._fitted = True
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw logits ``Xw + b``."""
        check_fitted(self)
        assert self.coef_ is not None
        return check_2d(X) @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = self._sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
