"""Linear models: ridge regression and logistic regression.

Logistic regression is the default *dependence classifier* of the hybrid
model (a small, fast, well-calibrated baseline); ridge regression supports
diagnostics and tests.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, Regressor, check_2d, check_fitted
from .losses import binary_cross_entropy

__all__ = ["RidgeRegression", "LogisticRegression"]


class RidgeRegression(Regressor):
    """Closed-form L2-regularised least squares (intercept unpenalised)."""

    def __init__(self, *, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = check_2d(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != X.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        n, d = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        penalty = self.alpha * np.eye(d + 1)
        penalty[-1, -1] = 0.0  # do not penalise the intercept
        theta = np.linalg.solve(Xb.T @ Xb + penalty, Xb.T @ y)
        self.coef_ = theta[:-1]
        self.intercept_ = float(theta[-1])
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self)
        assert self.coef_ is not None
        return check_2d(X) @ self.coef_ + self.intercept_


class LogisticRegression(Classifier):
    """Binary logistic regression trained by full-batch gradient descent.

    Deterministic (no minibatch shuffling), with L2 regularisation and a
    step-halving line search on the regularised loss, so convergence is
    monotone — important because the dependence classifier is retrained in
    every experiment run and must not be seed-sensitive.
    """

    def __init__(
        self,
        *,
        l2: float = 1e-3,
        learning_rate: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-7,
    ) -> None:
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.history_: list[float] = []

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
        return binary_cross_entropy(probs, y) + 0.5 * self.l2 * float(w @ w)

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
        for _ in range(self.max_iter):
            probs = self._sigmoid(X @ w + b)
            grad_w = X.T @ (probs - y) / n + self.l2 * w
            grad_b = float((probs - y).mean())
            step = self.learning_rate
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
            if improvement < self.tol:
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
