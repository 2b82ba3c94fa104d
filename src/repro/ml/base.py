"""Input checks shared by the from-scratch ML stack.

No ML framework ships in the offline environment, so the hybrid model's
learners (distribution-estimation MLP, dependence classifier) are built on a
small NumPy stack with a scikit-learn-style ``fit`` / ``predict`` contract.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_2d", "check_fitted"]


def check_2d(X: np.ndarray, *, name: str = "X") -> np.ndarray:
    """Validate and convert a feature matrix to float64 2-D."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_fitted(estimator: object) -> None:
    """Raise when ``fit`` has not been called yet."""
    if not getattr(estimator, "_fitted", False):
        raise RuntimeError(f"{type(estimator).__name__} is not fitted; call fit() first")
