"""Evaluation metrics for classifiers."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    t = np.asarray(y_true).ravel()
    p = np.asarray(y_pred).ravel()
    if t.size != p.size:
        raise ValueError("label arrays must have equal length")
    if t.size == 0:
        raise ValueError("need at least one label")
    return float((t == p).mean())
