"""Training losses with analytic gradients.

The distribution-estimation model is trained to match target histograms, so
its loss is cross-entropy between a *soft* target distribution and the
softmax output — minimising it is equivalent to minimising
``KL(target || prediction)``, the paper's evaluation metric.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy_from_logits",
    "cross_entropy_gradient",
    "binary_cross_entropy",
]

_EPS = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, numerically stabilised."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean soft-target cross-entropy ``-sum_k t_k log softmax(z)_k``.

    ``targets`` rows are probability vectors (the per-pair ground-truth delay
    profiles), not class indices.
    """
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    return float(-(targets * log_softmax(logits)).sum(axis=-1).mean())


def cross_entropy_gradient(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of :func:`cross_entropy_from_logits` w.r.t. the logits.

    The classic ``softmax - target`` form, divided by the batch size because
    the loss is a mean.
    """
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    return (softmax(logits) - targets) / logits.shape[0]


def binary_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of predicted probabilities vs 0/1 labels."""
    p = np.clip(probs, _EPS, 1.0 - _EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
