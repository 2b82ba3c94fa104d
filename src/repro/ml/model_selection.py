"""Dataset splitting: k-fold cross-validation indices."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["kfold_indices"]


def kfold_indices(
    n: int, *, folds: int = 5, seed: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, validation_idx)`` for each of ``folds`` folds."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError(f"cannot split {n} samples into {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    start = 0
    for size in sizes:
        validation = order[start : start + size]
        train = np.concatenate([order[:start], order[start + size :]])
        yield train, validation
        start += size
