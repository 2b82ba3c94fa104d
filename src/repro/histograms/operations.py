"""Compound operations on travel-time distributions.

Helpers shared by the traffic simulator (mixtures over latent congestion
states), the estimation model (projecting predictions onto bounded supports),
the columnar search core (batched window convolution) and the experiment
harness.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distribution import DiscreteDistribution, _MASS_EPSILON

__all__ = [
    "mixture",
    "scale_values",
    "project_onto_window",
    "from_delay_profile",
    "from_delay_profiles",
    "delay_profile",
    "shape_profile",
    "batched_window_convolve",
    "trim_window_rows",
]


def batched_window_convolve(
    parents: np.ndarray,
    kernel_offsets: np.ndarray,
    kernel_probs: np.ndarray,
    kernel_totals: np.ndarray,
) -> np.ndarray:
    """Row-wise convolution of label rows with edge kernels, folded in-window.

    ``parents`` is an ``(n, width)`` block of dense pmf rows on the absolute
    tick grid ``[0, width)`` whose last cell is the fold cell (all mass at
    ticks ``>= width - 1``, see :meth:`DiscreteDistribution.window_row`).
    Kernel ``i`` is the pmf ``kernel_probs[i]`` starting at tick
    ``kernel_offsets[i]`` with total mass ``kernel_totals[i]``.  Returns the
    ``(n, width)`` block of child rows, each the linear convolution
    ``parent[i] * kernel[i]`` with everything at or beyond the fold cell
    folded back into it.

    The head columns (``t < width - 1``) are exact: a parent's fold cell only
    ever contributes at or beyond the fold cell, so the fold never leaks mass
    below the budget boundary.  The fold cell itself is reconstructed by mass
    conservation (``total - head``), which keeps each row's sum exactly
    ``parent_mass * kernel_mass``.

    Rows are sorted by offset (stably) and each equal-offset run is one
    contiguous slice, so a batch of same-offset kernels (the common case: one
    road category) costs one strided multiply-add per support cell however
    many rows it holds, and a call pays one gather and one scatter in all; a
    one-row call skips the sort.  Every output cell receives its products in
    ascending support order starting from ``0.0``, whatever the batch.
    """
    n, width = parents.shape
    if n > 1:
        order = np.argsort(kernel_offsets, kind="stable")
        offsets = kernel_offsets[order]
        block, probs = parents[order], kernel_probs[order]
        runs = [0, *(np.flatnonzero(offsets[1:] != offsets[:-1]) + 1).tolist(), n]
    else:
        offsets, block, probs, runs = kernel_offsets, parents, kernel_probs, [0, n]
    acc = np.zeros((n, width), dtype=np.float64)
    for a, b in zip(runs, runs[1:]):
        if a == b:  # the one empty run of a (0, width) block
            continue
        off = int(offsets[a])
        # Support cells at or past the fold cell only ever feed the fold cell,
        # which is rebuilt below from mass conservation; all-zero cells are
        # skipped (the shared kernel block pads every support to the longest).
        live = probs[a:b, : max(width - 1 - off, 0)].any(axis=0).tolist()
        for s, nonzero in enumerate(live):
            if nonzero:
                t = off + s
                acc[a:b, t:] += probs[a:b, s, None] * block[a:b, : width - t]
    if n > 1:
        out = np.empty_like(acc)
        out[order] = acc
    else:
        out = acc
    totals = parents.sum(axis=1) * kernel_totals
    head = out[:, : width - 1].sum(axis=1)
    np.maximum(totals - head, 0.0, out=totals)
    out[:, width - 1] = totals
    return out


def trim_window_rows(rows: np.ndarray) -> np.ndarray:
    """Zero each row's leading/trailing runs of negligible mass, in place.

    Mirrors the support trimming of the scalar core's
    :meth:`DiscreteDistribution._trusted` constructor on dense window rows:
    cells of at most ``_MASS_EPSILON`` at either end of a row's support are
    dropped (set to exactly zero), so repeated convolutions do not accumulate
    sub-epsilon dust that would drift the columnar core away from the scalar
    core's probabilities.  Interior near-zero cells are kept, exactly as the
    scalar trim keeps them: each row keeps the span from its first to its
    last cell above ``_MASS_EPSILON`` and is zeroed outside it (a row with no
    such cell is zeroed whole).
    """
    n, width = rows.shape
    if n == 1:
        # The descent's one-row case: two slice writes, no mask.
        big = np.flatnonzero(rows[0] > _MASS_EPSILON)
        first, stop = (int(big[0]), int(big[-1]) + 1) if big.size else (width, width)
        rows[0, :first] = 0.0
        rows[0, stop:] = 0.0
        return rows
    big = rows > _MASS_EPSILON
    first = np.where(big.any(axis=1), big.argmax(axis=1), width)[:, None]
    stop = width - big[:, ::-1].argmax(axis=1)[:, None]
    cols = np.arange(width)
    rows[(cols < first) | (cols >= stop)] = 0.0
    return rows


def mixture(
    components: Sequence[DiscreteDistribution],
    weights: Sequence[float],
) -> DiscreteDistribution:
    """Weighted mixture of distributions.

    The traffic ground truth is a mixture over latent congestion states:
    ``P(t) = sum_s pi(s) * P(t | s)``.
    """
    if len(components) == 0:
        raise ValueError("mixture needs at least one component")
    if len(components) != len(weights):
        raise ValueError("components and weights must have equal length")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("mixture weights must be non-negative")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("mixture weights must have positive sum")
    w = w / total
    lo = min(c.min_value for c in components)
    hi = max(c.max_value for c in components)
    probs = np.zeros(hi - lo + 1, dtype=np.float64)
    for component, weight in zip(components, w):
        if weight == 0.0:
            continue
        start = component.min_value - lo
        probs[start : start + component.support_size] += weight * component.probs
    return DiscreteDistribution._trusted(lo, probs)


def scale_values(dist: DiscreteDistribution, factor: float) -> DiscreteDistribution:
    """Multiply the travel-time axis by ``factor``, rounding to the grid.

    Used to derive congested-state distributions from free-flow ones (e.g.
    heavy congestion doubling each travel time).  Mass that lands on the same
    tick after rounding is merged.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    mapping: dict[int, float] = {}
    for tick, p in dist:
        scaled = int(round(tick * factor))
        mapping[scaled] = mapping.get(scaled, 0.0) + p
    return DiscreteDistribution.from_mapping(mapping)


def project_onto_window(probs: np.ndarray, offset: int) -> DiscreteDistribution:
    """Build a distribution from a raw (possibly unnormalised) bin vector.

    The estimation model's softmax head outputs a probability vector over a
    fixed window of delay bins; this helper turns it into a distribution
    anchored at ``offset`` while guarding against degenerate all-zero output.
    """
    arr = np.asarray(probs, dtype=np.float64)
    arr = np.clip(arr, 0.0, None)
    if float(arr.sum()) <= 0.0:
        # Degenerate prediction: fall back to a point mass at the window start.
        arr = np.zeros_like(arr)
        if arr.size == 0:
            arr = np.ones(1)
        else:
            arr[0] = 1.0
    return DiscreteDistribution(offset, arr)


def delay_profile(
    dist: DiscreteDistribution, *, num_bins: int
) -> np.ndarray:
    """Express ``dist`` as a fixed-length vector of delay-beyond-minimum bins.

    Bin ``i`` holds ``P(X = min + i)`` for ``i < num_bins - 1``; the final bin
    accumulates the entire remaining tail.  This is the target representation
    the distribution-estimation model is trained on: it removes the absolute
    offset (which varies per edge pair) and leaves only the *shape*.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    out = np.zeros(num_bins, dtype=np.float64)
    probs = dist.probs
    head = min(probs.size, num_bins - 1) if num_bins > 1 else 0
    out[:head] = probs[:head]
    out[-1] += float(probs[head:].sum()) if head < probs.size else 0.0
    if num_bins == 1:
        out[0] = 1.0
    return out


def from_delay_profile(profile: np.ndarray, offset: int) -> DiscreteDistribution:
    """Inverse of :func:`delay_profile`: re-anchor a shape vector at ``offset``."""
    return from_delay_profiles([profile], [offset])[0]


def from_delay_profiles(
    profiles: Sequence[np.ndarray], offsets: Sequence[int]
) -> list[DiscreteDistribution]:
    """``project_onto_window(profiles[i], offsets[i])`` for each row, bit for
    bit: rows of one length are clipped and summed as one block, then each
    gets that path's checks and decisions from its own total, and its own
    array, so a surviving distribution never pins the block."""
    out: list[DiscreteDistribution] = [None] * len(profiles)  # type: ignore[list-item]
    groups: dict[int, list[int]] = {}
    for i, profile in enumerate(profiles):
        groups.setdefault(len(profile), []).append(i)
    for size, rows in groups.items():
        block = np.array([profiles[i] for i in rows], dtype=np.float64)
        if size == 0:
            block = np.zeros((len(rows), 1))
        np.maximum(block, 0.0, out=block)  # clip: NaN stays, -0.0 becomes 0.0
        for i, row, total in zip(rows, block, block.sum(axis=1).tolist()):
            if not math.isfinite(total) and not np.isfinite(row).all():
                raise ValueError("probabilities must be finite")
            if total <= 0.0:
                row[0] = 1.0  # every cell is zero: a point mass at the window start
            elif not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
                row /= total
            out[i] = DiscreteDistribution._trusted(int(offsets[i]), row.copy())
    return out


def shape_profile(dist: DiscreteDistribution, *, num_bins: int) -> tuple[np.ndarray, int]:
    """Scale-invariant shape descriptor: mass per equal-width support chunk.

    The support ``[min, max]`` is divided into ``num_bins`` chunks of
    ``width = ceil(support / num_bins)`` ticks; the returned vector holds the
    mass of each chunk and always sums to 1.  Unlike :func:`delay_profile`
    this never saturates on wide distributions (the chunk width grows
    instead), which is what lets a model trained on short pre-paths read the
    shape of a long virtual edge.

    Returns ``(profile, width)``; ``width`` is a useful scale feature.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    support = dist.support_size
    width = max(1, -(-support // num_bins))  # ceil division
    out = np.zeros(num_bins, dtype=np.float64)
    # width = ceil(support / num_bins) guarantees at most num_bins chunks, so
    # every chunk maps to its own output bin and one segmented reduction
    # replaces the per-chunk Python loop.
    starts = np.arange(0, support, width)
    out[: starts.size] = np.add.reduceat(dist.probs, starts)
    return out, width
