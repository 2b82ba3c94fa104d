"""Joint travel-time distributions for consecutive edge pairs.

The core object behind the paper's motivating example: traversing two adjacent
edges has a *joint* distribution ``P(t1, t2)``; the true path cost is the
distribution of ``t1 + t2`` under that joint.  Convolution replaces the joint
with the product of its marginals — exact only under independence.  The
:class:`JointDistribution` lets us compute both, quantify how far apart they
are, and measure dependence (mutual information, chi-square),
which drives the paper's "~75 % of edge pairs are dependent" statistic.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .distribution import DiscreteDistribution

__all__ = ["JointDistribution"]

_MASS_EPSILON = 1e-12


class JointDistribution:
    """Joint distribution of two travel times on a uniform tick grid.

    Parameters
    ----------
    offset1, offset2:
        Tick index of the first row / column.
    probs:
        2-D array where ``probs[i, j]`` is the probability of
        ``(t1, t2) = (offset1 + i, offset2 + j)``.
    """

    __slots__ = ("_offset1", "_offset2", "_probs")

    def __init__(
        self,
        offset1: int,
        offset2: int,
        probs: np.ndarray,
        *,
        normalize: bool = True,
    ) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"joint probability array must be 2-D, got {arr.shape}")
        if arr.size == 0:
            raise ValueError("joint probability array must be non-empty")
        if np.any(arr < -_MASS_EPSILON):
            raise ValueError("probabilities must be non-negative")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("joint distribution must have positive mass")
        if normalize and not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            arr = arr / total
        rows = np.flatnonzero(arr.sum(axis=1) > _MASS_EPSILON)
        cols = np.flatnonzero(arr.sum(axis=0) > _MASS_EPSILON)
        arr = arr[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        self._offset1 = int(offset1) + int(rows[0])
        self._offset2 = int(offset2) + int(cols[0])
        self._probs = arr
        self._probs.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        pairs: Iterable[tuple[float, float]],
        *,
        resolution: float = 1.0,
    ) -> "JointDistribution":
        """Empirical joint from observed ``(t1, t2)`` traversal pairs."""
        data = np.asarray(list(pairs), dtype=np.float64)
        if data.size == 0:
            raise ValueError("need at least one sample pair")
        ticks = np.rint(data / float(resolution)).astype(np.int64)
        lo1, lo2 = int(ticks[:, 0].min()), int(ticks[:, 1].min())
        hi1, hi2 = int(ticks[:, 0].max()), int(ticks[:, 1].max())
        probs = np.zeros((hi1 - lo1 + 1, hi2 - lo2 + 1), dtype=np.float64)
        np.add.at(probs, (ticks[:, 0] - lo1, ticks[:, 1] - lo2), 1.0)
        return cls(lo1, lo2, probs)

    @classmethod
    def independent(
        cls, first: DiscreteDistribution, second: DiscreteDistribution
    ) -> "JointDistribution":
        """Product joint ``P(t1) * P(t2)`` — what convolution assumes."""
        probs = np.outer(first.probs, second.probs)
        return cls(first.offset, second.offset, probs, normalize=False)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def prob_at(self, t1: int, t2: int) -> float:
        """``P(t1, t2)`` for exact tick values."""
        i = int(t1) - self._offset1
        j = int(t2) - self._offset2
        if i < 0 or j < 0 or i >= self._probs.shape[0] or j >= self._probs.shape[1]:
            return 0.0
        return float(self._probs[i, j])

    # ------------------------------------------------------------------
    # Derived distributions
    # ------------------------------------------------------------------

    def marginal_first(self) -> DiscreteDistribution:
        """Marginal distribution of the first edge's travel time."""
        return DiscreteDistribution(self._offset1, self._probs.sum(axis=1), normalize=False)

    def marginal_second(self) -> DiscreteDistribution:
        """Marginal distribution of the second edge's travel time."""
        return DiscreteDistribution(self._offset2, self._probs.sum(axis=0), normalize=False)

    def total_cost(self) -> DiscreteDistribution:
        """Exact distribution of ``t1 + t2`` under the joint (the ground truth).

        This is the quantity the paper's motivating example compares against
        convolution: summing along anti-diagonals of the joint array.
        """
        n, m = self._probs.shape
        out = np.zeros(n + m - 1, dtype=np.float64)
        for i in range(n):
            out[i : i + m] += self._probs[i]
        return DiscreteDistribution(self._offset1 + self._offset2, out, normalize=False)

    def convolved_marginals(self) -> DiscreteDistribution:
        """Convolution of the marginals — the independence approximation."""
        return self.marginal_first().convolve(self.marginal_second())

    # ------------------------------------------------------------------
    # Dependence measures
    # ------------------------------------------------------------------

    def mutual_information(self) -> float:
        """Mutual information ``I(T1; T2)`` in nats (0 iff independent)."""
        p1 = self._probs.sum(axis=1)
        p2 = self._probs.sum(axis=0)
        prod = np.outer(p1, p2)
        mask = self._probs > _MASS_EPSILON
        return float(
            np.sum(self._probs[mask] * np.log(self._probs[mask] / prod[mask]))
        )

    def chi_square_statistic(self, num_samples: int) -> tuple[float, int]:
        """Pearson chi-square statistic against independence.

        Interprets the joint as an empirical table of ``num_samples``
        observations.  Returns ``(statistic, degrees_of_freedom)``; callers
        compare against ``scipy.stats.chi2`` to get a p-value.  Cells with
        zero expected count are skipped (standard practice for sparse
        contingency tables).
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        observed = self._probs * num_samples
        p1 = self._probs.sum(axis=1)
        p2 = self._probs.sum(axis=0)
        expected = np.outer(p1, p2) * num_samples
        mask = expected > _MASS_EPSILON
        stat = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = max((int(np.sum(p1 > _MASS_EPSILON)) - 1), 1) * max(
            (int(np.sum(p2 > _MASS_EPSILON)) - 1), 1
        )
        return stat, dof

    def is_independent(self, *, tol: float = 1e-9) -> bool:
        """Exact independence test: joint equals the product of marginals."""
        p1 = self._probs.sum(axis=1)
        p2 = self._probs.sum(axis=0)
        return bool(np.allclose(self._probs, np.outer(p1, p2), atol=tol, rtol=0.0))

    def __repr__(self) -> str:
        return (
            f"JointDistribution(offset1={self._offset1}, offset2={self._offset2}, "
            f"shape={self._probs.shape})"
        )
