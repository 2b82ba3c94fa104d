"""Discrete travel-time distributions on a uniform time grid.

The whole reproduction represents uncertain travel times the way the paper's
road-network model does: as histograms.  Internally every histogram lives on a
uniform integer grid whose unit is a *tick* of ``resolution`` seconds.  A
distribution is a pair ``(offset, probs)`` where ``probs[i]`` is the
probability that the travel time equals ``(offset + i) * resolution`` seconds.

Keeping every distribution on the same grid makes the operations the paper
relies on exact and cheap:

* **convolution** of two distributions (independent edge combination) is a
  plain discrete convolution with offsets adding,
* **cost shifting** (pruning rule (c)) is an integer add to ``offset``,
* **stochastic dominance** (pruning rule (d)) is a CDF comparison on the
  aligned grid,
* ``P(cost <= budget)`` — the objective of probabilistic budget routing — is a
  prefix sum.

Hot-path design (see PERFORMANCE.md)
------------------------------------
Instances are immutable, which lets every distribution lazily cache its
prefix-sum: :meth:`cdf` is computed once, and :meth:`cdf_at`,
:meth:`prob_within` and :meth:`sample` become O(1)/O(log n)
array reads afterwards.  Construction has a zero-copy fast path for trusted
internal arrays (already read-only float64 with ``normalize=False``), and
:meth:`convolve` switches to an FFT above a support-size crossover.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["DiscreteDistribution"]

#: Probability mass below this threshold is treated as zero when trimming.
_MASS_EPSILON = 1e-12

#: FFT convolution pays off only when the direct O(n*m) work is large; below
#: the crossover ``np.convolve`` (exact, cache-friendly) wins.  The routing
#: search clips label supports near the budget, so typical searches stay on
#: the exact path and results are reproducible bit-for-bit.
_FFT_MIN_SIZE = 32
_FFT_MIN_WORK = 1 << 18

#: Shared, grow-only ``arange`` buffer so moments never allocate index
#: vectors; read-only views of it are handed out per support size.
_INDEX_CACHE = np.arange(256, dtype=np.float64)
_INDEX_CACHE.flags.writeable = False


def _indices(n: int) -> np.ndarray:
    """Read-only ``[0, 1, ..., n-1]`` float view from the shared buffer."""
    global _INDEX_CACHE
    cache = _INDEX_CACHE
    if cache.size < n:
        cache = np.arange(max(n, 2 * cache.size), dtype=np.float64)
        cache.flags.writeable = False
        _INDEX_CACHE = cache
    return cache[:n]


def _as_probability_array(probs: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and copy ``probs`` into a float64 numpy array."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("probability vector must be non-empty")
    if np.any(arr < -_MASS_EPSILON):
        raise ValueError("probabilities must be non-negative")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    return np.clip(arr, 0.0, None)


def _fft_convolve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Linear convolution via real FFTs (used above the size crossover)."""
    size = p.size + q.size - 1
    fft_size = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(p, fft_size) * np.fft.rfft(q, fft_size), fft_size)
    out = out[:size]
    # Round-off can leave values a few ulp below zero; clamp so the
    # constructor's trim sees a valid mass vector.
    np.clip(out, 0.0, None, out=out)
    return out


class DiscreteDistribution:
    """A probability distribution over travel times on a uniform tick grid.

    Parameters
    ----------
    offset:
        Index of the first grid cell; the smallest possible travel time is
        ``offset`` ticks.
    probs:
        Probability of each consecutive tick starting at ``offset``.  The
        vector is normalised on construction (its sum must be positive).
    normalize:
        When ``False`` the caller asserts ``probs`` already sums to one and
        normalisation is skipped (used on hot paths).

    Notes
    -----
    Instances are immutable: all operations return new distributions.  The
    probability array is copied on construction and flagged read-only.
    Internal operations that already uphold the invariants bypass the copy
    through the private :meth:`_trusted` constructor instead.
    """

    __slots__ = ("_offset", "_probs", "_cdf")

    def __init__(
        self,
        offset: int,
        probs: Sequence[float] | np.ndarray,
        *,
        normalize: bool = True,
    ) -> None:
        arr = _as_probability_array(probs)
        if normalize:
            total = float(arr.sum())
            if total <= 0.0:
                raise ValueError("probability vector must have positive mass")
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
                arr = arr / total
        # Trim leading/trailing zero mass so that support bounds are tight.
        nonzero = np.flatnonzero(arr > _MASS_EPSILON)
        if nonzero.size == 0:
            raise ValueError("probability vector must have positive mass")
        first, last = int(nonzero[0]), int(nonzero[-1])
        arr = arr[first : last + 1]
        self._offset = int(offset) + first
        self._probs = arr
        self._probs.flags.writeable = False
        self._cdf = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(cls, offset: int, arr: np.ndarray) -> "DiscreteDistribution":
        """Zero-copy constructor for internal, invariant-preserving arrays.

        Package-internal (also used by :mod:`repro.histograms.operations`).
        ``arr`` must be a fresh-or-already-frozen 1-D float64 vector with
        non-negative finite cells and unit mass; it is frozen and aliased,
        never copied, and validation is skipped entirely.  Trimming — when
        the endpoints call for it at all — slices a read-only view.
        """
        self = object.__new__(cls)
        arr.flags.writeable = False
        if arr[0] <= _MASS_EPSILON or arr[-1] <= _MASS_EPSILON:
            nonzero = np.flatnonzero(arr > _MASS_EPSILON)
            if nonzero.size == 0:
                raise ValueError("probability vector must have positive mass")
            first = int(nonzero[0])
            arr = arr[first : int(nonzero[-1]) + 1]
            offset += first
        self._offset = int(offset)
        self._probs = arr
        self._cdf = None
        return self

    @classmethod
    def point(cls, value: int) -> "DiscreteDistribution":
        """A deterministic travel time of exactly ``value`` ticks."""
        return cls._trusted(value, np.ones(1))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "DiscreteDistribution":
        """Build a distribution from ``{tick: probability}``.

        Example
        -------
        >>> d = DiscreteDistribution.from_mapping({30: 0.5, 40: 0.5})
        >>> d.mean()
        35.0
        """
        if not mapping:
            raise ValueError("mapping must be non-empty")
        ticks = sorted(int(t) for t in mapping)
        lo, hi = ticks[0], ticks[-1]
        probs = np.zeros(hi - lo + 1, dtype=np.float64)
        for tick, p in mapping.items():
            probs[int(tick) - lo] += float(p)
        return cls(lo, probs)

    @classmethod
    def from_samples(
        cls, samples: Iterable[float], *, resolution: float = 1.0
    ) -> "DiscreteDistribution":
        """Build an empirical distribution from raw travel-time samples.

        ``samples`` are given in the same unit as ``resolution`` (typically
        seconds); each sample is rounded to the nearest tick.
        """
        values = np.asarray(list(samples), dtype=np.float64)
        if values.size == 0:
            raise ValueError("need at least one sample")
        if np.any(values < 0):
            raise ValueError("travel times must be non-negative")
        ticks = np.rint(values / float(resolution)).astype(np.int64)
        lo, hi = int(ticks.min()), int(ticks.max())
        probs = np.bincount(ticks - lo, minlength=hi - lo + 1).astype(np.float64)
        return cls(lo, probs)

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "DiscreteDistribution":
        """Uniform distribution over the inclusive tick range ``[lo, hi]``."""
        if hi < lo:
            raise ValueError("hi must be >= lo")
        return cls(lo, np.full(hi - lo + 1, 1.0), normalize=True)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def offset(self) -> int:
        """Tick index of the first support cell (the minimum travel time)."""
        return self._offset

    @property
    def probs(self) -> np.ndarray:
        """Read-only probability vector aligned at :attr:`offset`."""
        return self._probs

    @property
    def support_size(self) -> int:
        """Number of grid cells between min and max support, inclusive."""
        return int(self._probs.size)

    @property
    def min_value(self) -> int:
        """Smallest travel time with positive probability (ticks)."""
        return self._offset

    @property
    def max_value(self) -> int:
        """Largest travel time with positive probability (ticks)."""
        return self._offset + self._probs.size - 1

    def __len__(self) -> int:
        return self.support_size

    def __iter__(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(tick, probability)`` pairs over the support."""
        for i, p in enumerate(self._probs):
            if p > _MASS_EPSILON:
                yield self._offset + i, float(p)

    def to_mapping(self) -> dict[int, float]:
        """Return ``{tick: probability}`` for the support."""
        return dict(self)

    def prob_at(self, tick: int) -> float:
        """Probability that the travel time equals exactly ``tick``."""
        idx = int(tick) - self._offset
        if idx < 0 or idx >= self._probs.size:
            return 0.0
        return float(self._probs[idx])

    # ------------------------------------------------------------------
    # Moments and summary statistics
    # ------------------------------------------------------------------

    def mean(self) -> float:
        """Expected travel time in ticks."""
        idx = _indices(self._probs.size)
        total = float(self.cdf()[-1])
        return self._offset * total + float(np.dot(idx, self._probs))

    def variance(self) -> float:
        """Variance of the travel time in ticks squared."""
        idx = _indices(self._probs.size)
        total = float(self.cdf()[-1])
        mu = self._offset * total + float(np.dot(idx, self._probs))
        centered = idx - (mu - self._offset)
        return float(np.dot(centered * centered, self._probs))

    def std(self) -> float:
        """Standard deviation of the travel time in ticks."""
        return math.sqrt(max(self.variance(), 0.0))

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        p = self._probs[self._probs > _MASS_EPSILON]
        return float(-np.dot(p, np.log(p)))

    # ------------------------------------------------------------------
    # CDF, quantiles and the routing objective
    # ------------------------------------------------------------------

    def cdf(self) -> np.ndarray:
        """Cumulative probabilities aligned at :attr:`offset`.

        The array is computed once per distribution, cached, and returned as
        a **read-only** view on every subsequent call; do not mutate it.
        """
        c = self._cdf
        if c is None:
            c = np.cumsum(self._probs)
            c.flags.writeable = False
            self._cdf = c
        return c

    def cdf_at(self, tick: int) -> float:
        """``P(travel time <= tick)``."""
        idx = int(tick) - self._offset
        if idx < 0:
            return 0.0
        c = self.cdf()
        if idx >= c.size:
            return 1.0
        return float(c[idx])

    def prob_within(self, budget: int) -> float:
        """``P(travel time <= budget)`` — the PBR objective for one path."""
        return self.cdf_at(budget)

    # ------------------------------------------------------------------
    # Algebraic operations
    # ------------------------------------------------------------------

    def shift(self, ticks: int) -> "DiscreteDistribution":
        """Translate the distribution by ``ticks`` (cost shifting, rule (c)).

        Shifting never changes the shape of the distribution, so pruning
        comparisons after a shift are exact.  The probability vector is
        shared, not copied.
        """
        return DiscreteDistribution._trusted(self._offset + int(ticks), self._probs)

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Distribution of the sum of two *independent* travel times.

        This is the classical path-cost combiner the paper improves on: it is
        only correct when the two edges are spatially independent.  Point
        masses degenerate to a pure shift (no array work), and supports whose
        direct-convolution cost exceeds the FFT crossover use real FFTs.
        """
        p, q = self._probs, other._probs
        n, m = p.size, q.size
        offset = self._offset + other._offset
        if m == 1 and q[0] == 1.0:
            return DiscreteDistribution._trusted(offset, p)
        if n == 1 and p[0] == 1.0:
            return DiscreteDistribution._trusted(offset, q)
        if min(n, m) >= _FFT_MIN_SIZE and n * m >= _FFT_MIN_WORK:
            out = _fft_convolve(p, q)
        else:
            out = np.convolve(p, q)
        return DiscreteDistribution._trusted(offset, out)

    def __add__(self, other: object) -> "DiscreteDistribution":
        if isinstance(other, DiscreteDistribution):
            return self.convolve(other)
        if isinstance(other, (int, np.integer)):
            return self.shift(int(other))
        return NotImplemented

    __radd__ = __add__

    def truncate(self, max_support: int) -> "DiscreteDistribution":
        """Bound the support size, folding excess tail mass into the last cell.

        Used to keep routing labels at a fixed resolution budget; folding the
        tail (rather than dropping it) keeps the distribution a valid,
        *pessimistic-at-the-tail* approximation whose total mass is exact.
        """
        if max_support < 1:
            raise ValueError("max_support must be >= 1")
        if self._probs.size <= max_support:
            return self
        head = self._probs[:max_support].copy()
        head[-1] += float(self._probs[max_support:].sum())
        return DiscreteDistribution._trusted(self._offset, head)

    def window_row(self, width: int) -> np.ndarray:
        """Dense pmf over the absolute ticks ``[0, width)``, tail folded.

        Cell ``t`` holds ``P(X == t)`` for ``t < width - 1``; the last cell
        folds all mass at ticks ``>= width - 1`` (the same
        pessimistic-at-the-tail fold as :meth:`truncate` applied on the
        absolute grid).  This is the row format of the columnar search core:
        every label and edge kernel lives on one shared ``[0, width)`` grid,
        so convolution and CDF dominance become plain matrix operations.
        """
        if width < 1:
            raise ValueError("width must be >= 1")
        if self._offset < 0:
            raise ValueError("window rows require non-negative tick supports")
        out = np.zeros(width, dtype=np.float64)
        head = width - 1 - self._offset
        if head > 0:
            n = min(head, self._probs.size)
            out[self._offset : self._offset + n] = self._probs[:n]
        total = float(self.cdf()[-1])
        out[width - 1] = max(total - float(out[: width - 1].sum()), 0.0)
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw travel-time samples (ticks) via inverse-CDF lookup.

        The cached prefix sum makes each draw a ``searchsorted`` — no
        per-call renormalisation, no value-array allocation.
        """
        c = self.cdf()
        last = c.size - 1
        total = float(c[-1])
        if size is None:
            idx = int(np.searchsorted(c, rng.random() * total, side="right"))
            return self._offset + min(idx, last)
        idx = np.searchsorted(c, rng.random(size) * total, side="right")
        np.minimum(idx, last, out=idx)
        return (self._offset + idx).astype(np.int64)

    # ------------------------------------------------------------------
    # Grid alignment and comparison
    # ------------------------------------------------------------------

    def aligned_with(
        self, other: "DiscreteDistribution"
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Express both distributions on a common grid.

        Returns ``(offset, p, q)`` where ``p`` and ``q`` have equal length
        starting at ``offset``.
        """
        lo = min(self.min_value, other.min_value)
        hi = max(self.max_value, other.max_value)
        size = hi - lo + 1
        p = np.zeros(size, dtype=np.float64)
        q = np.zeros(size, dtype=np.float64)
        p[self._offset - lo : self._offset - lo + self._probs.size] = self._probs
        q[other._offset - lo : other._offset - lo + other._probs.size] = other._probs
        return lo, p, q

    def allclose(self, other: "DiscreteDistribution", *, atol: float = 1e-9) -> bool:
        """True when the two distributions agree up to ``atol`` per cell."""
        _, p, q = self.aligned_with(other)
        return bool(np.allclose(p, q, atol=atol, rtol=0.0))

    def to_payload(self) -> dict:
        """The JSON-ready ``{offset, probs}`` form every wire document embeds."""
        return {"offset": self.offset, "probs": [float(p) for p in self.probs]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.allclose(other, atol=1e-12)

    def __hash__(self) -> int:  # pragma: no cover - defensive
        return hash((self._offset, self._probs.tobytes()))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{t}: {p:.3f}" for t, p in list(self)[:6])
        suffix = ", ..." if self.support_size > 6 else ""
        return f"DiscreteDistribution({{{pairs}{suffix}}})"
