"""First-order stochastic dominance for travel-time distributions.

Stochastic dominance is pruning rule (d) of the paper's probabilistic budget
routing algorithm: if two search labels reach the same vertex and one label's
cost distribution stochastically dominates the other's, the dominated label
can never become part of a better answer for *any* remaining budget and is
discarded.

For travel times, *smaller is better*, so distribution ``P`` dominates ``Q``
when ``P`` is at least as likely to be under every deadline::

    forall t:  P(X <= t) >= Q(Y <= t)

with strict inequality somewhere (otherwise the two are equal and either may
be kept).

Hot-path design (see PERFORMANCE.md)
------------------------------------
Dominance checks are the inner loop of the PBR search, so this module never
materialises zero-padded aligned vectors.  Pairwise checks compare slices of
each distribution's cached CDF (:meth:`DiscreteDistribution.cdf`) directly —
CDFs are monotone, so everything outside the support overlap reduces to O(1)
scalar comparisons against the plateau values.  :class:`ParetoFrontier`
additionally keeps all residents' CDFs in one padded 2-D matrix per vertex,
turning membership and eviction into single broadcast comparisons.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .distribution import DiscreteDistribution

__all__ = [
    "DOMINANCE_TOL",
    "cdf_dominance_matrix",
    "dominates",
    "weakly_dominates",
    "ParetoFrontier",
]

_TOL = 1e-12

#: The dominance comparison tolerance, exported for the columnar search core
#: so its matrix screens use the exact same epsilon as :func:`weakly_dominates`
#: and :class:`ParetoFrontier`.
DOMINANCE_TOL = _TOL

#: Upper bound on the broadcast buffer of one :func:`cdf_dominance_matrix`
#: chunk, in float64 cells (``chunk_rows * b.size``).
_MATRIX_CHUNK_CELLS = 1 << 22


def cdf_dominance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise weak-dominance matrix between two blocks of CDF rows.

    ``a`` is ``(n, width)`` and ``b`` is ``(m, width)``, both CDFs evaluated
    on one shared tick grid whose last column is each distribution's plateau
    (total mass).  Returns a boolean ``(n, m)`` matrix where ``out[i, j]`` is
    true when row ``a[i]`` weakly dominates row ``b[j]`` — i.e.
    ``a[i] >= b[j] - DOMINANCE_TOL`` at every grid column.  For
    distributions whose support lies inside the grid this is exactly
    :func:`weakly_dominates` (beyond the grid both CDFs sit at their
    plateaus, which the last column compares).

    Leading batch axes are allowed and must agree: ``(..., n, width)``
    against ``(..., m, width)`` gives ``(..., n, m)``, one matrix per batch
    entry — the columnar core screens a chunk's vertex groups in one call.
    The broadcast work is chunked over rows of ``a`` so the intermediate
    ``(..., chunk, m, width)`` buffer stays small.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (
        a.ndim < 2
        or a.ndim != b.ndim
        or a.shape[:-2] != b.shape[:-2]
        or a.shape[-1] != b.shape[-1]
    ):
        raise ValueError(
            f"expected CDF blocks on one grid, got {a.shape} and {b.shape}"
        )
    n, m = a.shape[-2], b.shape[-2]
    out = np.empty((*a.shape[:-2], n, m), dtype=bool)
    step = max(1, _MATRIX_CHUNK_CELLS // max(1, b.size))
    shifted = (b - _TOL)[..., None, :, :]
    for start in range(0, n, step):
        block = a[..., start : start + step, None, :]
        np.logical_and.reduce(
            block >= shifted, axis=-1, out=out[..., start : start + step, :]
        )
    return out


def weakly_dominates(p: DiscreteDistribution, q: DiscreteDistribution) -> bool:
    """True when ``P(X <= t) >= Q(Y <= t)`` for every tick ``t``.

    Weak dominance admits equality everywhere; it is the test used for
    pruning because discarding an exact duplicate label is also sound.
    """
    # Support-bound necessary/sufficient conditions.  ``p`` entirely at or
    # below ``q``'s minimum dominates outright (this also covers the
    # equal-point-mass case); ``p`` starting later than ``q`` cannot, because
    # at ``t = q.min`` we would need ``0 >= q.probs[0] - tol`` and trimmed
    # distributions keep only cells above the tolerance.
    if p.max_value <= q.min_value:
        return True
    if p.min_value > q.min_value:
        return False
    pc = p.cdf()
    qc = q.cdf()
    # Both CDFs over the ticks [q.min, p.max] (nonempty: p.max > q.min).
    # Below q.min:  F_q = 0 <= F_p.  Above p.max: F_p is at its plateau and
    # F_q is monotone, so one scalar comparison settles the whole tail.
    pseg = pc[q.min_value - p.min_value :]
    overlap = min(pseg.size, qc.size)
    if not np.all(pseg[:overlap] >= qc[:overlap] - _TOL):
        return False
    if pseg.size < qc.size:
        # Ticks (p.max, q.max]: F_p == plateau, F_q peaks at its own plateau.
        return bool(pc[-1] >= qc[-1] - _TOL)
    if pseg.size > qc.size:
        # Ticks (q.max, p.max]: F_q == plateau, F_p is smallest at the first.
        return bool(pseg[qc.size] >= qc[-1] - _TOL)
    return True


def _strictly_better_somewhere(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> bool:
    """``exists t: P(X <= t) > Q(Y <= t) + tol``, assuming ``p`` weakly dominates ``q``.

    Weak dominance forces ``p.min <= q.min``; when ``p`` starts strictly
    earlier its CDF is already positive where ``q``'s is still zero, so only
    the equal-minimum case needs an array comparison — on grids that then
    share their origin, with plateau tails handled by scalar checks.
    """
    if p.min_value < q.min_value:
        return True
    pc = p.cdf()
    qc = q.cdf()
    overlap = min(pc.size, qc.size)
    if np.any(pc[:overlap] > qc[:overlap] + _TOL):
        return True
    if pc.size < qc.size:
        # Ticks (p.max, q.max]: F_p == plateau, F_q smallest just after q.max.
        return bool(pc[-1] > qc[pc.size] + _TOL)
    if pc.size > qc.size:
        # Ticks (q.max, p.max]: F_q == plateau, F_p largest at its own plateau.
        return bool(pc[-1] > qc[-1] + _TOL)
    return False


def dominates(p: DiscreteDistribution, q: DiscreteDistribution) -> bool:
    """Strict first-order dominance: weak dominance plus inequality somewhere."""
    if not weakly_dominates(p, q):
        return False
    return _strictly_better_somewhere(p, q)


class ParetoFrontier:
    """Mutable Pareto set of non-dominated distributions at a search vertex.

    The PBR search keeps one frontier per vertex; a new label is inserted only
    when no resident distribution weakly dominates it, and inserting it evicts
    every resident it dominates.

    Residents' CDFs are stored row-wise in one padded 2-D matrix spanning the
    union of their supports (zeros before each support, the distribution's
    plateau after it), so a dominance screen against *all* residents is a
    single broadcast comparison instead of pairwise alignments.  The matrix
    over-allocates rows (doubling) and grid columns (margin on growth) so the
    steady state of a search — thousands of ``add`` calls against a
    slowly-changing resident set — reallocates rarely.
    """

    __slots__ = ("_members", "_matrix", "_scratch", "_lo", "_hi")

    #: Fraction of extra grid columns allocated beyond a requested widening.
    _GRID_MARGIN = 4

    def __init__(self) -> None:
        self._members: list[DiscreteDistribution] = []
        #: Row capacity >= ``len(_members)``; rows ``[0, len(_members))`` are
        #: live, each holding that member's CDF on every tick of
        #: ``[_lo, _hi]`` (the grid may carry headroom beyond the supports).
        self._matrix: np.ndarray | None = None
        #: Reusable buffer a candidate's grid-aligned CDF is built into.
        self._scratch: np.ndarray | None = None
        self._lo = 0
        self._hi = -1

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[DiscreteDistribution]:
        return iter(self._members)

    # ------------------------------------------------------------------
    # Matrix bookkeeping
    # ------------------------------------------------------------------

    def _fill_row(self, dist: DiscreteDistribution) -> tuple[np.ndarray, bool]:
        """``dist``'s CDF over every tick of the current grid, in ``_scratch``.

        Requires ``dist.min_value >= self._lo``.  Returns ``(row, overhang)``
        where ``overhang`` is True when the support continues past the grid
        (the caller must then also compare each resident's plateau against
        ``dist``'s total mass — beyond the grid residents are flat while the
        candidate's CDF keeps rising to its own plateau).
        """
        cdf = dist.cdf()
        row = self._scratch
        width = row.size
        start = dist.min_value - self._lo
        end = start + cdf.size
        row[: min(start, width)] = 0.0
        if start < width:
            on_grid = min(end, width) - start
            row[start : start + on_grid] = cdf[:on_grid]
            if end <= width:
                row[end:] = cdf[-1]
        return row, end > width

    def _grow_grid(self, lo: int, hi: int) -> None:
        """Re-pad live rows to a wider grid covering ``[lo, hi]`` (+ margin)."""
        margin = (hi - lo + 1) // self._GRID_MARGIN
        if lo < self._lo:
            lo -= margin
        if hi > self._hi:
            hi += margin
        old = self._matrix
        count = len(self._members)
        width = hi - lo + 1
        grown = np.zeros((old.shape[0], width), dtype=np.float64)
        start = self._lo - lo
        grown[:count, start : start + old.shape[1]] = old[:count]
        # Right padding continues each resident's plateau; left padding stays
        # zero (the grid only widens, so every support is still covered).
        grown[:count, start + old.shape[1] :] = old[:count, -1:]
        self._matrix = grown
        self._scratch = np.empty(width, dtype=np.float64)
        self._lo = lo
        self._hi = hi

    # ------------------------------------------------------------------
    # Dominance queries
    # ------------------------------------------------------------------

    def add(self, candidate: DiscreteDistribution) -> bool:
        """Try to insert ``candidate``; returns ``True`` when it was kept.

        Residents dominated by the candidate are evicted so the set stays an
        antichain under weak dominance.
        """
        if not self._members:
            self._lo = candidate.min_value
            self._hi = candidate.max_value
            width = self._hi - self._lo + 1
            self._matrix = np.zeros((4, width), dtype=np.float64)
            self._scratch = np.empty(width, dtype=np.float64)
            self._matrix[0], _ = self._fill_row(candidate)
            self._members.append(candidate)
            return True
        if candidate.min_value < self._lo or candidate.max_value > self._hi:
            self._grow_grid(
                min(self._lo, candidate.min_value),
                max(self._hi, candidate.max_value),
            )
        # The grid now covers the candidate, so there is never an overhang.
        row, _ = self._fill_row(candidate)
        count = len(self._members)
        live = self._matrix[:count]
        if bool(np.all(live >= row - _TOL, axis=1).any()):
            return False
        keep = ~np.all(row >= live - _TOL, axis=1)
        if not keep.all():
            survivors = np.flatnonzero(keep)
            self._members = [self._members[i] for i in survivors]
            count = survivors.size
            self._matrix[:count] = live[survivors]
        if count == self._matrix.shape[0]:
            self._matrix = np.concatenate(
                [self._matrix, np.zeros_like(self._matrix)], axis=0
            )
        self._matrix[count] = row
        self._members.append(candidate)
        return True
