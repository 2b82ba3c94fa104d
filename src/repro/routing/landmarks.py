"""ALT landmark lower bounds for the columnar search core.

The per-target :class:`~repro.routing.heuristics.OptimisticHeuristic` is an
exact lower bound, but each new destination pays a full reverse Dijkstra.
A :class:`LandmarkTable` instead precomputes forward and reverse shortest
distances (over minimum possible edge ticks) for ``k`` landmark vertices
**once per cost-table version**, after which the triangle inequality yields
an admissible lower bound on ``dist(v, t)`` for *any* target ``t`` with no
per-target graph search at all::

    dist(v, t) >= dist(v, L) - dist(t, L)      (landmark behind the target)
    dist(v, t) >= dist(L, t) - dist(L, v)      (landmark behind the source)

Both right-hand sides are maximised over the ``k`` landmarks and clamped at
zero.  The bounds are weaker than the exact heuristic (so the search prunes
less) but every pruning that uses them stays sound, and the answer is
unchanged.  Infinite bounds are genuine unreachability proofs: if ``t``
reaches ``L`` but ``v`` does not, then ``v`` cannot reach ``t``.

Landmarks are selected by deterministic farthest-point traversal seeded at
the smallest vertex id (ties broken towards smaller ids), so two processes
building the table for one network agree exactly.  Tables are shared through
the same per-version bounded memo as the optimistic heuristic
(:func:`~repro.routing.heuristics.shared_versioned`) under the slot
``("landmarks", k)``, and their rows are the same dense bound vectors
(:func:`~repro.routing.heuristics.min_tick_bounds`).
"""

from __future__ import annotations

import numpy as np

from ..core.costs import EdgeCostTable
from ..derived import Memo
from ..network import RoadNetwork
from .heuristics import min_tick_bounds, shared_versioned, vertex_indexing

__all__ = ["LandmarkTable", "DEFAULT_NUM_LANDMARKS"]

#: Default number of landmarks when a search enables ALT mode without a
#: count.  Memory is ``2 * k * num_vertices`` float64 cells.
DEFAULT_NUM_LANDMARKS = 8

#: Per-table cap on memoised per-target bound vectors.
_BOUNDS_CACHE_SIZE = 64


class LandmarkTable:
    """Forward/reverse landmark distances over minimum edge ticks."""

    def __init__(
        self, network: RoadNetwork, costs: EdgeCostTable, *, k: int = DEFAULT_NUM_LANDMARKS
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        order, self.index_of = vertex_indexing(network)
        if not order:
            raise ValueError("network has no vertices")
        self.vertex_order = order
        k = min(k, len(order))

        # Farthest-point selection: seed a probe Dijkstra at the smallest
        # vertex id, take the farthest finite vertex as the first landmark,
        # then repeatedly add the vertex maximising the minimum distance from
        # the chosen set.  Unreachable vertices score -1 so disconnected
        # dust never wins over a genuinely far reachable vertex; exact ties
        # resolve to the smallest vertex id (np.argmax takes the first, and
        # ``order`` is ascending).
        probe = min_tick_bounds(network, costs, order[0], forward=True)
        score = np.where(np.isfinite(probe), probe, -1.0)
        chosen: list[int] = [order[int(np.argmax(score))]]
        rows_from = [min_tick_bounds(network, costs, chosen[0], forward=True)]
        min_score = np.where(np.isfinite(rows_from[0]), rows_from[0], -1.0)
        while len(chosen) < k:
            min_score[[self.index_of[v] for v in chosen]] = -np.inf
            best = int(np.argmax(min_score))
            if not min_score[best] > 0.0:
                # Every remaining vertex is already a landmark, unreachable,
                # or at distance zero — more landmarks add no information.
                break
            vertex = order[best]
            chosen.append(vertex)
            row = min_tick_bounds(network, costs, vertex, forward=True)
            rows_from.append(row)
            np.minimum(
                min_score, np.where(np.isfinite(row), row, -1.0), out=min_score
            )
        self.landmarks = tuple(chosen)
        #: ``dist_from[l, i]``: minimum ticks landmark ``l`` -> vertex ``i``.
        self.dist_from = np.vstack(rows_from)
        #: ``dist_to[l, i]``: minimum ticks vertex ``i`` -> landmark ``l``.
        self.dist_to = np.vstack([min_tick_bounds(network, costs, v) for v in chosen])
        self._bounds = Memo(bound=lambda: _BOUNDS_CACHE_SIZE)

    @classmethod
    def shared(
        cls, network: RoadNetwork, costs: EdgeCostTable, *, k: int = DEFAULT_NUM_LANDMARKS
    ) -> "LandmarkTable":
        """A cached table for ``(network, costs, k)``.

        Shares the optimistic heuristic's per-version bounded memo (slot
        ``("landmarks", k)``), so cost-table hot-swaps drop landmark tables
        through the same mechanism as per-target heuristics.
        """
        return shared_versioned(
            network,
            costs,
            ("landmarks", k),
            lambda: cls(network, costs, k=k),
        )

    def bounds_to(self, target: int) -> np.ndarray:
        """Admissible lower bounds (ticks) from every vertex to ``target``.

        Returns a dense float64 vector indexed like ``vertex_order``;
        ``np.inf`` entries are *proofs* that the vertex cannot reach the
        target.  Vectors are memoised per target (bounded LRU) — repeated
        queries to one destination pay the triangle-inequality pass once.
        """
        return self._bounds.get(target, lambda: self._bounds_to(target))

    def _bounds_to(self, target: int) -> np.ndarray:
        ti = self.index_of[target]
        to_target = self.dist_to[:, ti : ti + 1]  # dist(t, L), (k, 1)
        from_target = self.dist_from[:, ti : ti + 1]  # dist(L, t), (k, 1)
        # dist(v, t) >= dist(v, L) - dist(t, L); a landmark the target cannot
        # reach says nothing through this form.  When it holds, an infinite
        # dist(v, L) is a real proof: v -> t -> L would otherwise exist.
        with np.errstate(invalid="ignore"):  # masked inf - inf cells
            behind_target = np.where(
                np.isfinite(to_target), self.dist_to - to_target, -np.inf
            )
            # dist(v, t) >= dist(L, t) - dist(L, v); a landmark that cannot
            # reach v says nothing, while dist(L, t) = inf with finite
            # dist(L, v) proves v cannot reach t (else L -> v -> t).
            behind_source = np.where(
                np.isfinite(self.dist_from), from_target - self.dist_from, -np.inf
            )
        bounds = np.maximum(
            behind_target.max(axis=0), behind_source.max(axis=0)
        )
        np.maximum(bounds, 0.0, out=bounds)
        bounds.flags.writeable = False
        return bounds
