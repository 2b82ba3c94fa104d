"""Optimistic remaining-cost heuristic (PBR pruning rule (a)).

An A*-inspired lower bound: ``h(v)`` is the minimum *possible* travel time
(in ticks) from ``v`` to the destination, computed by a reverse Dijkstra over
each edge's minimum histogram value.  Because no path realisation can beat
``h``, shifting a label's distribution by ``h(v)`` (rule (c), cost shifting)
yields an upper bound on the label's achievable arrival probability that is
sound for pruning against the pivot path.

The reverse Dijkstra is the only super-linear setup cost of a PBR query, and
repeated queries to the same destination — every anytime sweep, every
experiment workload pass, multi-user traffic to popular targets — would
otherwise rebuild it from scratch.  :meth:`OptimisticHeuristic.shared`
therefore memoises heuristics in a bounded LRU that hangs off the cost
table's current version (:meth:`~repro.core.costs.EdgeCostTable.derived`)
and is dropped with it; see PERFORMANCE.md "Heuristic cache".
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import numpy as np

from ..core.costs import EdgeCostTable
from ..derived import Memo, clear_bounded
from ..histograms import DiscreteDistribution
from ..network import RoadNetwork
from ..network.paths import dijkstra, reverse_dijkstra

__all__ = [
    "OptimisticHeuristic",
    "clear_heuristic_cache",
    "shared_versioned",
    "HEURISTIC_CACHE_SIZE",
]

#: Maximum number of shared precomputation entries kept alive by
#: :func:`shared_versioned` *per cost-table version* (per-destination
#: heuristics and per-k landmark tables count against the same budget).
HEURISTIC_CACHE_SIZE = 128


def clear_heuristic_cache() -> None:
    """Drop every shared lower-bound precomputation in the process (tests
    and long-lived servers); CSR arrays and kernel blocks stay."""
    clear_bounded()


def _lower_bounds_memo() -> Memo:
    return Memo(bound=lambda: HEURISTIC_CACHE_SIZE)  # read at every insert


def shared_versioned(
    network: RoadNetwork,
    costs: EdgeCostTable,
    slot: Hashable,
    build: Callable[[], Any],
) -> Any:
    """Fetch-or-build one entry of ``costs``'s bounded lower-bound memo.

    The memo belongs to the table's current version as searched over
    ``network`` (:meth:`EdgeCostTable.derived`), so topology edits and
    histogram publications (``set_cost`` / ``apply_deltas`` / ``publish``)
    miss onto a fresh build and strand nothing: the previous version's
    entries went with its memo.  ``slot`` is the target vertex for
    per-destination heuristics, or a type-discriminating tuple such as
    ``("landmarks", k)`` for tables shared across every target.  Builds are
    single-flight per slot and run outside the lock (:class:`Memo`).
    """
    return costs.derived(network).get("lower_bounds", _lower_bounds_memo).get(slot, build)


def vertex_indexing(network: RoadNetwork) -> tuple[list[int], dict[int, int]]:
    """The one dense vertex indexing: ascending vertex ids, and its inverse."""

    def build() -> tuple[list[int], dict[int, int]]:
        order = sorted(network.vertex_ids())
        return order, {v: i for i, v in enumerate(order)}

    return network.derived().get("vertex_indexing", build)


def min_tick_bounds(
    network: RoadNetwork, costs: EdgeCostTable, vertex: int, *, forward: bool = False
) -> np.ndarray:
    """Minimum possible ticks from every vertex *to* ``vertex`` (``forward``:
    from ``vertex`` to every vertex), as a dense bound vector.

    Every lower-bound table has this one format — float64 over
    :func:`vertex_indexing`, ``inf`` = cannot reach — and this one producer:
    the per-target heuristic and both landmark directions call it.
    """

    def weight(edge) -> float:
        return float(costs.min_ticks(edge))

    if forward:
        distances, _ = dijkstra(network, vertex, weight=weight)
    else:
        distances = reverse_dijkstra(network, vertex, weight=weight)
    order, index_of = vertex_indexing(network)
    bounds = np.full(len(order), np.inf)
    bounds[[index_of[v] for v in distances]] = list(distances.values())
    return bounds


class OptimisticHeuristic:
    """Per-destination vector of optimistic remaining costs (ticks)."""

    def __init__(self, network: RoadNetwork, costs: EdgeCostTable, target: int) -> None:
        self.target = target
        #: ``bounds[i]``: minimum ticks from vertex ``vertex_indexing[i]`` to
        #: the target; ``inf`` when it cannot reach it.  Read-only.
        self.bounds = min_tick_bounds(network, costs, target)
        self.bounds.flags.writeable = False
        self._order = vertex_indexing(network)[0]
        self._table: dict[int, float] | None = None

    @classmethod
    def shared(
        cls, network: RoadNetwork, costs: EdgeCostTable, target: int
    ) -> "OptimisticHeuristic":
        """A cached heuristic for ``(network, costs, target)``: one entry of
        :func:`shared_versioned`'s memo, which landmark tables share."""
        return shared_versioned(
            network, costs, target, lambda: cls(network, costs, target)
        )

    @property
    def table(self) -> dict[int, float]:
        """The ``vertex -> optimistic remaining ticks`` map of reachable vertices.

        A view of :attr:`bounds` derived on first use, for the scalar search
        loop, which wants one dictionary probe per label instead of separate
        ``reachable``/``remaining_ticks`` calls.  Treat it as read-only.
        """
        table = self._table
        if table is None:
            table = self._table = {
                v: d for v, d in zip(self._order, self.bounds.tolist()) if d != np.inf
            }
        return table

    def reachable(self, vertex_id: int) -> bool:
        """True when the destination is reachable from ``vertex_id``."""
        return vertex_id in self.table

    def remaining_ticks(self, vertex_id: int) -> int:
        """Lower bound on ticks from ``vertex_id`` to the destination.

        Raises ``KeyError`` for vertices that cannot reach the destination;
        call :meth:`reachable` first.
        """
        return int(self.table[vertex_id])

    def upper_bound_probability(
        self,
        distribution: DiscreteDistribution,
        vertex_id: int,
        budget: int,
        *,
        use_shift: bool = True,
    ) -> float:
        """Upper bound on the arrival probability of any completion.

        With cost shifting the label's distribution is translated by the
        optimistic remaining cost before evaluating the budget CDF; without
        it the bound degrades to ``P(cost so far <= budget)`` (still sound,
        strictly looser — this is what the rule-(c) ablation measures).
        """
        remaining = self.table.get(vertex_id)
        if remaining is None:
            return 0.0
        if use_shift:
            return distribution.prob_within(budget - int(remaining))
        return distribution.prob_within(budget)
