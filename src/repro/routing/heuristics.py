"""Optimistic remaining-cost heuristic (PBR pruning rule (a)).

An A*-inspired lower bound: ``h(v)`` is the minimum *possible* travel time
(in ticks) from ``v`` to the destination, a shortest-path search from the
destination over each edge's minimum histogram value.  Because no path
realisation can beat ``h``, shifting a label's distribution by ``h(v)``
(rule (c), cost shifting) yields an upper bound on the label's achievable
arrival probability that is sound for pruning against the pivot path.

Two things are built, both on the holder of the cost table's current
publication cell (:meth:`~repro.core.costs.EdgeCostTable.derived`), so
``set_cost`` / ``apply_deltas`` / ``publish`` / a topology edit drop both.
Once per cell, the **min-tick graph** (:func:`_build_min_tick_graphs`):
unbounded like the CSR and the kernel block, so
:func:`clear_heuristic_cache` keeps it.  Once per destination, one array
Dijkstra over it (:func:`min_tick_bounds`), which
:meth:`OptimisticHeuristic.shared` memoises in a bounded LRU — every anytime
sweep, workload pass and popular target would otherwise repeat it; see
PERFORMANCE.md "Heuristic cache".
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from ..core.costs import EdgeCostTable
from ..derived import Memo, clear_bounded
from ..network import RoadNetwork

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


def _build_min_tick_graphs(
    network: RoadNetwork, costs: EdgeCostTable
) -> tuple[csr_matrix, csr_matrix]:
    """The cell's min-tick graph, forward and transposed: CSR over
    :func:`vertex_indexing`, entry ``[u, v]`` = the lightest ``u -> v`` edge's
    :meth:`~repro.core.costs.EdgeCostTable.min_ticks`.

    Three traps.  COO -> CSR *sums* duplicates, so parallel edges are
    min-reduced first.  The matrix must be built sparse: there an explicit
    ``0.0`` is a zero-tick *edge*, where dense input would read it as no
    edge.  And a vertex pair with no entry stays unreachable (``inf``).
    Raises ``ValueError("negative weight on edge <id>")`` when any edge's
    minimum is negative, reached or not.
    """
    index_of = vertex_indexing(network)[1]
    edges, count = network.edges, network.num_edges
    ticks = np.fromiter((costs.min_ticks(e) for e in edges), np.float64, count)
    if count and ticks.min() < 0:
        raise ValueError(f"negative weight on edge {edges[int(np.argmax(ticks < 0))].id}")
    rows = np.fromiter((index_of[e.source] for e in edges), np.int64, count)
    cols = np.fromiter((index_of[e.target] for e in edges), np.int64, count)
    # Sorted by (row, col, ticks): the first of each run is its lightest.
    by = np.lexsort((ticks, cols, rows))
    rows, cols, ticks = rows[by], cols[by], ticks[by]
    keep = np.ones(count, dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    forward = csr_matrix((ticks[keep], (rows[keep], cols[keep])), shape=(len(index_of),) * 2)
    return forward, forward.T.tocsr()


def min_tick_bounds(
    network: RoadNetwork, costs: EdgeCostTable, vertex: int, *, forward: bool = False
) -> np.ndarray:
    """Minimum possible ticks from every vertex *to* ``vertex`` (``forward``:
    from ``vertex`` to every vertex), as a dense bound vector.

    Every lower-bound table has this one format — float64 over
    :func:`vertex_indexing`, ``inf`` = cannot reach — and this one producer:
    the per-target heuristic, both landmark directions and the workload
    generator call it.  It is one ``scipy.sparse.csgraph.dijkstra`` over the
    min-tick graph the first call per publication cell builds (single-flight,
    on the cell's holder) — forward CSR for ``forward``, its transpose
    otherwise.  Integer ticks summed in float64 are exact, so the vector is
    bit-equal to the pure-Python search in ``network/paths.py``, which stays
    as the parity reference.  ``KeyError`` for a vertex the network lacks;
    ``ValueError("negative weight on edge <id>")`` from the graph build.
    """
    source = vertex_indexing(network)[1][vertex]
    graphs = costs.derived(network).get(
        "min_tick_graphs", lambda: _build_min_tick_graphs(network, costs)
    )
    return csgraph.dijkstra(graphs[0 if forward else 1], directed=True, indices=source)


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
