"""Baseline routing algorithms.

* :func:`expected_time_path` — the introduction's strawman: deterministic
  shortest path over *average* travel times (the policy that picks P2 and
  risks missing the flight).
* :func:`exhaustive_best_path` — brute-force enumeration of all simple paths,
  the optimality oracle the PBR correctness tests compare against (small
  graphs only).
"""

from __future__ import annotations

from ..core.models import CostCombiner
from ..core.path_cost import path_cost
from ..network import Edge, RoadNetwork
from ..network.paths import dijkstra, reconstruct_path
from .query import RoutingQuery, RoutingResult, SearchStats

__all__ = ["expected_time_path", "exhaustive_best_path", "all_simple_paths"]


def expected_time_path(
    network: RoadNetwork, combiner: CostCombiner, query: RoutingQuery
) -> RoutingResult:
    """Shortest path by expected travel time, evaluated under the combiner.

    This is "routing on averages": it ignores spread entirely, so on
    risk-sensitive queries it returns paths with lower mean but worse
    on-time probability.
    """
    dist_map, parent = dijkstra(
        network,
        query.source,
        weight=lambda edge: combiner.edge_cost(edge).mean(),
        targets={query.target},
    )
    stats = SearchStats()
    if query.target not in dist_map:
        return RoutingResult(query, (), None, 0.0, stats)
    path = tuple(reconstruct_path(parent, query.source, query.target))
    distribution = path_cost(combiner, path)
    return RoutingResult(
        query, path, distribution, distribution.prob_within(query.budget), stats
    )


def all_simple_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    max_edges: int = 12,
    max_paths: int = 100_000,
) -> list[list[Edge]]:
    """Every simple edge path from ``source`` to ``target`` (DFS).

    Guard rails: paths longer than ``max_edges`` are cut off, and exceeding
    ``max_paths`` raises — this helper exists for oracle tests on small
    graphs, not for production routing.
    """
    paths: list[list[Edge]] = []
    stack: list[Edge] = []
    visited = {source}

    def dfs(vertex: int) -> None:
        if len(paths) > max_paths:
            raise RuntimeError(f"more than {max_paths} simple paths; graph too large")
        if vertex == target:
            paths.append(list(stack))
            return
        if len(stack) >= max_edges:
            return
        for edge in network.out_edges(vertex):
            if edge.target in visited:
                continue
            visited.add(edge.target)
            stack.append(edge)
            dfs(edge.target)
            stack.pop()
            visited.discard(edge.target)

    dfs(source)
    return paths


def exhaustive_best_path(
    network: RoadNetwork,
    combiner: CostCombiner,
    query: RoutingQuery,
    *,
    max_edges: int = 12,
) -> RoutingResult:
    """Oracle: evaluate every simple path and return the most probable one.

    Ties on probability are broken towards fewer edges, then lexicographic
    edge ids, so results are deterministic and comparable across runs.
    """
    best_path: list[Edge] | None = None
    best_probability = -1.0
    best_distribution = None
    paths = all_simple_paths(network, query.source, query.target, max_edges=max_edges)
    stats = SearchStats(labels_generated=len(paths))
    for path in sorted(paths, key=lambda p: (len(p), [e.id for e in p])):
        distribution = path_cost(combiner, path)
        probability = distribution.prob_within(query.budget)
        if probability > best_probability + 1e-12:
            best_path = path
            best_probability = probability
            best_distribution = distribution
    if best_path is None:
        return RoutingResult(query, (), None, 0.0, stats)
    return RoutingResult(
        query, tuple(best_path), best_distribution, best_probability, stats
    )
