"""Deterministic shortest paths on road networks.

Plain Dijkstra over a caller-supplied edge weight.  Three consumers:

* the trip generator routes synthetic vehicles along fastest free-flow paths,
* the PBR optimistic heuristic (pruning rule (a)) is a *reverse* Dijkstra
  from the destination over minimum possible travel times,
* the workload generator measures network distances for the paper's
  [0,1) / [1,5) / [5,10) km query bands.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Mapping

from .graph import RoadNetwork
from .types import Edge

__all__ = [
    "dijkstra",
    "reverse_dijkstra",
    "shortest_path",
    "reconstruct_path",
    "free_flow_weight",
]

WeightFn = Callable[[Edge], float]


def free_flow_weight(edge: Edge) -> float:
    """Free-flow traversal time in seconds."""
    return edge.free_flow_time


def dijkstra(
    network: RoadNetwork,
    source: int,
    *,
    weight: WeightFn = free_flow_weight,
    targets: set[int] | None = None,
) -> tuple[dict[int, float], dict[int, Edge]]:
    """Single-source shortest distances over out-edges.

    Returns ``(dist, parent_edge)``; ``parent_edge[v]`` is the edge entering
    ``v`` on the shortest path.  When ``targets`` is given the search stops
    once all of them are settled.
    """
    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, Edge] = {}
    remaining = set(targets) if targets else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for edge in network.out_edges(u):
            w = weight(edge)
            if w < 0:
                raise ValueError(f"negative weight on edge {edge.id}")
            nd = d + w
            if nd < dist.get(edge.target, math.inf):
                dist[edge.target] = nd
                parent[edge.target] = edge
                heapq.heappush(heap, (nd, edge.target))
    return dist, parent


def reverse_dijkstra(
    network: RoadNetwork,
    target: int,
    *,
    weight: WeightFn = free_flow_weight,
) -> dict[int, float]:
    """Distance *to* ``target`` from every reachable vertex (over in-edges).

    This is the optimistic remaining-cost table of PBR pruning rule (a): run
    with ``weight`` = minimum possible travel time, ``h[v]`` lower-bounds the
    cost of any ``v``-to-``target`` path.
    """
    dist: dict[int, float] = {target: 0.0}
    heap: list[tuple[float, int]] = [(0.0, target)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for edge in network.in_edges(u):
            w = weight(edge)
            if w < 0:
                raise ValueError(f"negative weight on edge {edge.id}")
            nd = d + w
            if nd < dist.get(edge.source, math.inf):
                dist[edge.source] = nd
                heapq.heappush(heap, (nd, edge.source))
    return dist


def reconstruct_path(
    parent: Mapping[int, Edge], source: int, target: int
) -> list[Edge]:
    """Rebuild the edge path from a ``parent_edge`` map.

    Raises ``ValueError`` when ``target`` was not reached.
    """
    if source == target:
        return []
    edges: list[Edge] = []
    current = target
    while current != source:
        edge = parent.get(current)
        if edge is None:
            raise ValueError(f"vertex {target} not reachable from {source}")
        edges.append(edge)
        current = edge.source
    edges.reverse()
    return edges


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    weight: WeightFn = free_flow_weight,
) -> list[Edge]:
    """Shortest edge path from ``source`` to ``target`` under ``weight``."""
    _, parent = dijkstra(network, source, weight=weight, targets={target})
    return reconstruct_path(parent, source, target)
