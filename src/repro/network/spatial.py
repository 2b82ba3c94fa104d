"""Spatial helpers: geodesic distance and a uniform grid index.

The grid index answers the map matcher's candidate queries (edges near a GPS
point) without an external spatial library.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

from .graph import RoadNetwork
from .types import Edge

__all__ = ["haversine_m", "project_equirectangular", "GridIndex", "point_segment_distance"]

_EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS84 points, in metres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(a))


def project_equirectangular(
    lat: float, lon: float, *, lat0: float, lon0: float
) -> tuple[float, float]:
    """Project WGS84 onto local planar metres around ``(lat0, lon0)``.

    Adequate at the country scale of the paper's Danish network (error well
    under the GPS noise floor for Denmark's latitude span).
    """
    x = math.radians(lon - lon0) * _EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = math.radians(lat - lat0) * _EARTH_RADIUS_M
    return x, y


def point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Euclidean distance from point ``(px, py)`` to segment ``(a, b)``."""
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class GridIndex:
    """Uniform-grid spatial index over a road network's edges.

    ``cell_size`` should be on the order of the typical query radius; lookups
    scan the rings of cells the radius covers, so the index is correct for any
    cell size and merely slower when mis-sized.
    """

    def __init__(self, network: RoadNetwork, *, cell_size: float = 500.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._network = network
        self._cell_size = float(cell_size)
        self._edge_cells: dict[tuple[int, int], list[Edge]] = defaultdict(list)
        for edge in network.edges:
            for cell in self._cells_of_edge(edge):
                self._edge_cells[cell].append(edge)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self._cell_size)), int(math.floor(y / self._cell_size)))

    def _cells_of_edge(self, edge: Edge) -> Iterable[tuple[int, int]]:
        a = self._network.vertex(edge.source)
        b = self._network.vertex(edge.target)
        ca, cb = self._cell_of(a.x, a.y), self._cell_of(b.x, b.y)
        for cx in range(min(ca[0], cb[0]), max(ca[0], cb[0]) + 1):
            for cy in range(min(ca[1], cb[1]), max(ca[1], cb[1]) + 1):
                yield (cx, cy)

    def _ring(self, center: tuple[int, int], radius: int) -> Iterable[tuple[int, int]]:
        cx, cy = center
        if radius == 0:
            yield (cx, cy)
            return
        for dx in range(-radius, radius + 1):
            yield (cx + dx, cy - radius)
            yield (cx + dx, cy + radius)
        for dy in range(-radius + 1, radius):
            yield (cx - radius, cy + dy)
            yield (cx + radius, cy + dy)

    def edges_within(self, x: float, y: float, radius: float) -> list[tuple[Edge, float]]:
        """Edges whose segment lies within ``radius`` metres of ``(x, y)``.

        Returns ``(edge, distance)`` pairs sorted by distance — the candidate
        set for map matching.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        rings = int(math.ceil(radius / self._cell_size)) + 1
        center = self._cell_of(x, y)
        seen: set[int] = set()
        hits: list[tuple[Edge, float]] = []
        for r in range(rings + 1):
            for cell in self._ring(center, r):
                for edge in self._edge_cells.get(cell, ()):
                    if edge.id in seen:
                        continue
                    seen.add(edge.id)
                    a = self._network.vertex(edge.source)
                    b = self._network.vertex(edge.target)
                    dist = point_segment_distance(x, y, a.x, a.y, b.x, b.y)
                    if dist <= radius:
                        hits.append((edge, dist))
        hits.sort(key=lambda pair: pair[1])
        return hits
