"""Synthetic road-network generators.

The paper's experiments run on the Danish road network (667,950 vertices,
1,647,724 edges, OpenStreetMap).  Without the OSM extract we generate
deterministic synthetic networks that reproduce the structural properties the
experiments depend on: a hierarchy of road categories (fast sparse motorways
over dense slow residential streets), realistic intersection degrees, and
enough spatial extent to pose queries in the paper's [0,1), [1,5) and
[5,10) km distance bands.

All generators take an explicit seed and are reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .categories import RoadCategory
from .graph import RoadNetwork

__all__ = [
    "grid_network",
    "denmark_like_network",
    "two_edge_network",
    "diamond_network",
]


def _category_for_grid_line(index: int) -> RoadCategory:
    """Assign a road class to a grid row/column, arterials every 4th line."""
    if index % 8 == 0:
        return RoadCategory.PRIMARY
    if index % 4 == 0:
        return RoadCategory.SECONDARY
    return RoadCategory.RESIDENTIAL


def grid_network(
    rows: int,
    cols: int,
    *,
    spacing: float = 250.0,
    bidirectional: bool = True,
    jitter: float = 0.0,
    seed: int = 0,
) -> RoadNetwork:
    """A ``rows x cols`` Manhattan grid with an arterial hierarchy.

    Every 4th line is a secondary road and every 8th a primary, mimicking a
    city street hierarchy.  ``jitter`` perturbs vertex coordinates (fraction
    of ``spacing``) to avoid degenerate symmetric geometry.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 vertices")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    rng = np.random.default_rng(seed)
    network = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            x = c * spacing
            y = r * spacing
            if jitter > 0:
                x += float(rng.uniform(-jitter, jitter)) * spacing
                y += float(rng.uniform(-jitter, jitter)) * spacing
            network.add_vertex(r * cols + c, x, y)

    def connect(u: int, v: int, category: RoadCategory) -> None:
        network.add_edge(u, v, category=category)
        if bidirectional:
            network.add_edge(v, u, category=category)

    for r in range(rows):
        category = _category_for_grid_line(r)
        for c in range(cols - 1):
            connect(r * cols + c, r * cols + c + 1, category)
    for c in range(cols):
        category = _category_for_grid_line(c)
        for r in range(rows - 1):
            connect(r * cols + c, (r + 1) * cols + c, category)
    return network


def denmark_like_network(
    *,
    num_towns: int = 4,
    town_rows: int = 8,
    town_cols: int = 8,
    town_spacing: float = 220.0,
    intercity_distance: float = 4_000.0,
    seed: int = 0,
) -> RoadNetwork:
    """Hierarchical country-scale network: town grids linked by motorways.

    ``num_towns`` residential/secondary grids are laid out on a coarse circle
    and joined by bidirectional motorway corridors (with intermediate
    interchange vertices every ~1 km), reproducing the structure of the
    paper's Danish OSM graph at configurable scale: most edges are slow and
    short, a small fraction are fast and long, and long-distance queries must
    ascend the hierarchy.
    """
    if num_towns < 1:
        raise ValueError("need at least one town")
    network = RoadNetwork()
    rng = np.random.default_rng(seed)
    next_vertex = 0
    town_centers: list[int] = []

    for town in range(num_towns):
        angle = 2 * math.pi * town / max(num_towns, 1)
        cx = intercity_distance * math.cos(angle)
        cy = intercity_distance * math.sin(angle)
        base = next_vertex
        for r in range(town_rows):
            for c in range(town_cols):
                x = cx + (c - town_cols / 2) * town_spacing
                y = cy + (r - town_rows / 2) * town_spacing
                x += float(rng.uniform(-0.1, 0.1)) * town_spacing
                y += float(rng.uniform(-0.1, 0.1)) * town_spacing
                network.add_vertex(next_vertex, x, y)
                next_vertex += 1
        for r in range(town_rows):
            category = _category_for_grid_line(r)
            for c in range(town_cols - 1):
                u = base + r * town_cols + c
                network.add_edge(u, u + 1, category=category)
                network.add_edge(u + 1, u, category=category)
        for c in range(town_cols):
            category = _category_for_grid_line(c)
            for r in range(town_rows - 1):
                u = base + r * town_cols + c
                v = u + town_cols
                network.add_edge(u, v, category=category)
                network.add_edge(v, u, category=category)
        center = base + (town_rows // 2) * town_cols + town_cols // 2
        town_centers.append(center)

    # Corridors between consecutive towns on the circle (and one chord for
    # num_towns >= 4).  Each corridor gets TWO parallel roads — a straight
    # motorway and a laterally bowed primary ("old road") — so long-distance
    # queries face a genuine route choice, like the alternatives the paper's
    # Danish network offers between cities.
    corridors = [
        (town_centers[i], town_centers[(i + 1) % num_towns])
        for i in range(num_towns)
        if num_towns > 1
    ]
    if num_towns >= 4:
        corridors.append((town_centers[0], town_centers[num_towns // 2]))

    def add_chain(u: int, v: int, category: RoadCategory, bow: float) -> None:
        """Bidirectional vertex chain from u to v, bowed sideways by ``bow``."""
        nonlocal next_vertex
        a = network.vertex(u)
        b = network.vertex(v)
        total = a.distance_to(b)
        hops = max(2, int(total // 1_000.0))
        # Unit normal to the corridor direction, for the lateral bow.
        nx, ny = -(b.y - a.y) / total, (b.x - a.x) / total
        previous = u
        for hop in range(1, hops):
            t = hop / hops
            lateral = bow * math.sin(math.pi * t)
            network.add_vertex(
                next_vertex,
                a.x + t * (b.x - a.x) + lateral * nx,
                a.y + t * (b.y - a.y) + lateral * ny,
            )
            network.add_edge(previous, next_vertex, category=category)
            network.add_edge(next_vertex, previous, category=category)
            previous = next_vertex
            next_vertex += 1
        network.add_edge(previous, v, category=category)
        network.add_edge(v, previous, category=category)

    seen_corridors: set[tuple[int, int]] = set()
    for u, v in corridors:
        if (u, v) in seen_corridors or (v, u) in seen_corridors or u == v:
            continue
        seen_corridors.add((u, v))
        add_chain(u, v, RoadCategory.MOTORWAY, bow=0.0)
        add_chain(u, v, RoadCategory.PRIMARY, bow=900.0)
    return network


def two_edge_network(
    *, length_first: float = 300.0, length_second: float = 500.0
) -> RoadNetwork:
    """The paper's motivating example topology: ``0 -> 1 -> 2``."""
    network = RoadNetwork()
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, length_first, 0.0)
    network.add_vertex(2, length_first + length_second, 0.0)
    network.add_edge(0, 1, length=length_first)
    network.add_edge(1, 2, length=length_second)
    return network


def diamond_network(*, scale: float = 1_000.0) -> RoadNetwork:
    """Two disjoint routes between a source and a destination.

    The minimal topology where the risk-averse path (P1) and the
    lower-mean path (P2) of the paper's introduction differ — used by the
    airport-deadline example and routing unit tests.
    """
    network = RoadNetwork()
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, scale, scale / 2)
    network.add_vertex(2, scale, -scale / 2)
    network.add_vertex(3, 2 * scale, 0.0)
    network.add_edge(0, 1, category=RoadCategory.SECONDARY)
    network.add_edge(1, 3, category=RoadCategory.SECONDARY)
    network.add_edge(0, 2, category=RoadCategory.PRIMARY)
    network.add_edge(2, 3, category=RoadCategory.PRIMARY)
    return network
