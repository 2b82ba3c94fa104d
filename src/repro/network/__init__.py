"""Road-network substrate.

Directed road graphs with a category hierarchy, deterministic synthetic
generators (grid / hierarchical "denmark-like" / hand-sized fixtures) and
spatial indexing.
"""

from .categories import FREE_FLOW_SPEED_KMH, RoadCategory
from .generators import denmark_like_network, diamond_network, grid_network
from .graph import RoadNetwork
from .paths import (
    dijkstra,
    free_flow_weight,
    reconstruct_path,
    reverse_dijkstra,
    shortest_path,
)
from .spatial import GridIndex, point_segment_distance
from .types import Edge, EdgePair, Vertex

__all__ = [
    "Edge",
    "EdgePair",
    "FREE_FLOW_SPEED_KMH",
    "GridIndex",
    "RoadCategory",
    "RoadNetwork",
    "Vertex",
    "denmark_like_network",
    "diamond_network",
    "dijkstra",
    "free_flow_weight",
    "grid_network",
    "reconstruct_path",
    "reverse_dijkstra",
    "shortest_path",
    "point_segment_distance",
]
