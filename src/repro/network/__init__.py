"""Road-network substrate.

Directed road graphs with category hierarchy, OSM XML import/export,
deterministic synthetic generators (grid / hierarchical "denmark-like" /
hand-sized fixtures), spatial indexing and JSON persistence.
"""

from .categories import FREE_FLOW_SPEED_KMH, RoadCategory
from .generators import (
    denmark_like_network,
    diamond_network,
    grid_network,
    two_edge_network,
)
from .graph import RoadNetwork
from .io import load_network, network_from_dict, network_to_dict, save_network
from .osm import read_osm, write_osm
from .paths import (
    dijkstra,
    free_flow_weight,
    length_weight,
    reconstruct_path,
    reverse_dijkstra,
    shortest_path,
)
from .spatial import GridIndex, haversine_m, point_segment_distance, project_equirectangular
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
    "length_weight",
    "reconstruct_path",
    "reverse_dijkstra",
    "shortest_path",
    "haversine_m",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "point_segment_distance",
    "project_equirectangular",
    "read_osm",
    "save_network",
    "two_edge_network",
    "write_osm",
]
