"""The golden world's network format: a JSON-ready dict of vertices and edges.

``make_golden_routes.py`` writes ``golden_world.json``'s ``"network"``
section with :func:`network_to_dict`; the golden tests rebuild the network
with :func:`network_from_dict`.
"""

from typing import Any

from repro.network import RoadCategory, RoadNetwork

FORMAT_VERSION = 1


def network_to_dict(network: RoadNetwork) -> dict[str, Any]:
    """Serialise a network to a JSON-compatible dictionary."""
    vertices = map(network.vertex, network.vertex_ids())
    return {
        "format_version": FORMAT_VERSION,
        "vertices": [{"id": v.id, "x": v.x, "y": v.y} for v in vertices],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "length": e.length,
                "category": e.category.value,
            }
            for e in network.edges
        ],
    }


def network_from_dict(payload: dict[str, Any]) -> RoadNetwork:
    """Inverse of :func:`network_to_dict`; edge ids follow list order.

    A document of any other ``format_version`` raises ``ValueError``.
    """
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unknown network format: {payload.get('format_version')!r}")
    network = RoadNetwork()
    for vertex in payload["vertices"]:
        network.add_vertex(int(vertex["id"]), float(vertex["x"]), float(vertex["y"]))
    for edge in payload["edges"]:
        network.add_edge(
            int(edge["source"]),
            int(edge["target"]),
            length=float(edge["length"]),
            category=RoadCategory(edge["category"]),
        )
    return network
