"""The golden world's network codec (``tests/fixtures/network_codec.py``):
every network the generators build survives a trip through JSON text, and a
document of another format is refused rather than misread."""

import json

import pytest

from fixtures.network_codec import network_from_dict, network_to_dict
from repro.network import denmark_like_network, diamond_network, grid_network

NETWORKS = {
    "grid": lambda: grid_network(3, 4, jitter=0.2, seed=5),
    "one-way grid": lambda: grid_network(3, 3, bidirectional=False),
    "diamond": diamond_network,
    "denmark-like": lambda: denmark_like_network(num_towns=2, town_rows=3, town_cols=3),
}


def test_dict_roundtrip():
    original = grid_network(3, 4)
    restored = network_from_dict(network_to_dict(original))
    assert restored.num_vertices == original.num_vertices
    assert restored.num_edges == original.num_edges
    for a, b in zip(original.edges, restored.edges):
        assert (a.id, a.source, a.target, a.category) == (b.id, b.source, b.target, b.category)
        assert a.length == b.length


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_json_text_round_trip_rebuilds_the_same_graph(name):
    """Coordinates, lengths, categories and one-way edges all survive, so
    the document written back is the one read."""
    original = NETWORKS[name]()
    document = network_to_dict(original)
    restored = network_from_dict(json.loads(json.dumps(document)))
    assert network_to_dict(restored) == document
    for vertex in original.vertex_ids():
        assert [e.id for e in restored.out_edges(vertex)] == [
            e.id for e in original.out_edges(vertex)
        ]
        assert restored.vertex(vertex) == original.vertex(vertex)


def test_unknown_version_rejected():
    payload = network_to_dict(grid_network(2, 2))
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="99"):
        network_from_dict(payload)
