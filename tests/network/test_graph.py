"""Unit tests for the road-network graph."""

import pytest

from repro.network import RoadCategory, RoadNetwork


@pytest.fixture
def triangle():
    """0 -> 1 -> 2 -> 0 plus the reverse edges."""
    net = RoadNetwork()
    net.add_vertex(0, 0.0, 0.0)
    net.add_vertex(1, 100.0, 0.0)
    net.add_vertex(2, 0.0, 100.0)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        net.add_edge(u, v)
        net.add_edge(v, u)
    return net


class TestConstruction:
    def test_dense_edge_ids(self, triangle):
        for i, edge in enumerate(triangle.edges):
            assert edge.id == i

    def test_default_length_is_euclidean(self, triangle):
        edge = triangle.edges[0]
        assert (edge.source, edge.target) == (0, 1)
        assert edge.length == pytest.approx(100.0)

    def test_explicit_length(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 10.0, 0.0)
        edge = net.add_edge(0, 1, length=42.0)
        assert edge.length == 42.0

    def test_re_adding_vertex_is_idempotent(self, triangle):
        v = triangle.add_vertex(0, 0.0, 0.0)
        assert v.id == 0
        assert triangle.num_vertices == 3

    def test_moving_vertex_raises(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_vertex(0, 5.0, 5.0)

    def test_unknown_endpoint_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.add_edge(0, 99)
        with pytest.raises(KeyError):
            triangle.add_edge(99, 0)

    def test_self_loop_raises(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_edge(0, 0)

    def test_duplicate_edge_raises(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_edge(0, 1)

    def test_category_stored(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 1.0, 0.0)
        edge = net.add_edge(0, 1, category=RoadCategory.MOTORWAY)
        assert edge.category is RoadCategory.MOTORWAY
        assert edge.free_flow_speed == pytest.approx(110 / 3.6)


class TestAdjacency:
    def test_degrees(self, triangle):
        assert triangle.out_degree(0) == 2
        assert triangle.in_degree(0) == 2

    def test_out_in_edges_consistent(self, triangle):
        for edge in triangle.edges:
            assert edge in triangle.out_edges(edge.source)
            assert edge in triangle.in_edges(edge.target)


class TestMisc:

    def test_repr(self, triangle):
        assert "vertices=3" in repr(triangle)

    def test_edge_validation(self):
        from repro.network import Edge

        with pytest.raises(ValueError):
            Edge(0, 0, 1, length=-5.0)

    def test_edge_pair_validation(self):
        from repro.network import Edge, EdgePair

        a = Edge(0, 0, 1, length=1.0)
        b = Edge(1, 2, 3, length=1.0)
        with pytest.raises(ValueError):
            EdgePair(a, b)
