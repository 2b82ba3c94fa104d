"""Unit tests for spatial helpers and the grid index."""

import pytest

from repro.network import GridIndex, grid_network, point_segment_distance


class TestPointSegmentDistance:
    def test_projection_inside_segment(self):
        assert point_segment_distance(5, 5, 0, 0, 10, 0) == pytest.approx(5.0)

    def test_projection_clamps_to_endpoint(self):
        assert point_segment_distance(-3, 4, 0, 0, 10, 0) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert point_segment_distance(3, 4, 0, 0, 0, 0) == pytest.approx(5.0)


class TestGridIndex:
    @pytest.fixture
    def indexed(self):
        net = grid_network(6, 6, spacing=100.0)
        return net, GridIndex(net, cell_size=150.0)

    def test_edges_within_radius_sorted(self, indexed):
        _, index = indexed
        hits = index.edges_within(250.0, 250.0, 120.0)
        assert hits
        distances = [distance for _, distance in hits]
        assert distances == sorted(distances)
        assert all(distance <= 120.0 for distance in distances)

    def test_edges_within_finds_all(self, indexed):
        net, index = indexed
        hits = {edge.id for edge, _ in index.edges_within(300.0, 300.0, 150.0)}
        # brute force
        from repro.network.spatial import point_segment_distance as psd

        expected = set()
        for edge in net.edges:
            a, b = net.vertex(edge.source), net.vertex(edge.target)
            if psd(300.0, 300.0, a.x, a.y, b.x, b.y) <= 150.0:
                expected.add(edge.id)
        assert hits == expected

    @pytest.mark.parametrize(
        "x, y, radius, cell_size",
        [
            (250.0, 250.0, 120.0, 150.0),  # mid-block, radius about one cell
            (0.0, 0.0, 1e-6, 150.0),  # beside the jittered corner: no hit
            (-400.0, -400.0, 600.0, 150.0),  # outside the network, negative cells
            (250.0, 250.0, 5_000.0, 150.0),  # covers the whole network
            (333.0, 121.0, 90.0, 40.0),  # cells smaller than a block
            (410.0, 270.0, 200.0, 5_000.0),  # one cell holds everything
            (515.0, 95.0, 35.0, 100.0),  # near the east border
        ],
    )
    def test_matches_brute_force_on_a_jittered_grid(self, x, y, radius, cell_size):
        net = grid_network(6, 6, spacing=100.0, jitter=0.2, seed=4)
        hits = GridIndex(net, cell_size=cell_size).edges_within(x, y, radius)
        expected = {}
        for edge in net.edges:
            a, b = net.vertex(edge.source), net.vertex(edge.target)
            distance = point_segment_distance(x, y, a.x, a.y, b.x, b.y)
            if distance <= radius:
                expected[edge.id] = distance
        assert {edge.id: distance for edge, distance in hits} == expected
        assert len(hits) == len(expected)  # no edge twice

    def test_a_query_on_a_vertex_finds_its_edges_at_distance_zero(self):
        net = grid_network(4, 4, spacing=100.0, jitter=0.2, seed=4)
        vertex = net.vertex(5)
        hits = GridIndex(net, cell_size=150.0).edges_within(vertex.x, vertex.y, 1e-6)
        incident = {e.id for e in net.out_edges(5)} | {e.id for e in net.in_edges(5)}
        assert {edge.id for edge, _ in hits} == incident
        assert all(distance == 0.0 for _, distance in hits)

    def test_radius_is_inclusive(self):
        net = grid_network(4, 4, spacing=100.0, jitter=0.2, seed=4)
        edge = net.edges[7]
        a, b = net.vertex(edge.source), net.vertex(edge.target)
        exact = point_segment_distance(37.0, 261.0, a.x, a.y, b.x, b.y)
        hits = GridIndex(net, cell_size=50.0).edges_within(37.0, 261.0, exact)
        assert edge.id in {hit.id for hit, _ in hits}

    def test_invalid_radius(self, indexed):
        _, index = indexed
        with pytest.raises(ValueError):
            index.edges_within(0, 0, -1.0)

    def test_invalid_cell_size(self):
        net = grid_network(3, 3)
        with pytest.raises(ValueError):
            GridIndex(net, cell_size=0)
