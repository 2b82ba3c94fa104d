"""Unit tests for spatial helpers and the grid index."""

import math

import pytest

from repro.network import (
    GridIndex,
    grid_network,
    haversine_m,
    point_segment_distance,
    project_equirectangular,
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(56.0, 10.0, 56.0, 10.0) == 0.0

    def test_one_degree_latitude(self):
        value = haversine_m(56.0, 10.0, 57.0, 10.0)
        assert value == pytest.approx(111_195, rel=0.01)

    def test_symmetry(self):
        a = haversine_m(55.0, 9.0, 56.0, 11.0)
        b = haversine_m(56.0, 11.0, 55.0, 9.0)
        assert a == pytest.approx(b)


class TestProjection:
    def test_origin_maps_to_zero(self):
        x, y = project_equirectangular(56.0, 10.0, lat0=56.0, lon0=10.0)
        assert (x, y) == (0.0, 0.0)

    def test_consistent_with_haversine_locally(self):
        x, y = project_equirectangular(56.01, 10.01, lat0=56.0, lon0=10.0)
        planar = math.hypot(x, y)
        true = haversine_m(56.0, 10.0, 56.01, 10.01)
        assert planar == pytest.approx(true, rel=0.01)


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

    def test_invalid_radius(self, indexed):
        _, index = indexed
        with pytest.raises(ValueError):
            index.edges_within(0, 0, -1.0)

    def test_invalid_cell_size(self):
        net = grid_network(3, 3)
        with pytest.raises(ValueError):
            GridIndex(net, cell_size=0)
