"""Unit tests for deterministic shortest paths."""

import pytest

from repro.network import (
    RoadNetwork,
    dijkstra,
    free_flow_weight,
    grid_network,
    reconstruct_path,
    reverse_dijkstra,
    shortest_path,
)


def edge_length(edge):
    return edge.length


@pytest.fixture
def grid():
    return grid_network(5, 5, spacing=100.0)


class TestDijkstra:
    def test_distance_to_self_is_zero(self, grid):
        dist, _ = dijkstra(grid, 0)
        assert dist[0] == 0.0

    def test_matches_networkx(self, grid):
        import networkx as nx

        g = nx.DiGraph()
        for edge in grid.edges:
            g.add_edge(edge.source, edge.target, weight=free_flow_weight(edge))
        expected = nx.single_source_dijkstra_path_length(g, 0)
        dist, _ = dijkstra(grid, 0)
        for vertex, value in expected.items():
            assert dist[vertex] == pytest.approx(value)

    def test_early_exit_with_targets(self, grid):
        dist, _ = dijkstra(grid, 0, targets={1})
        assert 1 in dist  # target settled; full exploration not required

    def test_unreachable_vertex_absent(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 1.0, 0.0)
        net.add_vertex(2, 2.0, 0.0)
        net.add_edge(0, 1)
        dist, _ = dijkstra(net, 0)
        assert 2 not in dist

    def test_negative_weight_raises(self, grid):
        with pytest.raises(ValueError):
            dijkstra(grid, 0, weight=lambda e: -1.0)


class TestReverseDijkstra:
    def test_symmetric_on_bidirectional_grid(self, grid):
        forward, _ = dijkstra(grid, 7, weight=edge_length)
        backward = reverse_dijkstra(grid, 7, weight=edge_length)
        for vertex in grid.vertex_ids():
            assert forward[vertex] == pytest.approx(backward[vertex])

    def test_lower_bounds_any_path(self, grid):
        """h(v) must lower-bound the cost of every v->target path."""
        target = 24
        h = reverse_dijkstra(grid, target, weight=edge_length)
        path = shortest_path(grid, 0, target, weight=edge_length)
        # walk the path: remaining true cost is always >= h at each vertex
        remaining = sum(edge.length for edge in path)
        assert h[0] <= remaining + 1e-9
        for edge in path:
            remaining -= edge.length
            assert h[edge.target] <= remaining + 1e-9


class TestReconstruction:
    def test_path_endpoints(self, grid):
        path = shortest_path(grid, 0, 24)
        assert path[0].source == 0
        assert path[-1].target == 24
        assert all(a.target == b.source for a, b in zip(path, path[1:]))

    def test_empty_path_for_same_vertex(self, grid):
        _, parent = dijkstra(grid, 0)
        assert reconstruct_path(parent, 0, 0) == []

    def test_unreachable_raises(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 1.0, 0.0)
        _, parent = dijkstra(net, 0)
        with pytest.raises(ValueError):
            reconstruct_path(parent, 0, 1)

    def test_shortest_path_optimality(self, grid):
        """Manhattan distance in a uniform grid: length = |dx| + |dy|."""
        path = shortest_path(grid, 0, 24, weight=edge_length)
        assert sum(edge.length for edge in path) == pytest.approx(800.0)
