"""Unit tests for the synthetic network generators."""

import networkx as nx
import pytest

from repro.network import (
    RoadCategory,
    denmark_like_network,
    diamond_network,
    grid_network,
)


def coordinates(network):
    return [(v.x, v.y) for v in map(network.vertex, network.vertex_ids())]


def as_digraph(network):
    g = nx.DiGraph()
    g.add_nodes_from(network.vertex_ids())
    for edge in network.edges:
        g.add_edge(edge.source, edge.target)
    return g


class TestGrid:
    def test_size(self):
        net = grid_network(4, 5)
        assert net.num_vertices == 20
        # bidirectional: 2 * (rows*(cols-1) + cols*(rows-1))
        assert net.num_edges == 2 * (4 * 4 + 5 * 3)

    def test_strongly_connected(self):
        assert nx.is_strongly_connected(as_digraph(grid_network(5, 5)))

    def test_arterial_hierarchy_present(self):
        net = grid_network(9, 9)
        categories = {edge.category for edge in net.edges}
        assert RoadCategory.PRIMARY in categories
        assert RoadCategory.SECONDARY in categories
        assert RoadCategory.RESIDENTIAL in categories

    def test_deterministic_given_seed(self):
        a = grid_network(4, 4, jitter=0.1, seed=3)
        b = grid_network(4, 4, jitter=0.1, seed=3)
        assert coordinates(a) == coordinates(b)

    def test_jitter_changes_coordinates(self):
        a = grid_network(4, 4, jitter=0.0)
        b = grid_network(4, 4, jitter=0.2, seed=1)
        assert coordinates(a) != coordinates(b)

    def test_unidirectional_option(self):
        net = grid_network(3, 3, bidirectional=False)
        assert net.num_edges == 3 * 2 + 3 * 2

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            grid_network(1, 5)

    def test_bad_spacing_raises(self):
        with pytest.raises(ValueError):
            grid_network(3, 3, spacing=0.0)


class TestDenmarkLike:
    def test_strongly_connected(self):
        net = denmark_like_network(num_towns=3, seed=1)
        assert nx.is_strongly_connected(as_digraph(net))

    def test_has_motorways_and_residential(self):
        net = denmark_like_network(num_towns=2, seed=0)
        categories = {edge.category for edge in net.edges}
        assert RoadCategory.MOTORWAY in categories
        assert RoadCategory.RESIDENTIAL in categories

    def test_parallel_corridor_exists(self):
        """Every corridor has both a motorway and a primary alternative."""
        net = denmark_like_network(num_towns=2, seed=0)
        categories = {edge.category for edge in net.edges}
        assert RoadCategory.PRIMARY in categories

    def test_single_town_has_no_motorway(self):
        net = denmark_like_network(num_towns=1, seed=0)
        categories = {edge.category for edge in net.edges}
        assert RoadCategory.MOTORWAY not in categories

    def test_scales_with_towns(self):
        small = denmark_like_network(num_towns=2, seed=0)
        large = denmark_like_network(num_towns=5, seed=0)
        assert large.num_vertices > small.num_vertices

    def test_validation(self):
        with pytest.raises(ValueError):
            denmark_like_network(num_towns=0)


class TestFixtureNetworks:
    def test_diamond_two_routes(self):
        net = diamond_network()
        from repro.routing import all_simple_paths

        routes = all_simple_paths(net, 0, 3)
        assert len(routes) == 2
