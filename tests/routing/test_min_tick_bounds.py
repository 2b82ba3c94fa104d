"""Bit parity of the one lower-bound producer with its pure-Python reference.

``heuristics.min_tick_bounds`` is one ``scipy.sparse.csgraph.dijkstra`` over
a per-cost-cell min-tick graph; ``network.paths.reverse_dijkstra`` /
``dijkstra`` are what it replaced and stay as the reference.  Integer ticks
summed in float64 are exact, so the vectors must be *equal*, not close —
over multigraphs (parallel edges min-reduce, in either insertion order),
unreachable vertices (``inf``), zero-tick edges (an edge, not a hole in the
matrix) and non-contiguous vertex ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import RoadNetwork, grid_network
from repro.network.paths import dijkstra, reverse_dijkstra
from repro.routing import OptimisticHeuristic
from repro.routing.heuristics import min_tick_bounds, vertex_indexing


class MultiNetwork(RoadNetwork):
    """A ``RoadNetwork`` that lets parallel edges in (``add_edge`` normally
    rejects them): the producer must not depend on that check."""

    def add_edge(self, source, target, **kwargs):
        self._by_endpoints.pop((source, target), None)
        return super().add_edge(source, target, **kwargs)


def build(vertex_ids, weighted_edges):
    """``weighted_edges``: ``(source index, target index, min ticks)`` triples."""
    network = MultiNetwork()
    for vertex in vertex_ids:
        network.add_vertex(vertex, float(vertex), 0.0)
    costs = EdgeCostTable(network, resolution=1.0)
    for u, v, ticks in weighted_edges:
        edge = network.add_edge(vertex_ids[u], vertex_ids[v], length=100.0)
        costs.set_cost(edge.id, DiscreteDistribution(ticks, [0.5, 0.5]))
    return network, costs


def reference_bounds(network, costs, vertex, *, forward):
    """The pure-Python search, filled into the dense format."""

    def weight(edge):
        return float(costs.min_ticks(edge))

    if forward:
        distances, _ = dijkstra(network, vertex, weight=weight)
    else:
        distances = reverse_dijkstra(network, vertex, weight=weight)
    order, index_of = vertex_indexing(network)
    bounds = np.full(len(order), np.inf)
    bounds[[index_of[v] for v in distances]] = list(distances.values())
    return bounds


def assert_parity_everywhere(network, costs):
    order, index_of = vertex_indexing(network)
    for vertex in order:
        for forward in (False, True):
            bounds = min_tick_bounds(network, costs, vertex, forward=forward)
            assert bounds.dtype == np.float64
            assert np.array_equal(
                bounds, reference_bounds(network, costs, vertex, forward=forward)
            ), (vertex, forward)
        # The descent oracle branch-and-bound diving follows: every vertex
        # that reaches the target has an out-edge that realises its bound.
        to_target = min_tick_bounds(network, costs, vertex)
        for v in order:
            h = to_target[index_of[v]]
            if v == vertex or h == np.inf:
                continue
            steps = [
                costs.min_ticks(e) + to_target[index_of[e.target]]
                for e in network.out_edges(v)
            ]
            assert min(steps) == h, (vertex, v)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    vertex_ids = draw(
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
    )
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index, st.integers(0, 6)), max_size=4 * n))
    return vertex_ids, [(u, v, w) for u, v, w in edges if u != v]


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_bit_parity_with_the_reference_on_random_multigraphs(graph):
    vertex_ids, edges = graph
    assert_parity_everywhere(*build(vertex_ids, edges))
    assert_parity_everywhere(*build(vertex_ids, edges[::-1]))


@pytest.mark.parametrize("bundle", [(5, 2), (2, 5), (0, 3), (3, 0)])
def test_parallel_edges_keep_the_lightest_whatever_the_insertion_order(bundle):
    # 7 -> 400 twice, then 400 -> 90; vertex 12 touches nothing.
    edges = [(0, 1, bundle[0]), (0, 1, bundle[1]), (1, 2, 1)]
    network, costs = build([7, 400, 90, 12], edges)
    order, _ = vertex_indexing(network)
    assert order == [7, 12, 90, 400]
    lightest = float(min(bundle))
    assert min_tick_bounds(network, costs, 90).tolist() == [
        lightest + 1.0, np.inf, 0.0, 1.0
    ]
    assert min_tick_bounds(network, costs, 7, forward=True).tolist() == [
        0.0, np.inf, lightest + 1.0, lightest
    ]
    assert_parity_everywhere(network, costs)


def test_negative_minimum_raises_at_graph_build_and_unknown_vertex_is_a_key_error():
    network, costs = build([0, 1, 2], [(0, 1, 2), (1, 2, 1), (2, 0, 3)])
    with pytest.raises(KeyError):
        min_tick_bounds(network, costs, 99)
    costs.set_cost(1, DiscreteDistribution(-1, [1.0]))
    for forward in (False, True):
        with pytest.raises(ValueError, match="negative weight on edge 1$"):
            min_tick_bounds(network, costs, 2, forward=forward)
    with pytest.raises(ValueError, match="negative weight on edge 1$"):
        reverse_dijkstra(network, 2, weight=lambda e: float(costs.min_ticks(e)))
    costs.set_cost(1, DiscreteDistribution(0, [1.0]))  # a failed build left no entry
    assert min_tick_bounds(network, costs, 2).tolist() == [2.0, 0.0, 0.0]


def test_bit_parity_on_the_bench_scale_worlds_recipe_at_40_by_40():
    """The 160x160 scale world's recipe (jittered grid, offsets 1-3, 80 % point
    masses) at a size that still takes the columnar path under ``auto``."""
    network = grid_network(40, 40, jitter=0.2, seed=42)
    rng = np.random.default_rng(42)
    offsets = rng.integers(1, 4, size=network.num_edges).tolist()
    stochastic = rng.random(network.num_edges) >= 0.8
    costs = EdgeCostTable(network, resolution=1.0)
    costs.apply_deltas(
        {
            edge_id: DiscreteDistribution(offset, [0.5, 0.5] if stochastic[edge_id] else [1.0])
            for edge_id, offset in enumerate(offsets)
        }
    )
    for vertex in (0, 39, 820, network.num_vertices - 1):
        for forward in (False, True):
            assert np.array_equal(
                min_tick_bounds(network, costs, vertex, forward=forward),
                reference_bounds(network, costs, vertex, forward=forward),
            )
    served = OptimisticHeuristic.shared(network, costs, 820).bounds
    assert not served.flags.writeable
    assert np.array_equal(served, reference_bounds(network, costs, 820, forward=False))
