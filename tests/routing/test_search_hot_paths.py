"""Hot-path regression tests for the PBR search stack.

Covers the shared optimistic-heuristic cache (hit/invalidation/LRU), the
parent-chain simple-path constraint that replaced per-label visited sets, the
dominance pruning's result-neutrality, and the exactness of budget truncation
under the convolution combiner.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import grid_network
from repro.routing import (
    OptimisticHeuristic,
    RoutingEngine,
    PruningConfig,
    RoutingQuery,
    clear_heuristic_cache,
)
from repro.routing import heuristics as heuristics_module
from repro.routing.budget import _BudgetSearch
from repro.trajectories import CongestionModel


@pytest.fixture(scope="module")
def world():
    net = grid_network(5, 5, seed=2)
    model = CongestionModel(net, seed=3)
    costs = EdgeCostTable(net, resolution=5.0)
    for edge in net.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return net, ConvolutionModel(costs)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_heuristic_cache()
    yield
    clear_heuristic_cache()


class TestHeuristicCache:
    def test_shared_reuses_one_reverse_dijkstra(self, world):
        net, conv = world
        first = OptimisticHeuristic.shared(net, conv.costs, target=24)
        second = OptimisticHeuristic.shared(net, conv.costs, target=24)
        assert first is second
        assert OptimisticHeuristic.shared(net, conv.costs, target=12) is not first

    def test_shared_matches_fresh_construction(self, world):
        net, conv = world
        shared = OptimisticHeuristic.shared(net, conv.costs, target=24)
        fresh = OptimisticHeuristic(net, conv.costs, target=24)
        assert shared.table == fresh.table

    def test_set_cost_invalidates(self, world):
        net, conv = world
        before = OptimisticHeuristic.shared(net, conv.costs, target=24)
        conv.costs.set_cost(0, DiscreteDistribution.point(500))
        after = OptimisticHeuristic.shared(net, conv.costs, target=24)
        assert after is not before
        assert after.table == OptimisticHeuristic(net, conv.costs, target=24).table

    def test_network_mutation_invalidates(self):
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_edge(0, 1)
        costs = EdgeCostTable(net, resolution=5.0)
        stale = OptimisticHeuristic.shared(net, costs, target=1)
        assert 2 not in stale.table
        # Grafting a new vertex+edge must miss onto a fresh reverse Dijkstra.
        net.add_vertex(2, 200.0, 0.0)
        net.add_edge(2, 0)
        fresh = OptimisticHeuristic.shared(net, costs, target=1)
        assert fresh is not stale
        assert 2 in fresh.table
        router = RoutingEngine(net, ConvolutionModel(costs))
        result = router.route(RoutingQuery(2, 1, budget=1000))
        assert result.found
        assert result.path_vertices() == [2, 0, 1]

    def test_republished_version_number_invalidates(self):
        """``publish`` may install a cell numbered like one the table has
        carried before: freshness is the cell's identity, never its number."""
        net = grid_network(5, 5, seed=2)
        costs = EdgeCostTable(net, resolution=1.0)
        for edge in net.edges:
            costs.set_cost(edge.id, DiscreteDistribution(2, [0.5, 0.5]))
        rollback = costs.to_dict()
        costs.apply_deltas({e.id: DiscreteDistribution(9, [1.0]) for e in net.edges[:20]})
        search = _BudgetSearch(net, ConvolutionModel(costs), backend="columnar")
        query = RoutingQuery(0, 24, 22)
        stale_number = costs.version
        stale_answer = search.route(query)  # builds bounds and kernel block
        corrected = EdgeCostTable.from_dict(net, rollback)
        corrected.apply_deltas({e.id: DiscreteDistribution(1, [1.0]) for e in net.edges[:20]})
        assert costs.publish(costs.decode(corrected.to_dict())) == stale_number

        fresh_costs = EdgeCostTable.from_dict(net, costs.to_dict())
        fresh_heuristic = OptimisticHeuristic(net, fresh_costs, target=24)
        assert OptimisticHeuristic.shared(net, costs, target=24).table == fresh_heuristic.table
        fresh = _BudgetSearch(net, ConvolutionModel(fresh_costs), backend="columnar").route(query)
        served = search.route(query)
        assert served.probability == fresh.probability != stale_answer.probability
        assert served.path == fresh.path and served.distribution == fresh.distribution

    def test_stale_versions_evicted_on_refresh(self, world):
        net, conv = world
        stale = [
            weakref.ref(OptimisticHeuristic.shared(net, conv.costs, target=target))
            for target in (20, 21, 22)
        ]
        conv.costs.set_cost(1, DiscreteDistribution.point(400))
        gc.collect()
        # The publication itself dropped every old-version entry: nothing
        # lingers until LRU churn, or even until the next request.
        assert [ref() for ref in stale] == [None, None, None]

    def test_lru_bound(self, world, monkeypatch):
        net, conv = world
        monkeypatch.setattr(heuristics_module, "HEURISTIC_CACHE_SIZE", 3)
        clear_heuristic_cache()
        kept = [OptimisticHeuristic.shared(net, conv.costs, target=t) for t in range(4)]
        # Target 0 was evicted (least recently used); re-requesting rebuilds.
        assert OptimisticHeuristic.shared(net, conv.costs, target=0) is not kept[0]
        # Target 3 is still resident.
        assert OptimisticHeuristic.shared(net, conv.costs, target=3) is kept[3]

    def test_router_results_unchanged_by_cache_hits(self, world):
        net, conv = world
        router = RoutingEngine(net, conv)
        query = RoutingQuery(0, 24, budget=60)
        cold = router.route(query)
        warm = router.route(query)
        assert warm.path == cold.path
        assert warm.probability == cold.probability


class TestEdgeCostMemo:
    def test_memo_hits_are_identical(self, world):
        net, conv = world
        edge = net.edges[5]
        assert conv.edge_cost(edge) is conv.edge_cost(edge)

    def test_memo_observes_set_cost(self, world):
        net, conv = world
        edge = net.edges[5]
        conv.edge_cost(edge)
        replacement = DiscreteDistribution.point(321)
        conv.costs.set_cost(edge.id, replacement)
        assert conv.edge_cost(edge) is replacement


class TestSimplePathInvariant:
    def test_routes_never_revisit_vertices(self, world):
        net, conv = world
        router = RoutingEngine(net, conv)
        rng = np.random.default_rng(11)
        for _ in range(20):
            s, t = rng.choice(25, size=2, replace=False)
            result = router.route(
                RoutingQuery(int(s), int(t), budget=int(rng.integers(20, 70)))
            )
            vertices = result.path_vertices()
            assert len(vertices) == len(set(vertices))

    def test_dominance_pruning_is_result_neutral(self, world):
        net, conv = world
        full = RoutingEngine(net, conv)
        no_dominance = RoutingEngine(
            net, conv, pruning=PruningConfig(use_dominance=False)
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            s, t = rng.choice(25, size=2, replace=False)
            query = RoutingQuery(int(s), int(t), budget=int(rng.integers(20, 60)))
            a = full.route(query)
            b = no_dominance.route(query)
            assert a.probability == pytest.approx(b.probability, abs=1e-9)


class TestTruncationExactness:
    def test_convolution_truncated_search_matches_untruncated(self, world):
        """Pruning-rule-(c) clipping must not change any reported probability."""
        net, conv = world

        class UntruncatedConvolution(ConvolutionModel):
            exact_under_truncation = False

        untruncated = UntruncatedConvolution(conv.costs)
        clipped_router = RoutingEngine(net, conv)
        full_router = RoutingEngine(net, untruncated)
        rng = np.random.default_rng(17)
        for _ in range(10):
            s, t = rng.choice(25, size=2, replace=False)
            query = RoutingQuery(int(s), int(t), budget=int(rng.integers(20, 60)))
            clipped = clipped_router.route(query)
            full = full_router.route(query)
            assert clipped.probability == pytest.approx(full.probability, abs=1e-9)
            # The clipped label distribution agrees with the untruncated path
            # cost everywhere at or below the budget.
            from repro.core.path_cost import path_cost

            exact = path_cost(untruncated, clipped.path)
            for tick in range(exact.min_value, query.budget + 1):
                assert clipped.distribution.cdf_at(tick) == pytest.approx(
                    exact.cdf_at(tick), abs=1e-9
                )
