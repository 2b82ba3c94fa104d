"""Unit + oracle tests for probabilistic budget routing (engine facade)."""

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import diamond_network, grid_network
from repro.routing import (
    OptimisticHeuristic,
    PruningConfig,
    RoutingEngine,
    RoutingQuery,
    all_simple_paths,
    exhaustive_best_path,
    expected_time_path,
)
from repro.trajectories import CongestionModel


@pytest.fixture(scope="module")
def world():
    net = grid_network(5, 5, seed=2)
    model = CongestionModel(net, seed=3)
    costs = EdgeCostTable(net, resolution=5.0)
    for edge in net.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return net, ConvolutionModel(costs)


@pytest.fixture(scope="module")
def engine(world):
    net, conv = world
    return RoutingEngine(net, conv)


class TestQueryTypes:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            RoutingQuery(1, 1, budget=5)
        with pytest.raises(ValueError):
            RoutingQuery(0, 1, budget=0)

    def test_result_path_vertices(self, engine):
        result = engine.route(RoutingQuery(0, 6, 30))
        vertices = result.path_vertices()
        assert vertices[0] == 0
        assert vertices[-1] == 6
        assert len(vertices) == result.num_edges + 1


class TestHeuristic:
    def test_unreachable(self):
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_edge(0, 1)
        costs = EdgeCostTable(net, resolution=5.0)
        h = OptimisticHeuristic(net, costs, target=0)
        assert 0 in h.table
        assert 1 not in h.table

    def test_remaining_ticks_lower_bounds(self, world):
        net, conv = world
        h = OptimisticHeuristic(net, conv.costs, target=24)
        path = exhaustive_best_path(net, conv, RoutingQuery(0, 24, 100), max_edges=8).path
        true_min = sum(conv.costs.min_ticks(e) for e in path)
        assert h.remaining_ticks(0) <= true_min


class TestCorrectness:
    def test_matches_exhaustive_oracle(self, engine):
        rng = np.random.default_rng(0)
        for _ in range(15):
            s, t = rng.choice(25, size=2, replace=False)
            query = RoutingQuery(int(s), int(t), budget=int(rng.integers(15, 60)))
            ours = engine.route(query)
            oracle = engine.route(query, strategy="oracle", max_edges=8)
            # oracle only sees <=8-edge paths, so PBR may legitimately beat it
            assert ours.probability >= oracle.probability - 1e-9

    def test_probability_matches_distribution(self, engine):
        result = engine.route(RoutingQuery(0, 12, 30))
        assert result.probability == pytest.approx(
            result.distribution.prob_within(30)
        )

    def test_returned_path_is_connected(self, engine):
        result = engine.route(RoutingQuery(0, 24, 60))
        assert result.found
        assert result.path[0].source == 0
        assert result.path[-1].target == 24
        assert all(a.target == b.source for a, b in zip(result.path, result.path[1:]))

    def test_unreachable_target(self):
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_vertex(2, 200.0, 0.0)
        net.add_edge(0, 1)
        costs = EdgeCostTable(net, resolution=5.0)
        result = RoutingEngine(net, ConvolutionModel(costs)).route(RoutingQuery(0, 2, 10))
        assert not result.found
        assert result.probability == 0.0

    def test_impossible_budget_returns_fallback_path(self, engine):
        result = engine.route(RoutingQuery(0, 24, 1))
        assert result.found  # optimistically fastest path, probability ~0
        assert result.probability <= 1e-9


class TestPruningAblation:
    @pytest.mark.parametrize(
        "pruning_kwargs",
        [
            {"use_dominance": False},
            {"use_pivot": False},
            {"use_cost_shifting": False},
            {"use_heuristic": False, "use_cost_shifting": False},
            {
                "use_heuristic": False,
                "use_cost_shifting": False,
                "use_pivot": False,
                "use_dominance": False,
            },
        ],
    )
    def test_prunings_preserve_answer(self, world, engine, pruning_kwargs):
        net, conv = world
        query = RoutingQuery(0, 18, budget=40)
        reference = engine.route(query)
        variant = RoutingEngine(
            net, conv, pruning=PruningConfig(**pruning_kwargs)
        ).route(query)
        assert variant.probability == pytest.approx(reference.probability, abs=1e-9)

    def test_pruning_reduces_generated_labels(self, world, engine):
        net, conv = world
        query = RoutingQuery(0, 24, budget=40)
        full = engine.route(query)
        bare = RoutingEngine(
            net,
            conv,
            pruning=PruningConfig(
                use_heuristic=False,
                use_cost_shifting=False,
                use_pivot=False,
                use_dominance=False,
            ),
        ).route(query)
        assert full.stats.labels_generated < bare.stats.labels_generated / 10

    def test_shifting_requires_heuristic(self):
        with pytest.raises(ValueError):
            PruningConfig(use_heuristic=False, use_cost_shifting=True)

    def test_stats_populated(self, engine):
        result = engine.route(RoutingQuery(0, 24, 40))
        stats = result.stats
        assert stats.labels_generated > 0
        assert stats.labels_expanded > 0
        assert stats.completed
        assert stats.runtime_seconds > 0
        assert stats.pruned_total >= stats.pruned_by_dominance


class TestRiskAverseChoice:
    def test_prefers_reliable_path_under_deadline(self):
        """The paper's introduction scenario on a diamond network."""
        net = diamond_network()
        costs = EdgeCostTable(net, resolution=5.0)
        # Route A (via 1): steady — always 50 ticks total.
        costs.set_cost(0, DiscreteDistribution.point(25))
        costs.set_cost(1, DiscreteDistribution.point(25))
        # Route B (via 2): lower mean, fat tail.
        risky = DiscreteDistribution.from_mapping({15: 0.8, 40: 0.2})
        costs.set_cost(2, risky)
        costs.set_cost(3, risky)
        engine = RoutingEngine(net, ConvolutionModel(costs))

        deadline = RoutingQuery(0, 3, budget=50)
        result = engine.route(deadline)
        assert result.path_vertices() == [0, 1, 3]  # steady route wins
        assert result.probability == pytest.approx(1.0)

        mean_route = engine.route(deadline, strategy="expected_time")
        assert mean_route.path_vertices() == [0, 2, 3]  # averages pick risky
        assert mean_route.probability < result.probability


class TestAnytime:
    def test_time_limit_returns_result(self, engine):
        result = engine.route(
            RoutingQuery(0, 24, 40), strategy="anytime", time_limit_seconds=0.0005
        )
        assert result.found

    def test_unbounded_at_least_as_good(self, engine):
        query = RoutingQuery(0, 24, 40)
        bounded = engine.route(query, strategy="anytime", time_limit_seconds=0.0005)
        unbounded = engine.route(query)
        assert unbounded.probability >= bounded.probability - 1e-9

    def test_stream_over_ascending_limits(self, engine):
        results = list(engine.route_stream(RoutingQuery(0, 24, 40), [0.001, 0.05, 0.2]))
        assert len(results) == 3
        probs = [r.probability for r in results]
        assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))
        assert results[-1].stats.completed

    def test_anytime_requires_limit(self, engine):
        with pytest.raises(ValueError):
            engine.route(RoutingQuery(0, 1, 10), strategy="anytime")

    def test_bad_limit_raises(self, engine):
        with pytest.raises(ValueError):
            engine.route(
                RoutingQuery(0, 1, 10), strategy="anytime", time_limit_seconds=0.0
            )


class TestLegacyRoutersRemoved:
    """The deprecated direct-construction routers are gone for good."""

    def test_shims_are_not_importable(self):
        import repro.routing as routing

        assert not hasattr(routing, "ProbabilisticBudgetRouter")
        assert not hasattr(routing, "AnytimeRouter")


class TestBaselines:
    def test_all_simple_paths_diamond(self):
        net = diamond_network()
        paths = all_simple_paths(net, 0, 3)
        assert len(paths) == 2

    def test_all_simple_paths_cap(self, world):
        net, _ = world
        with pytest.raises(RuntimeError):
            all_simple_paths(net, 0, 24, max_edges=20, max_paths=10)

    def test_expected_time_unreachable(self):
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 1.0, 0.0)
        costs = EdgeCostTable(net, resolution=5.0)
        result = expected_time_path(net, ConvolutionModel(costs), RoutingQuery(0, 1, 10))
        assert not result.found

    def test_exhaustive_deterministic_tiebreak(self, world):
        net, conv = world
        query = RoutingQuery(0, 6, budget=60)
        a = exhaustive_best_path(net, conv, query, max_edges=6)
        b = exhaustive_best_path(net, conv, query, max_edges=6)
        assert [e.id for e in a.path] == [e.id for e in b.path]
