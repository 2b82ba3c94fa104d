"""Tests for the RoutingEngine facade: strategies, batch, stream, wire format."""

import json

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import RoadNetwork, grid_network
from repro.routing import (
    MAX_BUDGET_TICKS,
    BatchResult,
    RoutingEngine,
    RoutingQuery,
    RoutingResult,
    SearchStats,
    available_strategies,
    budget_ticks_for_departure,
    normalize_budgets,
    register_strategy,
    result_from_dict,
)
from repro.routing import engine as engine_module
from repro.routing.query import depart_when_search
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


@pytest.fixture()
def island_world():
    """A network whose vertex 2 is unreachable from vertex 0."""
    net = RoadNetwork()
    net.add_vertex(0, 0.0, 0.0)
    net.add_vertex(1, 100.0, 0.0)
    net.add_vertex(2, 200.0, 0.0)
    net.add_edge(0, 1)
    costs = EdgeCostTable(net, resolution=5.0)
    return RoutingEngine(net, ConvolutionModel(costs))


class TestQueryConstruction:
    def test_from_seconds_floors_onto_grid(self):
        query = RoutingQuery.from_seconds(0, 1, 275.0, resolution=5.0)
        assert query.budget == 55  # exact multiple lands on its own tick
        assert RoutingQuery.from_seconds(0, 1, 279.9, resolution=5.0).budget == 55

    def test_from_seconds_rejects_sub_tick_budget(self):
        with pytest.raises(ValueError, match="below one grid tick"):
            RoutingQuery.from_seconds(0, 1, 3.0, resolution=5.0)

    @pytest.mark.parametrize("seconds", [0.0, -10.0, float("nan"), float("inf")])
    def test_from_seconds_rejects_bad_seconds(self, seconds):
        with pytest.raises(ValueError):
            RoutingQuery.from_seconds(0, 1, seconds, resolution=5.0)

    @pytest.mark.parametrize("resolution", [0.0, -5.0])
    def test_from_seconds_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError):
            RoutingQuery.from_seconds(0, 1, 60.0, resolution=resolution)

    def test_non_integral_budget_rejected(self):
        with pytest.raises(TypeError, match="from_seconds"):
            RoutingQuery(0, 1, budget=10.5)
        with pytest.raises(TypeError):
            RoutingQuery(0, 1, budget=True)

    def test_numpy_integers_normalised(self):
        query = RoutingQuery(np.int64(0), np.int32(1), np.int64(30))
        assert (query.source, query.target, query.budget) == (0, 1, 30)
        assert all(type(v) is int for v in (query.source, query.target, query.budget))

    def test_budget_beyond_grid_rejected(self):
        """Beyond-grid budgets would silently clamp every CDF read to 1."""
        with pytest.raises(ValueError, match="distribution grid"):
            RoutingQuery(0, 1, budget=MAX_BUDGET_TICKS + 1)
        # The bound itself is still a legal (if extreme) budget.
        assert RoutingQuery(0, 1, budget=MAX_BUDGET_TICKS).budget == MAX_BUDGET_TICKS

    def test_engine_query_helpers(self, engine):
        assert engine.resolution == 5.0
        query = engine.query_from_seconds(0, 24, 200.0)
        assert query == RoutingQuery(0, 24, 40)


class TestBudgetVectors:
    def test_budgets_sorted_and_deduplicated(self):
        assert normalize_budgets([40, np.int64(20), 40, 30]) == (20, 30, 40)
        assert all(type(b) is int for b in normalize_budgets([np.int32(5)]))

    def test_empty_budget_vector_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            normalize_budgets([])

    @pytest.mark.parametrize("bad", [0, -3, MAX_BUDGET_TICKS + 1])
    def test_out_of_grid_budgets_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_budgets([20, bad])

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integral_budgets_rejected(self, bad):
        with pytest.raises(TypeError, match="from_seconds"):
            normalize_budgets([bad])

    def test_departure_budgets_floor_the_window_and_zero_the_infeasible(self):
        # 300 s at 5 s/tick is exactly 60 ticks; 299 s floors to 59; leaving
        # at or after the deadline has no budget at all.
        budgets, feasible, query = depart_when_search(0, 1, (0.0, 1.0, 300.0, 400.0), None, 300.0, 5.0)
        assert budgets == (60, 59, 0, 0) and feasible == (59, 60) and query.budget == 60
        assert budgets[0] == RoutingQuery.from_seconds(0, 1, 300.0, resolution=5.0).budget

    def test_departure_budget_needs_a_positive_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            budget_ticks_for_departure(0.0, 60.0, 0.0)


class TestStrategyRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        for name in ("pbr", "anytime", "expected_time", "oracle"):
            assert name in names

    def test_unknown_strategy_raises(self, engine):
        with pytest.raises(KeyError, match="available"):
            engine.route(RoutingQuery(0, 24, 40), strategy="teleport")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_strategy("pbr")
            def clone(engine, query, *, time_limit_seconds):
                raise AssertionError

    def test_custom_strategy_plugs_in(self, engine):
        @register_strategy("always_direct")
        def always_direct(eng, query, *, time_limit_seconds):
            """Toy strategy: delegate to pbr but tag nothing — plug-in check."""
            return eng.route(query, strategy="pbr")

        try:
            result = engine.route(RoutingQuery(0, 24, 40), strategy="always_direct")
            reference = engine.route(RoutingQuery(0, 24, 40))
            assert result.path == reference.path
            assert "always_direct" in available_strategies()
            assert not engine.supports_time_limit("always_direct")
        finally:
            engine_module._STRATEGIES.pop("always_direct", None)

    def test_time_limit_flag_is_declared_at_registration(self, engine):
        """``time_limit=True`` lets a limit through, checked, to the function."""
        seen = []

        @register_strategy("records_its_limit", time_limit=True)
        def records_its_limit(eng, query, *, time_limit_seconds):
            seen.append(time_limit_seconds)
            return None

        try:
            assert engine.supports_time_limit("records_its_limit")
            engine.route(RoutingQuery(0, 24, 40), strategy="records_its_limit")
            engine.route(
                RoutingQuery(0, 24, 40), strategy="records_its_limit", time_limit_seconds=2
            )
            assert seen == [None, 2.0] and type(seen[1]) is float
        finally:
            engine_module._STRATEGIES.pop("records_its_limit", None)

    def test_unknown_name_is_the_same_key_error_everywhere(self, engine):
        with pytest.raises(KeyError, match="available") as routed:
            engine.route(RoutingQuery(0, 24, 40), strategy="teleport")
        with pytest.raises(KeyError, match="available") as asked:
            engine.supports_time_limit("teleport")
        assert str(routed.value) == str(asked.value)

    @pytest.mark.parametrize("not_a_function", [object(), 42, type("Old", (), {})])
    def test_non_function_rejected(self, not_a_function):
        with pytest.raises(TypeError, match="strategy function"):
            register_strategy("bogus")(not_a_function)
        assert "bogus" not in available_strategies()

    @pytest.mark.parametrize("name", ["", None, 3])
    def test_strategy_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="non-empty string"):
            register_strategy(name)


def without_runtime(document):
    """``document`` minus every ``runtime_seconds``: wall clocks vary."""
    if isinstance(document, dict):
        return {k: without_runtime(v) for k, v in document.items() if k != "runtime_seconds"}
    if isinstance(document, list):
        return [without_runtime(item) for item in document]
    return document


class TestStrategyFunctions:
    """A built-in strategy is a plain function: called directly with its
    options by name, it answers exactly as :meth:`RoutingEngine.route` does."""

    def test_direct_calls_answer_as_the_engine_does(self, engine):
        query, small = RoutingQuery(0, 24, 40), RoutingQuery(0, 6, 30)
        cases = [
            (
                engine_module.kbest(engine, query, time_limit_seconds=None, k=2),
                engine.route_kbest(query, 2),
            ),
            (
                engine_module.multi_budget(
                    engine, query, time_limit_seconds=None, budgets=(30, 40)
                ),
                engine.route_multi_budget(0, 24, (30, 40)),
            ),
            (
                engine_module.depart_when(
                    engine, query, time_limit_seconds=None,
                    departure_times=(0.0, 30.0), arrive_by_seconds=200.0,
                ),
                engine.route_depart_when(0, 24, (0.0, 30.0), arrive_by_seconds=200.0),
            ),
            (
                engine_module.oracle(engine, small, time_limit_seconds=None, max_edges=8),
                engine.route(small, strategy="oracle", max_edges=8),
            ),
            (
                engine_module.anytime(engine, query, time_limit_seconds=60.0),
                engine.route(query),
            ),
        ]
        for direct, routed in cases:
            assert without_runtime(direct.to_dict()) == without_runtime(routed.to_dict())


class TestStrategies:
    def test_pbr_and_oracle_agree_on_optimum(self, engine):
        query = RoutingQuery(0, 6, 30)
        pbr = engine.route(query)
        oracle = engine.route(query, strategy="oracle", max_edges=8)
        assert pbr.probability == pytest.approx(oracle.probability, abs=1e-9)

    def test_expected_time_rejects_time_limit(self, engine):
        with pytest.raises(ValueError, match="time_limit_seconds"):
            engine.route(
                RoutingQuery(0, 24, 40),
                strategy="expected_time",
                time_limit_seconds=1.0,
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_anytime_rejects_non_finite_or_non_positive_limit(self, engine, bad):
        with pytest.raises(ValueError):
            engine.route(
                RoutingQuery(0, 24, 40), strategy="anytime", time_limit_seconds=bad
            )

    @pytest.mark.parametrize("bad", [True, "5"])
    @pytest.mark.parametrize("strategy", ["pbr", "anytime", "kbest"])
    def test_time_limit_must_be_a_real_number(self, engine, strategy, bad):
        """``True`` is not a 1 s limit and ``"5"`` is not a bare TypeError:
        both are the one number rule's ValueError, naming the field."""
        kwargs = {"k": 2} if strategy == "kbest" else {}
        with pytest.raises(ValueError, match="time_limit_seconds"):
            engine.route(
                RoutingQuery(0, 24, 40), strategy=strategy, time_limit_seconds=bad, **kwargs
            )

    def test_oracle_rejects_time_limit(self, engine):
        with pytest.raises(ValueError, match="time_limit_seconds"):
            engine.route(
                RoutingQuery(0, 6, 30), strategy="oracle", time_limit_seconds=1.0
            )

    @pytest.mark.parametrize(
        "strategy, kwargs",
        [
            ("pbr", {}),
            ("anytime", {"time_limit_seconds": 0.5}),
            ("expected_time", {}),
            ("oracle", {}),
        ],
    )
    def test_unreachable_target_across_strategies(self, island_world, strategy, kwargs):
        result = island_world.route(RoutingQuery(0, 2, 10), strategy=strategy, **kwargs)
        assert not result.found
        assert result.path == ()
        assert result.probability == 0.0


class TestRouteMany:
    def test_empty_batch(self, engine):
        batch = engine.route_many([])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 0
        assert list(batch) == []
        assert batch.num_found == 0
        assert batch.stats.labels_generated == 0
        assert batch.stats.completed

    def test_results_preserve_input_order(self, engine):
        queries = [
            RoutingQuery(0, 24, 40),
            RoutingQuery(5, 3, 35),
            RoutingQuery(1, 24, 45),  # same target as the first: grouped run
            RoutingQuery(20, 4, 50),
        ]
        batch = engine.route_many(queries)
        assert [r.query for r in batch] == queries
        for query, result in zip(queries, batch):
            alone = engine.route(query)
            assert result.path == alone.path
            assert result.probability == pytest.approx(alone.probability)

    def test_stats_aggregate_members(self, engine):
        queries = [RoutingQuery(0, 24, 40), RoutingQuery(5, 3, 35)]
        batch = engine.route_many(queries)
        assert batch.stats.labels_generated == sum(
            r.stats.labels_generated for r in batch
        )
        assert batch.stats.runtime_seconds == pytest.approx(
            sum(r.stats.runtime_seconds for r in batch)
        )
        assert batch.stats.completed
        assert batch.num_found == len(queries)

    def test_batch_with_unreachable_member(self, island_world):
        batch = island_world.route_many(
            [RoutingQuery(0, 1, 10), RoutingQuery(0, 2, 10)]
        )
        assert batch.num_found == 1
        assert [r.found for r in batch] == [True, False]

    def test_batch_under_alternate_strategy(self, engine):
        batch = engine.route_many(
            [RoutingQuery(0, 6, 30)], strategy="expected_time"
        )
        assert batch[0].path == engine.route(
            RoutingQuery(0, 6, 30), strategy="expected_time"
        ).path

    def test_batch_forwards_strategy_kwargs(self, engine):
        # Same strategy options as single-query mode (here: oracle depth).
        query = RoutingQuery(0, 6, 30)
        batch = engine.route_many([query], strategy="oracle", max_edges=8)
        alone = engine.route(query, strategy="oracle", max_edges=8)
        assert batch[0].path == alone.path
        assert batch[0].probability == pytest.approx(alone.probability)

    def test_batch_to_dict_is_json_ready(self, engine):
        batch = engine.route_many([RoutingQuery(0, 6, 30)])
        payload = json.loads(json.dumps(batch.to_dict()))
        assert payload["num_found"] == 1
        assert payload["stats"]["completed"] is True
        assert payload["results"][0]["query"] == {
            "source": 0,
            "target": 6,
            "budget": 30,
        }


class TestRouteStream:
    def test_yields_one_result_per_limit(self, engine):
        limits = [0.001, 0.01, 0.2]
        results = list(engine.route_stream(RoutingQuery(0, 24, 40), limits))
        assert len(results) == len(limits)
        probs = [r.probability for r in results]
        assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize(
        "limits",
        [
            [0.1, 0.1],  # duplicate
            [0.2, 0.1],  # decreasing
            [0.1, 0.2, 0.05],  # non-monotone tail
        ],
    )
    def test_non_increasing_limits_rejected_at_call_site(self, engine, limits):
        # The ValueError fires on the route_stream call itself, not on the
        # first next() — a dropped/unconsumed stream must still surface it.
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.route_stream(RoutingQuery(0, 24, 40), limits)

    def test_non_positive_limit_rejected(self, engine):
        with pytest.raises(ValueError, match="positive"):
            engine.route_stream(RoutingQuery(0, 24, 40), [0.0, 0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_limit_rejected(self, engine, bad):
        # NaN passes bare <=0 checks and would never trip the search's
        # wall-clock comparison — an unbounded run disguised as bounded.
        with pytest.raises(ValueError, match="finite"):
            engine.route_stream(RoutingQuery(0, 24, 40), [0.1, bad])

    @pytest.mark.parametrize("bad", [True, "5"])
    def test_limits_must_be_real_numbers(self, engine, bad):
        with pytest.raises(ValueError, match="time_limit_seconds"):
            engine.route_stream(RoutingQuery(0, 24, 40), [bad])

    def test_empty_sweep_yields_nothing(self, engine):
        assert list(engine.route_stream(RoutingQuery(0, 24, 40), [])) == []


class TestSerialisation:
    def test_query_round_trip(self):
        query = RoutingQuery(3, 9, 41)
        assert RoutingQuery.from_dict(json.loads(json.dumps(query.to_dict()))) == query

    def test_stats_round_trip(self):
        stats = SearchStats(
            labels_generated=10,
            labels_expanded=4,
            pruned_by_bound=3,
            pruned_by_dominance=2,
            pruned_unreachable=1,
            pivot_updates=2,
            runtime_seconds=0.25,
            completed=False,
        )
        restored = SearchStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored == stats
        assert stats.to_dict()["pruned_total"] == stats.pruned_total

    def test_result_round_trip(self, world, engine):
        net, _ = world
        result = engine.route(RoutingQuery(0, 24, 40))
        payload = json.loads(json.dumps(result.to_dict()))
        restored = RoutingResult.from_dict(payload, net)
        assert restored.query == result.query
        assert restored.path == result.path
        assert restored.probability == result.probability
        assert restored.stats == result.stats
        assert restored.distribution.allclose(result.distribution)
        assert payload["path_vertices"] == result.path_vertices()

    def test_unreachable_result_round_trip(self, island_world):
        result = island_world.route(RoutingQuery(0, 2, 10))
        payload = json.loads(json.dumps(result.to_dict()))
        restored = result_from_dict(payload, island_world.network)
        assert not restored.found
        assert restored.distribution is None
        assert restored.path == ()

    def test_stats_aggregate_empty(self):
        total = SearchStats.aggregate([])
        assert total == SearchStats()
        assert total.completed


class TestMultiBudgetStrategy:
    def test_members_match_independent_pbr_runs(self, engine):
        budgets = (20, 30, 40, 55)
        answer = engine.route_multi_budget(0, 24, budgets)
        assert answer.budgets == budgets
        for budget, member in answer.items():
            reference = engine.route(RoutingQuery(0, 24, budget))
            assert member.path == reference.path
            assert member.probability == pytest.approx(
                reference.probability, abs=1e-9
            )
            assert member.query.budget == budget

    def test_single_search_beats_b_independent_runs(self, engine):
        budgets = (20, 30, 40, 55)
        answer = engine.route_multi_budget(0, 24, budgets)
        independent = sum(
            engine.route(RoutingQuery(0, 24, b)).stats.labels_generated
            for b in budgets
        )
        assert answer.stats.labels_generated < independent

    def test_budgets_normalised(self, engine):
        answer = engine.route_multi_budget(0, 24, [40, 20, 40, 30])
        assert answer.budgets == (20, 30, 40)

    def test_probabilities_monotone(self, engine):
        probs = engine.route_multi_budget(0, 24, range(20, 60, 5)).probabilities
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_requires_budgets_kwarg(self, engine):
        with pytest.raises(ValueError, match="budgets"):
            engine.route(RoutingQuery(0, 24, 40), strategy="multi_budget")

    def test_query_budget_must_be_vector_max(self, engine):
        with pytest.raises(ValueError, match="max"):
            engine.route(
                RoutingQuery(0, 24, 40), strategy="multi_budget", budgets=[20, 30]
            )

    @pytest.mark.parametrize("bad", [[], [0], [10.5], [-3]])
    def test_bad_budget_vectors_rejected(self, engine, bad):
        with pytest.raises((ValueError, TypeError)):
            engine.route_multi_budget(0, 24, bad)

    def test_unreachable_target_all_budgets_empty(self, island_world):
        answer = island_world.route_multi_budget(0, 2, [5, 10])
        assert not answer.found
        assert all(not member.found for member in answer)
        assert answer.probabilities == (0.0, 0.0)

    def test_best_for_unknown_budget_raises(self, engine):
        answer = engine.route_multi_budget(0, 24, [20, 40])
        with pytest.raises(KeyError):
            answer.best_for(30)

    def test_round_trip_via_kind_dispatch(self, engine):
        answer = engine.route_multi_budget(0, 24, [20, 40])
        payload = json.loads(json.dumps(answer.to_dict()))
        assert payload["kind"] == "multi_budget"
        restored = result_from_dict(payload, engine.network)
        assert restored.budgets == answer.budgets
        assert restored.probabilities == answer.probabilities
        assert [m.path for m in restored] == [m.path for m in answer]


class TestKBestStrategy:
    def test_head_matches_pbr(self, engine):
        query = RoutingQuery(0, 24, 40)
        answer = engine.route_kbest(query, 3)
        assert answer.best.probability == pytest.approx(
            engine.route(query).probability, abs=1e-9
        )

    def test_returns_ranked_distinct_routes(self, engine):
        answer = engine.route_kbest(RoutingQuery(2, 22, 38), 3)
        assert 1 <= len(answer.routes) <= 3
        probs = [route.probability for route in answer.routes]
        assert probs == sorted(probs, reverse=True)
        paths = [tuple(e.id for e in route.path) for route in answer.routes]
        assert len(set(paths)) == len(paths)

    def test_requires_k_kwarg(self, engine):
        with pytest.raises(ValueError, match="k"):
            engine.route(RoutingQuery(0, 24, 40), strategy="kbest")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_k_rejected(self, engine, bad):
        with pytest.raises(ValueError):
            engine.route_kbest(RoutingQuery(0, 24, 40), bad)

    def test_unreachable_target_no_routes(self, island_world):
        answer = island_world.route_kbest(RoutingQuery(0, 2, 10), 2)
        assert not answer.found
        assert answer.routes == ()

    def test_round_trip_via_kind_dispatch(self, engine):
        answer = engine.route_kbest(RoutingQuery(2, 22, 38), 3)
        payload = json.loads(json.dumps(answer.to_dict()))
        assert payload["kind"] == "kbest"
        restored = result_from_dict(payload, engine.network)
        assert restored.k == answer.k
        assert [r.path for r in restored] == [r.path for r in answer]


class TestRouteManySerial:
    """Batches are serial and target-grouped: every member is exactly the
    answer :meth:`RoutingEngine.route` gives it alone."""

    BATCH = [
        (0, 24, 40),
        (5, 3, 35),
        (1, 24, 45),
        (20, 4, 50),
        (2, 22, 38),
        (6, 24, 42),
    ]

    def _queries(self):
        return [RoutingQuery(s, t, b) for s, t, b in self.BATCH]

    def test_members_equal_route_per_query(self, engine):
        queries = self._queries()
        batch = engine.route_many(queries)
        alone = [engine.route(query) for query in queries]
        assert len(batch) == len(alone)
        for mine, reference in zip(batch, alone):
            assert mine.query == reference.query
            assert mine.path == reference.path
            assert mine.probability == reference.probability
        assert batch.stats.labels_generated == sum(
            r.stats.labels_generated for r in alone
        )
        assert batch.num_found == sum(r.found for r in alone)
        assert batch.stats.completed

    def test_single_query_batch(self, engine):
        batch = engine.route_many([RoutingQuery(0, 24, 40)])
        assert batch[0].path == engine.route(RoutingQuery(0, 24, 40)).path

    def test_strategy_kwargs_reach_every_member(self, engine):
        queries = [RoutingQuery(0, 24, 40), RoutingQuery(1, 24, 40)]
        batch = engine.route_many(queries, strategy="multi_budget", budgets=[20, 40])
        for query, answer in zip(queries, batch):
            reference = engine.route(
                query, strategy="multi_budget", budgets=[20, 40]
            )
            assert answer.budgets == reference.budgets
            assert [m.path for m in answer] == [m.path for m in reference]
            assert answer.probabilities == reference.probabilities

    def test_workers_is_not_a_parameter(self, engine):
        # The sharded path is gone; the old keyword must fail loudly, not
        # be silently accepted.
        with pytest.raises(TypeError, match="workers"):
            engine.route_many(self._queries(), workers=2)

    def test_validation_error_mid_batch_surfaces(self, engine):
        # kbest validates k per member: the batch re-raises instead of
        # answering partially.
        queries = [RoutingQuery(0, 24, 40), RoutingQuery(5, 3, 35)]
        with pytest.raises(ValueError, match="k=<positive int>"):
            engine.route_many(queries, strategy="kbest")

    def test_strategy_raising_partway_surfaces_the_error(self, engine):
        routed = []

        @register_strategy("explode_on_target_3")
        def explode_on_target_3(eng, query, *, time_limit_seconds):
            """Succeeds until it meets target 3 partway through the batch."""
            if query.target == 3:
                raise RuntimeError("boom at target 3")
            routed.append(query.target)
            return eng.route(query, strategy="pbr")

        # Target groups run in ascending target order, so target 2's group
        # is answered before target 3's raises: a genuinely partial batch.
        queries = [
            RoutingQuery(0, 24, 40),
            RoutingQuery(1, 24, 41),
            RoutingQuery(5, 3, 35),
            RoutingQuery(20, 4, 50),
            RoutingQuery(2, 22, 38),
            RoutingQuery(21, 2, 45),
        ]
        try:
            with pytest.raises(RuntimeError, match="boom at target 3"):
                engine.route_many(queries, strategy="explode_on_target_3")
            assert routed == [2]
        finally:
            engine_module._STRATEGIES.pop("explode_on_target_3", None)


class TestBatchOutcomeAccounting:
    """found / no-route / unanswered are three distinct batch outcomes."""

    def test_unreachable_member_is_no_route_not_unanswered(self, island_world):
        batch = island_world.route_many(
            [RoutingQuery(0, 1, 10), RoutingQuery(0, 2, 10)]
        )
        assert batch.num_found == 1
        assert batch.num_no_route == 1
        assert batch.num_unanswered == 0
        payload = batch.to_dict()
        assert payload["num_no_route"] == 1
        assert payload["num_unanswered"] == 0
        assert payload["results"][1]["found"] is False

    def test_declining_strategy_is_unanswered_not_no_route(self, engine):
        @register_strategy("gives_up")
        def gives_up(eng, query, *, time_limit_seconds):
            """Times out before producing anything: returns None."""
            return None

        try:
            batch = engine.route_many(
                [RoutingQuery(0, 24, 40), RoutingQuery(5, 3, 35)],
                strategy="gives_up",
            )
            assert batch.num_unanswered == 2
            assert batch.num_found == 0
            assert batch.num_no_route == 0
            assert list(batch) == [None, None]
            payload = json.loads(json.dumps(batch.to_dict()))
            assert payload["results"] == [None, None]
            assert payload["num_unanswered"] == 2
            # Aggregated stats must skip unanswered members, not crash.
            assert batch.stats.labels_generated == 0
        finally:
            engine_module._STRATEGIES.pop("gives_up", None)

    def test_mixed_batch_counts_every_outcome_once(self, island_world):
        @register_strategy("gives_up_on_reachable")
        def gives_up_on_reachable(eng, query, *, time_limit_seconds):
            if query.target == 1:
                return None
            return eng.route(query, strategy="pbr")

        try:
            batch = island_world.route_many(
                [RoutingQuery(0, 1, 10), RoutingQuery(0, 2, 10)],
                strategy="gives_up_on_reachable",
            )
            assert batch.num_unanswered == 1
            assert batch.num_no_route == 1
            assert batch.num_found == 0
            assert (
                batch.num_found + batch.num_no_route + batch.num_unanswered
                == len(batch)
            )
        finally:
            engine_module._STRATEGIES.pop("gives_up_on_reachable", None)


class TestEngineCaching:
    def test_heuristic_shared_across_strategies_and_batches(self, engine):
        first = engine.heuristic_for(24)
        engine.route(RoutingQuery(0, 24, 40))
        engine.route_many([RoutingQuery(1, 24, 40)])
        assert engine.heuristic_for(24) is first

    def test_repr_names_combiner(self, engine):
        assert "ConvolutionModel" in repr(engine)
