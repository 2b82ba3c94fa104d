"""Tests for the ``depart_when`` strategy: one shared search per window.

The contract: :meth:`RoutingEngine.route_depart_when` answers "when should
I leave?" over a departure-time vector with *one* multi-budget label
search, and every per-departure entry is bit-equal to the independent
``pbr`` answer at that departure's budget — sharing the Pareto frontier
work never changes an answer.  Arrive-by mode maps each departure onto the
budget grid with a floor (a departure at or past the deadline is
infeasible, not an error); ties in the best pick — probabilities within
the dominance tolerance — go to the *latest* departure.
"""

import dataclasses
import json

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import (
    DepartWhenResult,
    RoutingEngine,
    RoutingQuery,
    SearchStats,
    budget_ticks_for_departure,
    normalize_departures,
    result_from_dict,
)
from repro.trajectories import CongestionModel

RESOLUTION = 5.0


@pytest.fixture(scope="module")
def world():
    net = grid_network(5, 5, seed=2)
    model = CongestionModel(net, seed=3)
    costs = EdgeCostTable(net, resolution=RESOLUTION)
    for edge in net.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return net, ConvolutionModel(costs)


@pytest.fixture(scope="module")
def engine(world):
    net, conv = world
    return RoutingEngine(net, conv)


def assert_entry_matches(entry, reference, where=""):
    # The multi-budget parity contract (see TestMultiBudgetStrategy):
    # same path, probability to within clipping noise.  Distributions are
    # not compared bit-for-bit — the shared search clips at the window's
    # largest budget, an independent run at its own.
    assert entry.found == reference.found, where
    assert [e.id for e in entry.path] == [e.id for e in reference.path], where
    assert entry.probability == pytest.approx(
        reference.probability, abs=1e-9
    ), where


# ----------------------------------------------------------------------
# Input normalisation and the budget grid
# ----------------------------------------------------------------------


class TestNormalizeDepartures:
    def test_sorts_and_dedupes(self):
        assert normalize_departures([30.0, 10, 20.0, 10.0]) == (10.0, 20.0, 30.0)

    @pytest.mark.parametrize(
        "bad",
        [[], [float("nan")], [float("inf")], [True], ["9am"], "0900", None],
    )
    def test_rejects_junk(self, bad):
        with pytest.raises((ValueError, TypeError)):
            normalize_departures(bad)


class TestBudgetTicks:
    def test_floors_the_window_onto_the_grid(self):
        # 100 s window at 5 s/tick = exactly 20 ticks.
        assert budget_ticks_for_departure(0.0, 100.0, 5.0) == 20
        # 99 s floors to 19 — an arrive-by guarantee never rounds up.
        assert budget_ticks_for_departure(1.0, 100.0, 5.0) == 19

    def test_exact_multiples_do_not_lose_a_tick_to_float_noise(self):
        # 0.3/0.1 is 2.9999... in binary; the epsilon guard keeps the
        # floor at the intended 3.
        assert budget_ticks_for_departure(0.0, 0.3, 0.1) == 3

    def test_at_or_past_the_deadline_is_zero(self):
        assert budget_ticks_for_departure(100.0, 100.0, 5.0) == 0
        assert budget_ticks_for_departure(200.0, 100.0, 5.0) == 0
        assert budget_ticks_for_departure(99.0, 100.0, 5.0) == 0  # < one tick


# ----------------------------------------------------------------------
# The strategy against brute force
# ----------------------------------------------------------------------


class TestDepartWhenVsBruteForce:
    def test_arrive_by_matches_independent_pbr_per_departure(self, engine):
        arrive_by = 400.0
        departures = [0.0, 50.0, 120.0, 250.0, 390.0, 400.0, 500.0]
        answer = engine.route_depart_when(
            0, 24, departures, arrive_by_seconds=arrive_by
        )
        assert isinstance(answer, DepartWhenResult)
        assert answer.departures == normalize_departures(departures)
        for departure, budget, entry in answer.items():
            expected = budget_ticks_for_departure(
                departure, arrive_by, RESOLUTION
            )
            assert budget == expected
            if budget == 0:
                assert entry is None
                continue
            reference = engine.route(RoutingQuery(0, 24, budget))
            assert_entry_matches(entry, reference, departure)
        # Departures at or past the deadline came back infeasible.
        assert answer.budgets[-2:] == (0, 0)
        assert answer.probabilities[-2:] == (0.0, 0.0)

    def test_fixed_budget_mode_entries_all_match_single_pbr(self, engine):
        answer = engine.route_depart_when(0, 24, [10.0, 20.0, 30.0], budget=45)
        reference = engine.route(RoutingQuery(0, 24, 45))
        for _, budget, entry in answer.items():
            assert budget == 45
            assert_entry_matches(entry, reference)

    def test_one_shared_search_not_k(self, engine):
        """The whole window is answered by one label search: its stats
        equal the one multi-budget search's, and expand strictly fewer
        labels than the per-departure searches combined."""
        arrive_by = 400.0
        departures = [0.0, 50.0, 120.0, 250.0]
        answer = engine.route_depart_when(
            0, 24, departures, arrive_by_seconds=arrive_by
        )
        budgets = tuple(
            sorted(
                {
                    budget_ticks_for_departure(d, arrive_by, RESOLUTION)
                    for d in departures
                }
            )
        )
        shared = engine.route_multi_budget(0, 24, budgets)
        assert answer.stats.labels_expanded == shared.stats.labels_expanded
        assert answer.stats.labels_generated == shared.stats.labels_generated
        independent = sum(
            engine.route(RoutingQuery(0, 24, b)).stats.labels_expanded
            for b in budgets
        )
        assert answer.stats.labels_expanded < independent

    def test_ties_go_to_the_latest_departure(self, engine):
        # Fixed budget against one table: every entry is identical, so
        # the tie-break must pick the last departure.
        answer = engine.route_depart_when(0, 24, [10.0, 20.0, 30.0], budget=60)
        assert answer.best_departure == 30.0
        assert answer.best_index == 2

    def test_float_noise_is_a_tie_and_goes_to_the_latest_departure(self, engine):
        """Convolution sums make a certain arrival 1.0 or 1.0000000000000002;
        that last bit must not buy an earlier departure.  A strictly better
        earlier departure — by more than the tolerance — still wins."""
        route = engine.route(RoutingQuery(0, 24, 60))
        assert route.found

        def best(probabilities):
            results = tuple(
                dataclasses.replace(route, probability=p) for p in probabilities
            )
            answer = DepartWhenResult(
                query=route.query,
                departures=tuple(float(d) for d in range(len(results))),
                budgets=(60,) * len(results),
                results=results,
            )
            assert answer.to_dict()["best_departure"] == answer.best_departure
            return answer.best_departure

        assert best([1.0000000000000002, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == 6.0
        assert best([0.5, 0.5 + 4e-16, 0.5 - 4e-16]) == 2.0
        assert best([0.9, 0.5]) == 0.0
        assert best([0.5 + 1e-9, 0.5]) == 0.0
        assert best([0.25, 0.5 + 1e-9, 0.5, 0.5]) == 1.0

    def test_unreachable_target_routes_nowhere(self):
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_vertex(2, 200.0, 0.0)
        net.add_edge(0, 1)
        costs = EdgeCostTable(net, resolution=RESOLUTION)
        model = ConvolutionModel(costs)
        island = RoutingEngine(net, model)
        answer = island.route_depart_when(
            0, 2, [0.0, 50.0], arrive_by_seconds=400.0
        )
        assert not answer.found
        assert answer.best_index is None
        assert answer.best is None
        assert answer.best_departure is None


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


class TestDepartWhenValidation:
    def test_exactly_one_mode_required(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            engine.route_depart_when(0, 24, [0.0])
        with pytest.raises(ValueError, match="exactly one"):
            engine.route_depart_when(
                0, 24, [0.0], budget=40, arrive_by_seconds=100.0
            )

    def test_every_departure_past_deadline_raises(self, engine):
        with pytest.raises(ValueError, match="at or past"):
            engine.route_depart_when(
                0, 24, [100.0, 200.0], arrive_by_seconds=50.0
            )

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), True, "soon"]
    )
    def test_bad_arrive_by_rejected(self, engine, bad):
        with pytest.raises(ValueError, match="arrive_by_seconds"):
            engine.route_depart_when(0, 24, [0.0], arrive_by_seconds=bad)

    def test_strategy_requires_departure_times(self, engine):
        with pytest.raises(ValueError, match="departure_times"):
            engine.route(RoutingQuery(0, 24, 40), strategy="depart_when")

    def test_strategy_rejects_mismatched_query_budget(self, engine):
        # query.budget must equal the largest feasible budget.
        with pytest.raises(ValueError, match="largest feasible"):
            engine.route(
                RoutingQuery(0, 24, 40),
                strategy="depart_when",
                departure_times=(0.0,),
                arrive_by_seconds=100.0,
            )


# ----------------------------------------------------------------------
# The result object
# ----------------------------------------------------------------------


class TestDepartWhenResult:
    def build(self, engine):
        return engine.route_depart_when(
            0, 24, [0.0, 50.0, 390.0], arrive_by_seconds=400.0
        )

    def test_wire_round_trip_is_exact(self, engine, world):
        net, _ = world
        answer = self.build(engine)
        document = json.loads(json.dumps(answer.to_dict()))
        assert document["kind"] == "depart_when"
        restored = result_from_dict(document, net)
        assert isinstance(restored, DepartWhenResult)
        assert restored.departures == answer.departures
        assert restored.budgets == answer.budgets
        assert restored.arrive_by_seconds == answer.arrive_by_seconds
        assert restored.best_index == answer.best_index
        for mine, theirs in zip(restored.results, answer.results):
            if theirs is None:
                assert mine is None
            else:
                assert_entry_matches(mine, theirs)

    def test_document_carries_the_best_pick(self, engine):
        answer = self.build(engine)
        document = answer.to_dict()
        assert document["best_index"] == answer.best_index
        assert document["best_departure"] == answer.best_departure
        assert document["found"] is answer.found

    def test_merge_recombines_window_fragments(self, engine):
        whole = engine.route_depart_when(
            0, 24, [0.0, 50.0, 120.0, 250.0], arrive_by_seconds=400.0
        )
        early = engine.route_depart_when(
            0, 24, [0.0, 50.0], arrive_by_seconds=400.0
        )
        late = engine.route_depart_when(
            0, 24, [120.0, 250.0], arrive_by_seconds=400.0
        )
        merged = DepartWhenResult.merge([late, early])  # any order
        assert merged.departures == whole.departures
        assert merged.budgets == whole.budgets
        assert merged.best_departure == whole.best_departure
        for mine, theirs in zip(merged.results, whole.results):
            assert_entry_matches(mine, theirs)

    def test_merge_rejects_mismatched_fragments(self, engine):
        part = self.build(engine)
        other_od = engine.route_depart_when(
            1, 24, [0.0], arrive_by_seconds=400.0
        )
        with pytest.raises(ValueError, match="OD"):
            DepartWhenResult.merge([part, other_od])
        overlapping = engine.route_depart_when(
            0, 24, [0.0], arrive_by_seconds=400.0
        )
        with pytest.raises(ValueError, match="overlap|disjoint"):
            DepartWhenResult.merge([part, overlapping])
        with pytest.raises(ValueError, match="at least one"):
            DepartWhenResult.merge([])

    def test_constructor_validates_alignment(self):
        query = RoutingQuery(0, 24, 40)
        with pytest.raises(ValueError, match="align"):
            DepartWhenResult(
                query=query,
                departures=(0.0, 1.0),
                budgets=(40,),
                results=(None,),
            )
        with pytest.raises(ValueError, match="ascending"):
            DepartWhenResult(
                query=query,
                departures=(1.0, 1.0),
                budgets=(0, 0),
                results=(None, None),
            )
        with pytest.raises(ValueError, match="budget 0"):
            DepartWhenResult(
                query=query,
                departures=(0.0,),
                budgets=(40,),
                results=(None,),
            )

    def test_all_infeasible_result_is_representable(self):
        # The service synthesises these for regimes wholly past the
        # deadline — no search ran, stats empty.
        answer = DepartWhenResult(
            query=RoutingQuery(0, 24, 1),
            departures=(500.0, 600.0),
            budgets=(0, 0),
            results=(None, None),
            arrive_by_seconds=400.0,
        )
        assert not answer.found
        assert answer.probabilities == (0.0, 0.0)
        assert answer.best_index is None
        assert isinstance(answer.stats, SearchStats)
