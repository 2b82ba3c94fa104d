"""Time-varying networks: temporal profiles, scheduled incidents, depart_when.

The contracts locked down here:

* **Boundary semantics** — :meth:`ScenarioSchedule.slice_at` gives every
  boundary second to the slice *starting* there, wraps modulo the day
  (property-tested), and the constructor distinguishes gaps from overlaps
  with distinct errors; :meth:`ScenarioSchedule.from_dict` rejects every
  malformed document with a ``bad_request``-mappable ``ValueError``.
* **Profile compilation** — a degenerate :class:`TemporalCostProfile` is
  the identity (the very same table and schedule objects, bit for bit);
  interpolation bins blend the adjacent anchors with the midpoint rule and
  same-pair boundaries share one table; :class:`TimePlan` windows convolve
  approach delays onto the underlying table.
* **Scheduled incidents** — activation applies effective costs under one
  version bump exactly like a cost update, clearing re-applies the
  captured preimage, and both transitions leave the service answering
  bit-identically to a cold engine built on the equivalent table.
* **depart_when at the service** — grouped per temporal regime, merged,
  cached, and equal to a brute-force per-departure ``route_at`` sweep.
* **Snapshots** — format 2 carries profile spec, clock, pending and
  active incidents; a restored successor clears an inherited incident
  bit-identically; format-1 documents restore with temporal state reset.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.histograms.operations import scale_values
from repro.network import grid_network
from repro.routing import DepartWhenResult, RoutingEngine, RoutingQuery
from repro.service import (
    CLOSURE_TICKS,
    DAY_SECONDS,
    RoutingService,
    ScenarioSchedule,
    ScheduledIncident,
    TemporalCostProfile,
    TimePlan,
    TimeSlice,
    error_kind,
    time_sliced_cost_tables,
)
from repro.trajectories import CongestionModel


@pytest.fixture(scope="module")
def world():
    network = grid_network(5, 5, seed=2)
    model = CongestionModel(network, seed=3)
    return network, model


@pytest.fixture()
def tables(world):
    network, model = world
    return time_sliced_cost_tables(network, model)


def fresh_profile_service(world, tables, **profile_kwargs):
    network, _ = world
    profile = TemporalCostProfile(
        ScenarioSchedule.default(), tables, **profile_kwargs
    )
    return RoutingService.from_temporal_profile(network, profile), profile


def assert_same_answer(mine, reference, where=""):
    assert mine.found == reference.found, where
    assert [e.id for e in mine.path] == [e.id for e in reference.path], where
    assert mine.probability == reference.probability, where
    assert mine.distribution == reference.distribution, where


# ----------------------------------------------------------------------
# Satellite: slice_at boundary semantics, gap/overlap diagnostics
# ----------------------------------------------------------------------


class TestSliceAtBoundaries:
    def test_boundary_second_belongs_to_the_starting_slice(self):
        schedule = ScenarioSchedule.default()
        assert schedule.slice_at(7 * 3600.0) == "peak"  # not off_peak
        assert schedule.slice_at(9 * 3600.0) == "off_peak"  # not peak
        assert schedule.slice_at(22 * 3600.0) == "night"
        assert schedule.slice_at(0.0) == "night"

    def test_midnight_wraps_to_the_first_slice(self):
        schedule = ScenarioSchedule.default()
        assert schedule.slice_at(DAY_SECONDS) == schedule.slice_at(0.0)
        assert schedule.slice_at(3 * DAY_SECONDS) == schedule.slice_at(0.0)
        assert schedule.slice_at(-1.0) == "night"  # counts back from midnight
        assert schedule.slice_at(-3600.0) == "night"  # 23:00 of the prior day

    @given(
        st.floats(
            min_value=-5.0 * DAY_SECONDS,
            max_value=5.0 * DAY_SECONDS,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_resolution_is_periodic_and_total(self, t):
        schedule = ScenarioSchedule.default()
        name = schedule.slice_at(t)
        # Total: always one of the schedule's names.
        assert name in schedule.slice_names
        # Periodic: shifting by whole days never changes the answer.
        assert schedule.slice_at(t + DAY_SECONDS) == name
        assert schedule.slice_at(t % DAY_SECONDS) == name
        # Consistent with interval membership (start inclusive, end
        # exclusive) on the wrapped time.
        wrapped = t % DAY_SECONDS
        if wrapped == DAY_SECONDS:  # tiny negatives round up under %
            wrapped = 0.0
        owner = [
            s for s in schedule.slices if s.start <= wrapped < s.end
        ]
        assert len(owner) == 1 and owner[0].name == name

    @given(st.sampled_from(ScenarioSchedule.default().slices))
    def test_every_interval_start_resolves_to_that_interval(self, member):
        schedule = ScenarioSchedule.default()
        assert schedule.slice_at(member.start) == member.name

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -math.inf])
    def test_non_finite_departures_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScenarioSchedule.default().slice_at(bad)

    def test_gap_and_overlap_get_distinct_diagnostics(self):
        with pytest.raises(ValueError, match="gap") as gap:
            ScenarioSchedule(
                [
                    TimeSlice("a", 0.0, 10_000.0),
                    TimeSlice("b", 20_000.0, DAY_SECONDS),
                ]
            )
        with pytest.raises(ValueError, match="overlap") as overlap:
            ScenarioSchedule(
                [
                    TimeSlice("a", 0.0, 30_000.0),
                    TimeSlice("b", 20_000.0, DAY_SECONDS),
                ]
            )
        # The messages name the culprits and the disputed interval.
        assert "no slice" in str(gap.value)
        assert "[10000.0, 20000.0)" in str(gap.value)
        assert "two slices" in str(overlap.value)
        assert "[20000.0, 30000.0)" in str(overlap.value)

    def test_day_coverage_still_required(self):
        with pytest.raises(ValueError, match="whole day"):
            ScenarioSchedule([TimeSlice("a", 0.0, 10.0)])
        with pytest.raises(ValueError, match="whole day"):
            ScenarioSchedule([TimeSlice("a", 10.0, DAY_SECONDS)])


# ----------------------------------------------------------------------
# Satellite: from_dict hardening
# ----------------------------------------------------------------------


class TestScheduleFromDictHardening:
    def test_round_trip_is_exact(self):
        schedule = ScenarioSchedule.default()
        document = json.loads(json.dumps(schedule.to_dict()))
        assert ScenarioSchedule.from_dict(document) == schedule

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ("not a mapping", "must be a mapping"),
            ({"kind": "schedule"}, "'slices'"),
            ({"slices": "peak"}, "'slices'"),
            ({"slices": {"name": "x"}}, "'slices'"),
            ({"kind": "route", "slices": []}, "kind"),
            ({"slices": ["peak"]}, "slices[0]"),
            (
                {"slices": [{"name": "", "start": 0, "end": DAY_SECONDS}]},
                "non-empty string",
            ),
            (
                {"slices": [{"name": 3, "start": 0, "end": DAY_SECONDS}]},
                "non-empty string",
            ),
            (
                {"slices": [{"name": "a", "end": DAY_SECONDS}]},
                "slices[0].start",
            ),
            (
                {
                    "slices": [
                        {"name": "a", "start": float("nan"), "end": DAY_SECONDS}
                    ]
                },
                "slices[0].start",
            ),
            (
                {"slices": [{"name": "a", "start": True, "end": DAY_SECONDS}]},
                "slices[0].start",
            ),
        ],
    )
    def test_malformed_documents_raise_descriptive_value_errors(
        self, document, fragment
    ):
        with pytest.raises(ValueError) as caught:
            ScenarioSchedule.from_dict(document)
        assert fragment in str(caught.value)
        # Every one of these maps to a client error on the wire, never
        # an internal fault.
        assert error_kind(caught.value) == "bad_request"

    def test_wire_restore_surfaces_bad_schedules_as_bad_request(self, world):
        network, model = world
        tables = time_sliced_cost_tables(network, model)
        service = RoutingService.from_time_slices(network, tables)
        document = service.snapshot()
        document["schedule"] = {"slices": ["peak"]}
        with pytest.raises(ValueError, match="slices"):
            service.restore(document)


# ----------------------------------------------------------------------
# TimePlan
# ----------------------------------------------------------------------


class TestTimePlan:
    def approaches(self, network, node):
        return [e.id for e in network.edges if e.target == node]

    def test_from_phase_times_shapes_the_delay(self, world):
        network, _ = world
        edge_id = self.approaches(network, 12)[0]
        plan = TimePlan.from_phase_times(
            12,
            7 * 3600.0,
            9 * 3600.0,
            {edge_id: (30.0, 90.0)},
            resolution=5.0,
        )
        delay = plan.approach_delays[edge_id]
        # Green with probability green/cycle, else uniform over red ticks.
        assert delay.probs[0] == pytest.approx(30.0 / 90.0)
        red_ticks = round(60.0 / 5.0)
        assert len(delay.probs) == red_ticks + 1
        for tick in range(1, red_ticks + 1):
            assert delay.probs[tick] == pytest.approx((2.0 / 3.0) / red_ticks)
        # All-green means no delay at all.
        always = TimePlan.from_phase_times(
            12, 0.0, 3600.0, {edge_id: (90.0, 90.0)}, resolution=5.0
        )
        assert always.approach_delays[edge_id] == DiscreteDistribution.point(0)

    @pytest.mark.parametrize(
        "green, cycle", [(0.0, 90.0), (-1.0, 90.0), (100.0, 90.0), (30.0, math.inf)]
    )
    def test_bad_phase_times_rejected(self, world, green, cycle):
        network, _ = world
        edge_id = self.approaches(network, 12)[0]
        with pytest.raises(ValueError, match="green"):
            TimePlan.from_phase_times(
                12, 0.0, 3600.0, {edge_id: (green, cycle)}, resolution=5.0
            )

    def test_window_and_delay_validation(self, world):
        network, _ = world
        edge_id = self.approaches(network, 12)[0]
        delay = DiscreteDistribution.point(2)
        with pytest.raises(ValueError, match="window"):
            TimePlan(12, 3600.0, 3600.0, {edge_id: delay})
        with pytest.raises(ValueError, match="window"):
            TimePlan(12, -1.0, 3600.0, {edge_id: delay})
        with pytest.raises(ValueError, match="non-empty"):
            TimePlan(12, 0.0, 3600.0, {})
        with pytest.raises(ValueError, match="non-negative"):
            TimePlan(
                12, 0.0, 3600.0, {edge_id: DiscreteDistribution(-2, [1.0])}
            )

    def test_profile_rejects_non_approach_edges(self, world, tables):
        network, _ = world
        leaving = [e.id for e in network.edges if e.source == 12][0]
        plan = TimePlan(12, 0.0, 3600.0, {leaving: DiscreteDistribution.point(1)})
        with pytest.raises(ValueError, match="not an approach"):
            TemporalCostProfile(
                ScenarioSchedule.default(), tables, time_plans=[plan]
            )


# ----------------------------------------------------------------------
# TemporalCostProfile compilation
# ----------------------------------------------------------------------


def table_for(profile, departure_time_seconds):
    """``(regime name, table)`` serving a departure time."""
    name = profile.expanded_schedule().slice_at(departure_time_seconds)
    return name, profile.tables()[name]


class TestTemporalProfile:
    def test_degenerate_profile_is_the_identity(self, tables):
        schedule = ScenarioSchedule.default()
        profile = TemporalCostProfile(schedule, tables)
        compiled = profile.tables()
        assert set(compiled) == set(tables)
        for name in tables:
            assert compiled[name] is tables[name]  # the same objects
        assert profile.expanded_schedule() is schedule

    def test_interpolation_bins_blend_with_the_midpoint_rule(self, world, tables):
        network, _ = world
        profile = TemporalCostProfile(
            ScenarioSchedule.default(),
            tables,
            interpolation_points=3,
            transition_seconds=1800.0,
        )
        compiled = profile.tables()
        # 3 anchors + 4 distinct adjacent pairs x 3 bins: the two
        # off_peak->peak boundaries (07:00 and 16:00) share tables, as do
        # the night->off_peak/off_peak->night/peak->off_peak pairs.
        assert len(compiled) == 3 + 4 * 3
        name, table = table_for(profile, 7.0 * 3600.0)  # middle bin at 07:00
        assert name == "off_peak->peak#2/3"
        direct = EdgeCostTable.interpolate(
            tables["off_peak"], tables["peak"], 0.5
        )
        edge = network.edges[0]
        assert table.cost(edge) == direct.cost(edge)
        # The same bin serves the 16:00 boundary — one table, two windows.
        name_pm, table_pm = table_for(profile, 16.0 * 3600.0 - 1.0)
        assert name_pm == name and table_pm is table

    def test_band_edges_approach_the_anchors(self, world, tables):
        network, _ = world
        profile = TemporalCostProfile(
            ScenarioSchedule.default(),
            tables,
            interpolation_points=4,
            transition_seconds=1800.0,
        )
        edge = network.edges[3]
        first = table_for(profile, 6.75 * 3600.0 + 1.0)[1]  # first bin
        last = table_for(profile, 7.25 * 3600.0 - 1.0)[1]  # last bin
        off_peak = tables["off_peak"].cost(edge).mean()
        peak = tables["peak"].cost(edge).mean()
        lo, hi = sorted((off_peak, peak))
        for blended in (first.cost(edge).mean(), last.cost(edge).mean()):
            assert lo - 1e-9 <= blended <= hi + 1e-9
        # And the first bin sits nearer off_peak than the last does.
        if off_peak != peak:
            assert abs(first.cost(edge).mean() - off_peak) < abs(
                last.cost(edge).mean() - off_peak
            )

    def test_expanded_schedule_is_total_and_consistent(self, tables):
        profile = TemporalCostProfile(
            ScenarioSchedule.default(),
            tables,
            interpolation_points=2,
        )
        expanded = profile.expanded_schedule()
        # Still a valid, gap-free schedule over the day whose every name
        # has a table.
        assert {s.name for s in expanded.slices} == set(profile.slice_names)
        for t in (0.0, 6.74 * 3600, 6.76 * 3600, 7.2 * 3600, 12.0 * 3600):
            assert expanded.slice_at(t) in profile.tables()

    def test_time_plan_windows_convolve_approach_delays(self, world, tables):
        network, _ = world
        node = 12
        edge_id = [e.id for e in network.edges if e.target == node][0]
        delay = DiscreteDistribution.point(3)
        plan = TimePlan(node, 8 * 3600.0, 8.5 * 3600.0, {edge_id: delay})
        profile = TemporalCostProfile(
            ScenarioSchedule.default(), tables, time_plans=[plan]
        )
        name, table = table_for(profile, 8.2 * 3600.0)
        assert name == "peak+plan0"
        edge = network.edge(edge_id)
        assert table.cost(edge) == tables["peak"].cost(edge).convolve(delay)
        # Outside the window the anchor serves untouched.
        assert table_for(profile, 8.6 * 3600.0)[1] is tables["peak"]

    def test_slices_in_window_is_wrap_aware(self, tables):
        schedule = TemporalCostProfile(ScenarioSchedule.default(), tables).expanded_schedule()
        assert schedule.slices_in_window(7.5 * 3600, 8 * 3600) == ("peak",)
        assert set(schedule.slices_in_window(6.5 * 3600, 9.5 * 3600)) == {
            "off_peak",
            "peak",
        }
        # Crossing midnight picks up both sides.
        assert set(schedule.slices_in_window(23 * 3600, 25 * 3600)) == {"night"}
        assert set(
            schedule.slices_in_window(21 * 3600, 30.5 * 3600)
        ) == {"off_peak", "night"}
        # A window of a day or more covers everything.
        assert set(schedule.slices_in_window(0.0, DAY_SECONDS)) == {
            "night",
            "off_peak",
            "peak",
        }
        with pytest.raises(ValueError, match="exceed"):
            schedule.slices_in_window(100.0, 100.0)

    def test_spec_round_trips_and_compares(self, world, tables):
        profile = TemporalCostProfile(
            ScenarioSchedule.default(),
            tables,
            interpolation_points=2,
            transition_seconds=1200.0,
        )
        spec = json.loads(json.dumps(profile.to_dict()))
        assert spec["kind"] == "temporal_profile"
        assert spec == profile.to_dict()
        same = TemporalCostProfile(
            ScenarioSchedule.default(),
            {name: table.copy() for name, table in tables.items()},
            interpolation_points=2,
            transition_seconds=1200.0,
        )
        assert same == profile
        different = TemporalCostProfile(ScenarioSchedule.default(), tables)
        assert different != profile

    def test_constructor_validation(self, tables):
        schedule = ScenarioSchedule.default()
        with pytest.raises(ValueError, match="no anchor table"):
            TemporalCostProfile(schedule, {"peak": tables["peak"]})
        with pytest.raises(ValueError, match="interpolation_points"):
            TemporalCostProfile(schedule, tables, interpolation_points=1.5)
        with pytest.raises(ValueError, match="interpolation_points"):
            TemporalCostProfile(schedule, tables, interpolation_points=-1)
        with pytest.raises(ValueError, match="transition_seconds"):
            TemporalCostProfile(
                schedule, tables, interpolation_points=2, transition_seconds=0.0
            )


# ----------------------------------------------------------------------
# ScheduledIncident
# ----------------------------------------------------------------------


class TestScheduledIncident:
    def test_closure_prices_every_edge_at_the_blocked_mass(self):
        incident = ScheduledIncident.closure("c", [3, 5, 3], 10.0, 20.0)
        blocked = DiscreteDistribution.point(CLOSURE_TICKS)
        assert incident.affected_edge_ids == (3, 5)
        assert incident.effective_costs({}) == {3: blocked, 5: blocked}

    def test_capacity_drop_scales_the_live_histogram(self):
        incident = ScheduledIncident.capacity_drop("d", [7], 2.0, 10.0, 20.0)
        current = DiscreteDistribution(2, [0.5, 0.5])
        assert incident.effective_costs({7: current}) == {
            7: scale_values(current, 2.0)
        }
        with pytest.raises(KeyError, match="no current cost"):
            incident.effective_costs({})

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(incident_id="", start_time=0, end_time=1, scale=2.0, edge_ids=(1,)), "incident_id"),
            (dict(incident_id="x", start_time=-1, end_time=1, scale=2.0, edge_ids=(1,)), "start_time"),
            (dict(incident_id="x", start_time=5, end_time=5, scale=2.0, edge_ids=(1,)), "end_time"),
            (dict(incident_id="x", start_time=0, end_time=float("nan"), scale=2.0, edge_ids=(1,)), "end_time"),
            (dict(incident_id="x", start_time=0, end_time=1), "exactly one effect"),
            (
                dict(
                    incident_id="x",
                    start_time=0,
                    end_time=1,
                    costs={1: DiscreteDistribution.point(1)},
                    scale=2.0,
                ),
                "exactly one effect",
            ),
            (dict(incident_id="x", start_time=0, end_time=1, scale=0.0, edge_ids=(1,)), "scale"),
            (dict(incident_id="x", start_time=0, end_time=1, scale=2.0), "edge id"),
            (dict(incident_id="x", start_time=0, end_time=1, scale=2.0, edge_ids=(-1,)), "edge id"),
            (
                dict(
                    incident_id="x",
                    start_time=0,
                    end_time=1,
                    costs={1: DiscreteDistribution.point(1)},
                    edge_ids=(1,),
                ),
                "only pairs with",
            ),
            (dict(incident_id="x", start_time=0, end_time=1, scale=2.0, edge_ids=(1,), slices=()), "slices"),
        ],
    )
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ValueError) as caught:
            ScheduledIncident(**kwargs)
        assert fragment in str(caught.value)
        assert error_kind(caught.value) == "bad_request"

    def test_capacity_drop_requires_a_real_slowdown(self):
        with pytest.raises(ValueError, match="> 1"):
            ScheduledIncident.capacity_drop("d", [1], 1.0, 0.0, 10.0)

    def test_wire_round_trip_including_open_ended(self):
        closure = ScheduledIncident.closure(
            "c", [3, 5], 10.0, math.inf, slices=["peak"]
        )
        document = json.loads(json.dumps(closure.to_dict()))
        assert document["end_time"] == "inf"
        restored = ScheduledIncident.from_dict(document)
        assert restored == closure
        drop = ScheduledIncident.capacity_drop("d", [7, 9], 1.5, 0.0, 50.0)
        assert (
            ScheduledIncident.from_dict(json.loads(json.dumps(drop.to_dict())))
            == drop
        )

    @pytest.mark.parametrize(
        "document",
        [
            "closure",
            {"kind": "route"},
            {"incident_id": "x", "start_time": 0, "end_time": 1, "costs": "all"},
            {"incident_id": "x", "start_time": 0, "end_time": 1, "scale": 2.0,
             "edge_ids": [1], "slices": "peak"},
        ],
    )
    def test_malformed_documents_raise_value_errors(self, document):
        with pytest.raises(ValueError):
            ScheduledIncident.from_dict(document)


# ----------------------------------------------------------------------
# Incident lifecycle on the service
# ----------------------------------------------------------------------


class TestIncidentLifecycle:
    def test_activation_and_clearing_are_cold_engine_identical(self, world, tables):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        query = RoutingQuery(0, 24, 45)
        edge_ids = [network.edges[10].id, network.edges[11].id]
        incident = ScheduledIncident.closure(
            "acc", edge_ids, 100.0, 200.0, slices=["peak"]
        )

        # Cold references, copied before anything mutates.
        base = tables["peak"].copy()
        cold_before = RoutingEngine(network, ConvolutionModel(base.copy()))
        preimage = {e: base.cost(network.edge(e)) for e in edge_ids}
        with_incident = base.copy()
        with_incident.apply_deltas(incident.effective_costs(preimage))
        cold_during = RoutingEngine(network, ConvolutionModel(with_incident))

        service.schedule_incident(incident)
        before = service.route(query, slice_name="peak")
        assert_same_answer(before.result, cold_before.route(query), "before")
        assert service.incidents()["pending"][0]["incident_id"] == "acc"

        version = service.cost_version("peak")
        events = service.advance_clock(150.0)
        assert events == [
            {"incident_id": "acc", "event": "activated", "slices": ["peak"]}
        ]
        assert service.cost_version("peak") == version + 1
        during = service.route(query, slice_name="peak")
        assert_same_answer(during.result, cold_during.route(query), "during")
        # Off-peak never saw the incident.
        off_peak = service.route(query, slice_name="off_peak")
        assert off_peak.cost_version == service.cost_version("off_peak")

        events = service.advance_clock(200.0)  # end is exclusive: clears
        assert events == [
            {"incident_id": "acc", "event": "cleared", "slices": ["peak"]}
        ]
        assert service.cost_version("peak") == version + 2
        after = service.route(query, slice_name="peak")
        assert_same_answer(after.result, cold_before.route(query), "after")
        stats = service.stats()
        assert stats.incidents_activated == 1
        assert stats.incidents_cleared == 1
        assert (stats.incidents_pending, stats.incidents_active) == (0, 0)

    def test_scale_incident_composes_with_the_live_feed(self, world, tables):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        edge = network.edges[4]
        incident = ScheduledIncident.capacity_drop(
            "slow", [edge.id], 2.0, 10.0, 20.0, slices=["peak"]
        )
        service.schedule_incident(incident)
        # The feed moves the edge *after* scheduling, before activation:
        # the drop must scale the post-update histogram, and clearing
        # must restore exactly it.
        updated = DiscreteDistribution(3, [0.25, 0.5, 0.25])
        service.apply_cost_update({edge.id: updated}, slice_name="peak")
        service.advance_clock(15.0)
        live = service.engine("peak").combiner.costs.cost(edge)
        assert live == scale_values(updated, 2.0)
        service.advance_clock(25.0)
        assert service.engine("peak").combiner.costs.cost(edge) == updated

    def test_default_fanout_covers_every_regime_in_the_window(self, world, tables):
        network, _ = world
        service, profile = fresh_profile_service(world, tables)
        # 06:30 -> 09:30 on the clock axis crosses off_peak and peak.
        incident = ScheduledIncident.closure(
            "wide", [network.edges[0].id], 6.5 * 3600.0, 9.5 * 3600.0
        )
        service.schedule_incident(incident)
        events = service.advance_clock(7 * 3600.0)
        assert events[0]["event"] == "activated"
        assert set(events[0]["slices"]) == {"off_peak", "peak"}
        versions = {
            name: service.cost_version(name) for name in service.slice_names
        }
        service.advance_clock(9.5 * 3600.0)
        assert service.cost_version("off_peak") == versions["off_peak"] + 1
        assert service.cost_version("peak") == versions["peak"] + 1
        assert service.cost_version("night") == versions["night"]

    @pytest.mark.parametrize("hours", [(2, 3), (7.5, 8.5), (10, 11)], ids=str)
    def test_fanout_does_not_depend_on_the_constructor(self, world, hours):
        """A sliced service and a degenerate profile over the same tables
        and schedule fan one unsliced closure out to the same slices: the
        regime its window resolves to, not the default slice."""
        network, model = world
        sliced = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model), schedule=ScenarioSchedule.default()
        )
        profiled, _ = fresh_profile_service(world, time_sliced_cost_tables(network, model))
        start, end = (hour * 3600.0 for hour in hours)
        timelines = []
        for service in (sliced, profiled):
            service.schedule_incident(
                ScheduledIncident.closure("c", [network.edges[0].id], start, end)
            )
            timelines.append([service.advance_clock(start + 1.0), service.advance_clock(end)])
        assert timelines[0] == timelines[1]
        assert timelines[0][0][0]["slices"] == [ScenarioSchedule.default().slice_at(start)]

    def test_plain_service_defaults_to_the_default_slice(self, world):
        network, model = world
        costs = EdgeCostTable(network, resolution=5.0)
        for edge in network.edges:
            costs.set_cost(edge.id, model.edge_marginal(edge))
        service = RoutingService(network, ConvolutionModel(costs))
        incident = ScheduledIncident.closure(
            "one", [network.edges[0].id], 0.0, 10.0
        )
        service.schedule_incident(incident)
        events = service.advance_clock(5.0)
        assert events[0]["slices"] == [service.default_slice]

    def test_scheduler_validation(self, world, tables):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        incident = ScheduledIncident.closure(
            "dup", [network.edges[0].id], 100.0, 200.0, slices=["peak"]
        )
        service.schedule_incident(incident)
        with pytest.raises(ValueError, match="already scheduled"):
            service.schedule_incident(incident)
        with pytest.raises(KeyError, match="unknown slice"):
            service.schedule_incident(
                ScheduledIncident.closure(
                    "ghost", [1], 0.0, 10.0, slices=["rush_hour"]
                )
            )
        with pytest.raises(TypeError, match="ScheduledIncident"):
            service.schedule_incident({"incident_id": "raw"})
        service.advance_clock(50.0)
        with pytest.raises(ValueError, match="monotone"):
            service.advance_clock(49.0)
        with pytest.raises(ValueError, match="at or before the current clock"):
            service.schedule_incident(
                ScheduledIncident.closure("past", [1], 10.0, 50.0, slices=["peak"])
            )
        with pytest.raises(ValueError, match="finite"):
            service.advance_clock(float("nan"))

    def test_unknown_edge_is_refused_at_schedule_time_over_the_wire(
        self, world, tables
    ):
        """An edge id the network lacks used to be accepted, and then
        failed ``advance_clock`` half-way: the incident sorted before it
        was already activated, its event lost, the clock unmoved and the
        bad incident silently gone from ``pending``."""
        network, _ = world
        service, _ = fresh_profile_service(world, tables)

        def schedule(incident):
            return service.handle_request(
                {"op": "schedule_incident", "incident": incident.to_dict()}
            )

        good = ScheduledIncident.closure(
            "good", [network.edges[0].id], 0.5, 9.0, slices=["peak"]
        )
        bad = ScheduledIncident.closure("zzz-bad", [1_000_000], 0.5, 9.0, slices=["peak"])
        assert schedule(good)["ok"]
        refused = schedule(bad)
        assert refused["ok"] is False and refused["error_kind"] == "bad_request"
        assert "1000000" in refused["error"]
        scaled = ScheduledIncident.capacity_drop(
            "zzz-scaled", [network.num_edges], 2.0, 0.5, 9.0, slices=["peak"]
        )
        assert schedule(scaled)["error_kind"] == "bad_request"

        advanced = service.handle_request({"op": "advance_clock", "now_seconds": 1.0})
        assert advanced["ok"] and advanced["clock"] == 1.0
        assert advanced["events"] == [
            {"incident_id": "good", "event": "activated", "slices": ["peak"]}
        ]
        state = service.handle_request({"op": "incidents"})
        assert state["pending"] == []
        assert [a["incident"]["incident_id"] for a in state["active"]] == ["good"]
        assert service.stats().incidents_activated == 1

    def test_jumped_over_incidents_expire_without_touching_tables(
        self, world, tables
    ):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        incident = ScheduledIncident.closure(
            "missed", [network.edges[0].id], 100.0, 200.0, slices=["peak"]
        )
        service.schedule_incident(incident)
        version = service.cost_version("peak")
        events = service.advance_clock(500.0)  # past the whole window
        assert events == [{"incident_id": "missed", "event": "expired"}]
        assert service.cost_version("peak") == version
        assert service.stats().incidents_activated == 0

    def test_open_ended_incident_stays_active(self, world, tables):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        incident = ScheduledIncident.closure(
            "forever", [network.edges[0].id], 0.0, math.inf, slices=["peak"]
        )
        service.schedule_incident(incident)
        service.advance_clock(1e12)
        state = service.incidents()
        assert [a["incident"]["incident_id"] for a in state["active"]] == [
            "forever"
        ]
        assert state["clock"] == 1e12


# ----------------------------------------------------------------------
# depart_when at the service
# ----------------------------------------------------------------------


class TestServiceDepartWhen:
    DEPARTURES = [
        6.5 * 3600.0,  # off_peak
        6.9 * 3600.0,  # off_peak (pre-boundary)
        7.0 * 3600.0,  # peak (boundary second)
        8.0 * 3600.0,  # peak
        12.0 * 3600.0,  # off_peak
    ]

    def test_matches_a_brute_force_route_at_sweep(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        served = service.depart_when(0, 24, self.DEPARTURES, budget=45)
        answer = served.result
        assert isinstance(answer, DepartWhenResult)
        assert answer.departures == tuple(self.DEPARTURES)
        for departure, budget, entry in answer.items():
            reference = service.route_at(RoutingQuery(0, 24, budget), departure)
            assert [e.id for e in entry.path] == [
                e.id for e in reference.result.path
            ]
            assert entry.probability == pytest.approx(
                reference.result.probability, abs=1e-9
            )
        # The served metadata names the winning departure's regime.
        best = answer.best_departure
        assert served.slice_name == service.schedule.slice_at(best)
        assert served.strategy == "depart_when"

    def test_arrive_by_sweep_with_infeasible_tail(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        arrive_by = 7.2 * 3600.0
        departures = [6.9 * 3600.0, 7.1 * 3600.0, 7.2 * 3600.0, 8.0 * 3600.0]
        served = service.depart_when(
            0, 24, departures, arrive_by_seconds=arrive_by
        )
        answer = served.result
        assert answer.budgets[-2:] == (0, 0)  # at/past the deadline
        for departure, budget, entry in answer.items():
            if budget == 0:
                assert entry is None
                continue
            reference = service.route_at(RoutingQuery(0, 24, budget), departure)
            assert entry.probability == pytest.approx(
                reference.result.probability, abs=1e-9
            )

    def test_fragments_cache_per_regime(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        first = service.depart_when(0, 24, self.DEPARTURES, budget=45)
        assert not first.cache_hit
        second = service.depart_when(0, 24, self.DEPARTURES, budget=45)
        assert second.cache_hit
        assert second.result.to_dict() == first.result.to_dict()
        # A third call reusing only one regime's window still hits it.
        partial = service.depart_when(
            0, 24, [7.0 * 3600.0, 8.0 * 3600.0], budget=45
        )
        assert partial.cache_hit

    def test_every_departure_infeasible_raises(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        with pytest.raises(ValueError, match="at or past"):
            service.depart_when(
                0, 24, [100.0, 200.0], arrive_by_seconds=50.0
            )

    def test_exactly_one_mode_enforced(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        with pytest.raises(ValueError, match="exactly one"):
            service.depart_when(0, 24, [0.0])
        with pytest.raises(ValueError, match="exactly one"):
            service.depart_when(0, 24, [0.0], budget=45, arrive_by_seconds=9.0)

    def test_needs_a_schedule(self, world):
        network, model = world
        costs = EdgeCostTable(network, resolution=5.0)
        for edge in network.edges:
            costs.set_cost(edge.id, model.edge_marginal(edge))
        service = RoutingService(network, ConvolutionModel(costs))
        with pytest.raises(ValueError, match="ScenarioSchedule"):
            service.depart_when(0, 24, [0.0], budget=45)

    def test_wire_op(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        response = service.handle_request(
            {
                "op": "depart_when",
                "source": 0,
                "target": 24,
                "departure_times": self.DEPARTURES,
                "budget": 45,
            }
        )
        assert response["ok"], response
        assert response["result"]["kind"] == "depart_when"
        assert response["strategy"] == "depart_when"
        rejected = service.handle_request(
            {
                "op": "depart_when",
                "source": 0,
                "target": 24,
                "departure_times": self.DEPARTURES,
                "budget": 45,
                "kwargs": {"heuristic": None},
            }
        )
        assert rejected["ok"] is False
        assert rejected["error_kind"] == "bad_request"
        missing = service.handle_request(
            {"op": "depart_when", "source": 0, "target": 24,
             "departure_times": []}
        )
        assert missing["ok"] is False
        # Every entry point shares one arrive-by validation: non-finite,
        # boolean and non-numeric deadlines are client errors on the wire
        # (Infinity used to escape as an "internal" OverflowError; true and
        # "900" used to be served as 1.0 s / 900 s).
        for literal in ("Infinity", "NaN", "true", '"900"'):
            document = json.loads(
                service.handle_json(
                    '{"op": "depart_when", "source": 0, "target": 24, '
                    '"departure_times": [100.0, 200.0], '
                    f'"arrive_by_seconds": {literal}}}'
                )
            )
            assert document["ok"] is False, literal
            assert document["error_kind"] == "bad_request", literal
            assert "arrive_by_seconds" in document["error"], literal


# ----------------------------------------------------------------------
# Snapshots carry the temporal state
# ----------------------------------------------------------------------


class TestTemporalSnapshot:
    @pytest.mark.parametrize("effect", ["closure", "scaled"])
    def test_round_trip_with_pending_and_active_incidents(
        self, world, tables, effect
    ):
        network, _ = world
        service, profile = fresh_profile_service(world, tables)
        pristine = tables["peak"].copy()
        if effect == "closure":
            active = ScheduledIncident.closure(
                "live", [network.edges[2].id], 10.0, 1_000.0, slices=["peak"]
            )
        else:
            # A scaled incident's effect exists only relative to its
            # preimage: clearing it on the successor is bit-identical only
            # if the dump carried the displaced histograms exactly.
            active = ScheduledIncident.capacity_drop(
                "live", [network.edges[2].id, network.edges[3].id], 1.75,
                10.0, 1_000.0, slices=["peak"],
            )
        pending = ScheduledIncident.capacity_drop(
            "later", [network.edges[6].id], 1.5, 5_000.0, 6_000.0,
            slices=["off_peak"],
        )
        service.schedule_incident(active)
        service.schedule_incident(pending)
        service.advance_clock(100.0)
        document = json.loads(json.dumps(service.snapshot()))
        assert document["format_version"] == 2
        assert document["profile"] == profile.to_dict()
        assert document["temporal"]["clock"] == 100.0
        assert [p["incident_id"] for p in document["temporal"]["pending"]] == [
            "later"
        ]
        assert [
            a["incident"]["incident_id"] for a in document["temporal"]["active"]
        ] == ["live"]

        successor, _ = fresh_profile_service(world, tables)
        # Successor tables are the same anchors (shared fixture), so give
        # it fresh copies to prove the dump really carries the state.
        network_, model = world
        fresh_tables = time_sliced_cost_tables(network_, model)
        successor, _ = fresh_profile_service(world, fresh_tables)
        successor.restore(document)
        assert successor.incident_clock == 100.0
        query = RoutingQuery(0, 24, 45)
        mine = service.route(query, slice_name="peak")
        theirs = successor.route(query, slice_name="peak")
        assert_same_answer(mine.result, theirs.result, "active incident")

        # Both clear the inherited incident identically.
        assert (
            service.advance_clock(2_000.0) == successor.advance_clock(2_000.0)
        )
        mine = service.route(query, slice_name="peak")
        theirs = successor.route(query, slice_name="peak")
        assert_same_answer(mine.result, theirs.result, "after clearing")
        # Cleared on a service that never saw the activation, the table is
        # the pre-incident one again, float for float.
        restored = successor.engine("peak").combiner.costs
        for edge in network.edges:
            assert restored.cost(edge) == pristine.cost(edge)
            assert list(restored.cost(edge).probs) == list(pristine.cost(edge).probs)
        # And both still activate the pending one.
        assert (
            service.advance_clock(5_500.0) == successor.advance_clock(5_500.0)
        )
        mine = service.route(query, slice_name="off_peak")
        theirs = successor.route(query, slice_name="off_peak")
        assert_same_answer(mine.result, theirs.result, "pending incident")

    def test_format_1_documents_restore_with_temporal_reset(self, world, tables):
        network, model = world
        service, _ = fresh_profile_service(world, tables)
        incident = ScheduledIncident.closure(
            "gone", [network.edges[0].id], 1_000.0, 2_000.0, slices=["peak"]
        )
        service.schedule_incident(incident)
        service.advance_clock(500.0)
        document = service.snapshot()
        # Strip the snapshot down to what a format-1 producer wrote.
        del document["temporal"]
        del document["profile"]
        document["format_version"] = 1
        successor, _ = fresh_profile_service(
            world, time_sliced_cost_tables(network, model)
        )
        successor.restore(json.loads(json.dumps(document)))
        assert successor.incident_clock == 0.0
        state = successor.incidents()
        assert state["pending"] == [] and state["active"] == []

    def test_profile_mismatch_is_rejected(self, world, tables):
        network, model = world
        service, _ = fresh_profile_service(world, tables)
        document = service.snapshot()
        successor, _ = fresh_profile_service(
            world, time_sliced_cost_tables(network, model)
        )
        document["profile"]["interpolation_points"] = 4
        with pytest.raises(ValueError, match="profile"):
            successor.restore(document)

    def test_unsupported_formats_still_rejected(self, world, tables):
        service, _ = fresh_profile_service(world, tables)
        document = service.snapshot()
        with pytest.raises(ValueError, match="format"):
            service.restore({**document, "format_version": 99})

    def test_wire_ops_cover_the_incident_lifecycle(self, world, tables):
        network, _ = world
        service, _ = fresh_profile_service(world, tables)
        incident = ScheduledIncident.closure(
            "wire", [network.edges[0].id], 10.0, 20.0, slices=["peak"]
        )
        scheduled = service.handle_request(
            {"op": "schedule_incident", "incident": incident.to_dict()}
        )
        assert scheduled["ok"] and scheduled["incident_id"] == "wire"
        state = service.handle_request({"op": "incidents"})
        assert state["ok"] and len(state["pending"]) == 1
        advanced = service.handle_request(
            {"op": "advance_clock", "now_seconds": 15.0}
        )
        assert advanced["ok"] and advanced["events"][0]["event"] == "activated"
        duplicate = service.handle_request(
            {"op": "schedule_incident", "incident": incident.to_dict()}
        )
        assert duplicate["ok"] is False
        assert duplicate["error_kind"] == "bad_request"
        backwards = service.handle_request(
            {"op": "advance_clock", "now_seconds": 5.0}
        )
        assert backwards["ok"] is False
