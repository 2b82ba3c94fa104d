"""Snapshot/restore tests: blue/green handover with bit-identical answers.

The durability contract: :meth:`RoutingService.snapshot` captures every
slice's cost table *with its exact version*, the update-feed position and
(optionally) the live cache; a successor service built the same way and
:meth:`~RoutingService.restore`\\ d from that document answers
byte-for-byte like the predecessor did at snapshot time — same routes,
same probabilities, same distributions, same ``cost_version`` tags.
Replaying the whole update feed over the restored copy is idempotent
(sequence numbers at or below the feed position are skipped), which is
the entire blue/green handover protocol.  Everything crosses a real
``json.dumps``/``json.loads`` pass, because snapshots live in files, not
in the process that wrote them.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import grid_network
from repro.routing import OptimisticHeuristic, RoutingEngine, RoutingQuery
from repro.routing.heuristics import clear_heuristic_cache
from repro.service import (
    SERVICE_SNAPSHOT_FORMAT,
    CostUpdate,
    DAY_SECONDS,
    RoutingService,
    ScenarioSchedule,
    ScheduledIncident,
    TimeSlice,
    time_sliced_cost_tables,
)
from repro.service.snapshots import _decode_key_part, _encode_key_part, check_envelope
from repro.trajectories import CongestionModel

NETWORK = grid_network(5, 5, seed=2)
MODEL = CongestionModel(NETWORK, seed=3)
QUERY = RoutingQuery(0, 24, 40)
QUERIES = [RoutingQuery(0, 24, 40), RoutingQuery(4, 20, 55), RoutingQuery(2, 22, 35)]


def base_costs() -> EdgeCostTable:
    costs = EdgeCostTable(NETWORK, resolution=5.0)
    for edge in NETWORK.edges:
        costs.set_cost(edge.id, MODEL.edge_marginal(edge))
    return costs


def fresh_service(**kwargs) -> RoutingService:
    return RoutingService(NETWORK, ConvolutionModel(base_costs().copy()), **kwargs)


def json_round_trip(document: dict) -> dict:
    """Snapshots live in files: force the document through real JSON text."""
    return json.loads(json.dumps(document))


def shifted_update(shift: int, sequence: int | None = None) -> CostUpdate:
    """A deterministic feed event: a few edges' histograms shifted later."""
    edges = NETWORK.edges[3 * shift : 3 * shift + 3]
    return CostUpdate(
        {
            edge.id: DiscreteDistribution(
                MODEL.edge_marginal(edge).offset + shift,
                list(MODEL.edge_marginal(edge).probs),
            )
            for edge in edges
        },
        source="feed",
        sequence=sequence,
    )


def assert_same_answer(mine, reference, where=""):
    assert mine.found == reference.found, where
    assert [e.id for e in mine.path] == [e.id for e in reference.path], where
    assert mine.probability == reference.probability, where
    assert mine.distribution == reference.distribution, where


# ----------------------------------------------------------------------
# The cost-table layer
# ----------------------------------------------------------------------


class TestCostTableDumps:
    def test_round_trip_is_bit_identical_including_version(self):
        table = base_costs()
        table.apply_deltas(
            {NETWORK.edges[0].id: MODEL.edge_marginal(NETWORK.edges[0])}
        )
        document = json_round_trip(table.to_dict())
        assert document["kind"] == "cost_table"
        restored = EdgeCostTable.from_dict(NETWORK, document)
        assert restored.version == table.version  # exact, not restarted
        for edge in NETWORK.edges:
            assert restored.cost(edge) == table.cost(edge)
            assert list(restored.cost(edge).probs) == list(table.cost(edge).probs)

    def test_restore_swaps_a_live_table_in_place(self):
        source = base_costs()
        source.apply_deltas(
            {NETWORK.edges[5].id: MODEL.edge_marginal(NETWORK.edges[5])}
        )
        target = base_costs().copy()  # version restarts at 0
        assert target.version != source.version
        returned = target.publish(target.decode(json_round_trip(source.to_dict())))
        assert returned == target.version == source.version
        for edge in NETWORK.edges:
            assert target.cost(edge) == source.cost(edge)

    def test_restore_rejects_a_resolution_mismatch(self):
        dump = base_costs().to_dict()
        other = EdgeCostTable(NETWORK, resolution=10.0)
        with pytest.raises(ValueError, match="resolution"):
            other.decode(dump)

    def test_from_dict_rejects_wrong_kind_and_bad_version(self):
        dump = base_costs().to_dict()
        with pytest.raises(ValueError, match="kind"):
            EdgeCostTable.from_dict(NETWORK, {**dump, "kind": "mystery"})
        with pytest.raises(ValueError, match="version"):
            EdgeCostTable.from_dict(NETWORK, {**dump, "version": True})


# ----------------------------------------------------------------------
# The cache-key codec
# ----------------------------------------------------------------------


class TestKeyCodec:
    @pytest.mark.parametrize(
        "key",
        [
            ("default", "pbr", (0, 24, 40), None, None, 7),
            ("peak", "kbest", (1, 2, 3), 0.25, frozenset({("k", 2)}), 0),
            (),
            frozenset(),
            frozenset({1, 2, 3}),
            ("nested", (1, (2, frozenset({("deep", True)})))),
            None,
            "scalar",
            3.5,
        ],
    )
    def test_round_trips_through_json(self, key):
        encoded = json_round_trip(_encode_key_part(key))
        assert _decode_key_part(encoded) == key

    def test_tuples_and_lists_stay_distinguishable_from_sets(self):
        tuple_key = (1, 2)
        set_key = frozenset({1, 2})
        assert _decode_key_part(_encode_key_part(tuple_key)) == tuple_key
        assert _decode_key_part(_encode_key_part(set_key)) == set_key
        assert _encode_key_part(tuple_key) != _encode_key_part(set_key)

    def test_frozenset_encoding_is_deterministic(self):
        key = frozenset({("b", 2), ("a", 1), ("c", 3)})
        assert json.dumps(_encode_key_part(key)) == json.dumps(
            _encode_key_part(frozenset({("c", 3), ("a", 1), ("b", 2)}))
        )


# ----------------------------------------------------------------------
# Service snapshot / restore
# ----------------------------------------------------------------------


class TestSnapshotRestore:
    def test_successor_answers_bit_identically(self):
        predecessor = fresh_service()
        predecessor.apply_cost_update(shifted_update(1))
        before = [predecessor.route(q) for q in QUERIES]

        successor = fresh_service()
        successor.restore(json_round_trip(predecessor.snapshot()))
        for query, reference in zip(QUERIES, before):
            served = successor.route(query)
            assert served.cost_version == reference.cost_version
            assert_same_answer(served.result, reference.result, str(query))

    def test_a_successors_snapshot_equals_the_document_it_restored(self):
        """Serving counters (``requests``, ``updates_applied``) belong to the
        process, so the durable document carries none of them and restore →
        snapshot is the identity; an older document that still carries
        ``updates_applied`` restores all the same."""
        predecessor = fresh_service()
        predecessor.apply_cost_update(shifted_update(1, sequence=1))
        document = json_round_trip(predecessor.snapshot())
        assert "updates_applied" not in document
        for restored in (document, {**document, "updates_applied": 1}):
            successor = fresh_service()
            successor.restore(restored)
            assert json_round_trip(successor.snapshot()) == document
            assert successor.stats().updates_applied == 0

    def test_snapshot_is_plain_json_and_kind_tagged(self):
        document = fresh_service().snapshot()
        assert document["kind"] == "service_snapshot"
        assert document["format_version"] == SERVICE_SNAPSHOT_FORMAT
        assert "cache" not in document  # opt-in only: dumps can be huge
        text = json.dumps(document)
        assert isinstance(text, str)

    def test_cache_dump_warms_the_successor(self):
        predecessor = fresh_service()
        warmed = predecessor.route(QUERY)
        assert not warmed.cache_hit
        document = json_round_trip(predecessor.snapshot(include_cache=True))
        assert len(document["cache"]) == 1

        successor = fresh_service()
        successor.restore(document)
        served = successor.route(QUERY)
        assert served.cache_hit  # no recompute: the dump carried the answer
        assert served.result == warmed.result
        assert served.cost_version == warmed.cost_version

    def test_every_dumped_entry_is_admitted(self):
        """No admission bar stands between a dump and the successor's cache:
        every entry comes back, and the successor dumps the same document."""
        predecessor = fresh_service()
        for query in QUERIES:
            predecessor.route(query)
            predecessor.route(query, strategy="kbest", k=2)
        document = json_round_trip(predecessor.snapshot(include_cache=True))
        assert len(document["cache"]) == 2 * len(QUERIES)

        successor = fresh_service()
        successor.restore(document)
        assert successor.stats().cache_entries == 2 * len(QUERIES)
        assert json_round_trip(successor.snapshot(include_cache=True)) == document
        for query in QUERIES:
            assert successor.route(query, strategy="kbest", k=2).cache_hit

    def test_cache_dump_warms_the_stale_rung_too(self):
        predecessor = fresh_service()
        warmed = predecessor.route(QUERY)
        document = json_round_trip(predecessor.snapshot(include_cache=True))

        successor = fresh_service()
        successor.restore(document)
        # A post-restore update strands the fresh entry; the restored
        # stale store still serves it under an expired deadline.
        successor.apply_cost_update(shifted_update(2))
        served = successor.route(QUERY, deadline_seconds=-1.0)
        assert served.degraded and served.fallback_strategy == "stale_cache"
        assert served.cost_version == warmed.cost_version
        assert served.result == warmed.result

    def test_restore_clears_the_successors_own_caches(self):
        predecessor = fresh_service()
        successor = fresh_service()
        own = successor.route(QUERY)
        assert not own.cache_hit
        successor.restore(json_round_trip(predecessor.snapshot()))
        again = successor.route(QUERY)
        # The pre-restore entry was keyed under a version history the
        # restore replaced: it must be gone, not served.
        assert not again.cache_hit

    def test_multi_slice_snapshot_round_trips_every_slice(self):
        def build():
            return RoutingService.from_time_slices(
                NETWORK, time_sliced_cost_tables(NETWORK, MODEL)
            )

        predecessor = build()
        predecessor.apply_cost_update(shifted_update(1), slice_name="peak")
        answers = {
            name: predecessor.route(QUERY, slice_name=name)
            for name in predecessor.slice_names
        }
        successor = build()
        successor.restore(json_round_trip(predecessor.snapshot()))
        for name, reference in answers.items():
            assert successor.cost_version(name) == predecessor.cost_version(name)
            served = successor.route(QUERY, slice_name=name)
            assert served.cost_version == reference.cost_version
            assert_same_answer(served.result, reference.result, name)
        # Departure-time dispatch works off the restored schedule.
        assert successor.route_at(QUERY, 8 * 3600.0).slice_name == "peak"

    @settings(max_examples=20)
    @given(
        shifts=st.lists(st.integers(min_value=0, max_value=8), max_size=4),
        budget=st.integers(min_value=20, max_value=70),
    )
    def test_any_update_history_restores_bit_identically(self, shifts, budget):
        """Property: whatever updates the predecessor absorbed, the
        restored successor serves the same answer with the same tags."""
        predecessor = fresh_service()
        for shift in shifts:
            predecessor.apply_cost_update(shifted_update(shift))
        query = RoutingQuery(0, 24, budget)
        reference = predecessor.route(query)

        successor = fresh_service()
        successor.restore(json_round_trip(predecessor.snapshot()))
        served = successor.route(query)
        assert served.cost_version == reference.cost_version
        assert_same_answer(served.result, reference.result)


class TestEnvelope:
    @pytest.mark.parametrize("version", [1, 2])
    def test_both_readable_formats_pass(self, version):
        check_envelope({"kind": "service_snapshot", "format_version": version})

    @pytest.mark.parametrize("version", [None, 0, 3, "2"])
    def test_other_format_versions_are_named_in_the_error(self, version):
        document = {"kind": "service_snapshot", "format_version": version}
        expected = f"format: {version!r} (this build reads formats [1, 2])"
        with pytest.raises(ValueError, match=re.escape(expected)):
            check_envelope(document)

    @pytest.mark.parametrize("document", [[], "service_snapshot", {"format_version": 2}])
    def test_non_snapshot_documents_rejected(self, document):
        with pytest.raises(ValueError, match="service.snapshot"):
            check_envelope(document)


class TestRestoreRejections:
    def test_wrong_kind_and_format(self):
        service = fresh_service()
        document = service.snapshot()
        with pytest.raises(ValueError, match="service_snapshot"):
            service.restore({**document, "kind": "mystery"})
        with pytest.raises(ValueError, match="format"):
            service.restore({**document, "format_version": 99})

    def test_slice_set_must_match(self):
        multi = RoutingService.from_time_slices(
            NETWORK, time_sliced_cost_tables(NETWORK, MODEL)
        )
        single = fresh_service()
        with pytest.raises(ValueError, match="slices"):
            single.restore(multi.snapshot())
        with pytest.raises(ValueError, match="slices"):
            multi.restore(single.snapshot())

    def test_default_slice_must_match(self):
        tables = time_sliced_cost_tables(NETWORK, MODEL)
        predecessor = RoutingService.from_time_slices(NETWORK, tables)
        night_first = {"night": tables["night"]}
        night_first.update(tables)  # the same tables; the first is the default
        successor = RoutingService.from_time_slices(NETWORK, night_first)
        assert successor.default_slice == "night" != predecessor.default_slice
        with pytest.raises(ValueError, match="default slice"):
            successor.restore(predecessor.snapshot())

    def test_schedule_must_match(self):
        tables = time_sliced_cost_tables(NETWORK, MODEL)
        predecessor = RoutingService.from_time_slices(NETWORK, tables)
        successor = RoutingService.from_time_slices(
            NETWORK,
            tables,
            schedule=ScenarioSchedule(
                [TimeSlice("peak", 0.0, float(DAY_SECONDS))]
            ),
        )
        with pytest.raises(ValueError, match="schedule"):
            successor.restore(predecessor.snapshot())


def slower_everywhere(sequence: int) -> CostUpdate:
    """Every edge six ticks later: no answer survives it unchanged."""
    return CostUpdate(
        {
            edge.id: DiscreteDistribution(
                MODEL.edge_marginal(edge).offset + 6,
                list(MODEL.edge_marginal(edge).probs),
            )
            for edge in NETWORK.edges
        },
        sequence=sequence,
    )


def cold_answer(service: RoutingService, name: str, query: RoutingQuery):
    """The installed table's version, and a cold engine's answer over a copy of it."""
    installed = service.engine(name).combiner.costs
    cold = RoutingEngine(NETWORK, ConvolutionModel(installed.copy()))
    return installed.version, cold.route(query)


#: One defect per section ``restore`` reads after the envelope: the state
#: is decoded in this order, so each later defect used to find more of the
#: service already overwritten.
CORRUPTIONS = {
    "second-slice-cost-table": lambda doc: doc["slices"][list(doc["slices"])[1]][
        "cost_table"
    ].update(version=True),
    "feed-position": lambda doc: doc.update(feed_position="three"),
    "temporal-entry": lambda doc: doc["temporal"]["active"][0].update(preimages={}),
    "pending-incident-unknown-edge": lambda doc: doc["temporal"]["pending"].append(
        ScheduledIncident.closure("p", [10**6], 200.0, 300.0).to_dict()
    ),
    "cache-entry": lambda doc: doc["cache"][0].update(result={"kind": "mystery"}),
}


def first_cost_table(doc):
    return doc["slices"][list(doc["slices"])[0]]["cost_table"]


#: Numbers the decoder once coerced with a bare ``int()`` / ``float()``:
#: the feed position is a non-negative integer or null, the incident clock
#: a finite number >= 0, a cost table's resolution a positive finite number.
CORRUPTIONS.update(
    {
        **{
            f"feed-position-{name}": lambda doc, value=value: doc.update(feed_position=value)
            for name, value in {"2.7": 2.7, "true": True, "string": "7", "-1": -1}.items()
        },
        **{
            f"incident-clock-{name}": lambda doc, value=value: doc["temporal"].update(
                clock=value
            )
            for name, value in {
                "true": True, "string": "5", "nan": math.nan, "-1": -1.0, "10**400": 10**400,
            }.items()
        },
        "resolution-string": lambda doc: first_cost_table(doc).update(
            resolution=str(first_cost_table(doc)["resolution"])
        ),
        "resolution-true": lambda doc: first_cost_table(doc).update(resolution=True),
    }
)


#: Edge-id key forms a bare ``int()`` once read as the edge ``str(n)`` names.
KEY_FORMS = {
    "plus": lambda key: "+" + key,
    "leading-zero": lambda key: "0" + key,
    "space": lambda key: " " + key,
    "underscore": lambda key: "0_" + key,
    "arabic-indic": lambda key: "".join(chr(0x660 + int(digit)) for digit in key),
}


def rekey(mapping, key, form):
    mapping[KEY_FORMS[form](key)] = mapping.pop(key)


CORRUPTIONS.update(
    {
        **{
            f"cost-table-key-{form}": lambda doc, form=form: rekey(
                first_cost_table(doc)["costs"], "10", form
            )
            for form in KEY_FORMS
        },
        **{
            f"preimage-key-{form}": lambda doc, form=form: rekey(
                next(iter(doc["temporal"]["active"][0]["preimages"].values())), "0", form
            )
            for form in KEY_FORMS
        },
        # Two keys for one edge: whichever came later used to win.
        "cost-table-key-twins": lambda doc: first_cost_table(doc)["costs"].update(
            {"00": first_cost_table(doc)["costs"]["0"]}
        ),
    }
)


class TestRejectedRestoreIsTheIdentity:
    """Decode-then-commit: a document ``restore`` rejects — whichever
    section is at fault — leaves the service exactly as it was."""

    @staticmethod
    def build() -> RoutingService:
        return RoutingService.from_time_slices(
            NETWORK, time_sliced_cost_tables(NETWORK, MODEL)
        )

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_rejected_restore_changes_nothing(self, corrupt):
        predecessor = self.build()
        default = predecessor.default_slice
        predecessor.apply_cost_update(slower_everywhere(sequence=9))
        # Incidents pinned to the default slice: unsliced ones fan out over
        # the schedule, and the version match below is on the default slice.
        predecessor.schedule_incident(
            ScheduledIncident.closure("i1", [NETWORK.edges[0].id], 0.5, 100.0, slices=[default])
        )
        predecessor.advance_clock(1.0)
        predecessor.route(QUERY)
        document = json_round_trip(predecessor.snapshot(include_cache=True))
        corrupt(document)

        # The successor has a history of its own, at the same version on
        # the default slice — so an answer it cached is *keyed* like one
        # the predecessor's table would produce, and only the table under
        # it tells them apart.
        successor = self.build()
        successor.apply_cost_update(shifted_update(1, sequence=1))
        successor.apply_cost_update(shifted_update(2, sequence=2))
        assert successor.cost_version(default) == predecessor.cost_version(default)
        successor.schedule_incident(
            ScheduledIncident.closure("own", [NETWORK.edges[1].id], 50.0, 60.0, slices=[default])
        )
        successor.advance_clock(0.25)
        for name in successor.slice_names:
            successor.route(QUERY, slice_name=name)
        before = successor.snapshot(include_cache=True)
        incidents = successor.incidents()

        with pytest.raises((ValueError, IndexError)):
            successor.restore(document)

        assert successor.snapshot(include_cache=True) == before
        assert successor.incidents() == incidents
        for name in successor.slice_names:
            served = successor.route(QUERY, slice_name=name)
            version, cold = cold_answer(successor, name, QUERY)
            assert served.cache_hit and served.cost_version == version
            assert_same_answer(served.result, cold, name)

    def test_half_applied_restore_served_a_stranded_answer_over_the_wire(self):
        """The reproduction this contract came from, request by request: a
        snapshot whose only defect is one incident's empty ``preimages``
        used to swap the tables, move the clock and bake the closure in
        before raising — and the successor then answered the same query
        from its cache with a probability no table it held could give."""
        request = {"op": "route", "query": QUERY.to_dict()}
        successor = fresh_service()
        successor.apply_cost_update(shifted_update(1))
        successor.apply_cost_update(shifted_update(2))
        first = successor.handle_request(request)
        assert first["ok"] and not first["cache_hit"]

        predecessor = fresh_service()
        predecessor.apply_cost_update(slower_everywhere(sequence=1))
        path = [edge.id for edge in predecessor.route(QUERY).result.path]
        predecessor.schedule_incident(ScheduledIncident.closure("i1", path, 0.5, 9.0))
        predecessor.advance_clock(1.0)
        assert predecessor.cost_version() == successor.cost_version() == 2
        document = json_round_trip(predecessor.snapshot())
        document["temporal"]["active"][0]["preimages"] = {}
        with pytest.raises(ValueError, match="'i1' preimages do not cover"):
            successor.restore(document)

        again = successor.handle_request(request)
        version, cold = cold_answer(successor, successor.default_slice, QUERY)
        assert again["cache_hit"] and again["cost_version"] == version == 2
        assert again["result"]["probability"] == cold.probability
        assert again["result"]["probability"] == first["result"]["probability"]
        assert successor.incident_clock == 0.0
        assert successor.handle_request({"op": "incidents"})["active"] == []


# ----------------------------------------------------------------------
# The blue/green handover protocol
# ----------------------------------------------------------------------


class TestBlueGreenHandover:
    def test_handover_with_feed_replay_is_bit_identical(self):
        """The full protocol: blue serves a sequenced feed, green restores
        blue's mid-feed snapshot and replays the *entire* feed — the
        sequence skip makes the overlap idempotent, and both services end
        bit-identical on every probe query."""
        feed = [shifted_update(shift, sequence=shift + 1) for shift in range(6)]

        blue = fresh_service()
        for event in feed[:3]:
            blue.apply_cost_update(event)
        handover = json_round_trip(blue.snapshot())
        assert handover["feed_position"] == 3

        green = fresh_service()
        green.restore(handover)
        assert green.cost_version() == blue.cost_version()

        # Blue keeps serving the tail; green replays from the very start.
        for event in feed[3:]:
            blue.apply_cost_update(event)
        for event in feed:
            green.apply_cost_update(event)

        assert green.cost_version() == blue.cost_version()
        assert green.stats().updates_applied == 3  # replay skipped 1..3
        for query in QUERIES:
            mine = green.route(query)
            reference = blue.route(query)
            assert mine.cost_version == reference.cost_version
            assert_same_answer(mine.result, reference.result, str(query))

    def test_replayed_prefix_is_skipped_without_version_churn(self):
        service = fresh_service()
        event = shifted_update(1, sequence=5)
        first = service.apply_cost_update(event)
        second = service.apply_cost_update(event)  # duplicate delivery
        stale = service.apply_cost_update(shifted_update(2, sequence=4))
        assert first == second == stale  # neither bumped the version
        advanced = service.apply_cost_update(shifted_update(3, sequence=6))
        assert advanced == first + 1

    def test_unnumbered_updates_always_apply(self):
        service = fresh_service()
        service.apply_cost_update(shifted_update(1, sequence=5))
        before = service.cost_version()
        assert service.apply_cost_update(shifted_update(2)) == before + 1


class TestRestoreIntoADivergedHistory:
    """``restore`` may re-install a version *number* the live table has
    carried before, over different histograms.  Everything derived from the
    earlier holder of that number (lower bounds, kernel block, edge costs)
    must be gone: the served answer equals a cold engine's at the same tag."""

    def test_rollback_then_corrected_feed_on_the_columnar_path(self):
        network = grid_network(36, 36, seed=1)  # 5,040 edges: columnar under "auto"
        costs = EdgeCostTable(network, resolution=1.0)
        for edge in network.edges:
            costs.set_cost(edge.id, DiscreteDistribution(3, [0.5, 0.5]))
        service = RoutingService(network, ConvolutionModel(costs))
        query = RoutingQuery(0, network.num_vertices - 1, 230)
        last_night = json_round_trip(service.snapshot())

        def feed(ticks: int) -> CostUpdate:
            return CostUpdate({e: DiscreteDistribution(ticks, [1.0]) for e in range(400)})

        def resident_graph():
            """Forward min-tick weights of the live cell; the route built them."""
            live = service.engine().combiner.costs.derived(network)
            return live.get("min_tick_graphs", lambda: pytest.fail("not built"))[0].data

        bad = service.apply_cost_update(feed(9))
        assert service.route(query).result.probability < 0.01  # builds v+1 state
        assert set(resident_graph().tolist()) == {3.0, 9.0}
        service.restore(last_night)
        assert service.apply_cost_update(feed(2)) == bad  # the same number again
        clear_heuristic_cache()  # must not be what saves the answer — nor suffice

        served = service.route(query)
        installed = service.engine().combiner.costs
        # The number is the bad feed's; the graph is the corrected cell's own.
        assert set(resident_graph().tolist()) == {2.0, 3.0}
        cold = RoutingEngine(network, ConvolutionModel(installed.copy())).route(query)
        assert not served.cache_hit and served.cost_version == bad
        assert cold.probability == 1.0
        assert_same_answer(served.result, cold)

    def test_replica_restored_from_a_peer_with_a_different_feed_on_the_scalar_path(self):
        def replica() -> RoutingService:
            costs = EdgeCostTable(NETWORK, resolution=1.0)
            for edge in NETWORK.edges:
                costs.set_cost(edge.id, DiscreteDistribution(2, [0.5, 0.5]))
            return RoutingService(NETWORK, ConvolutionModel(costs))

        leaving_home = [edge.id for edge in NETWORK.out_edges(0)]
        peer, mine = replica(), replica()
        peer.apply_cost_update(
            CostUpdate({e: DiscreteDistribution(3, [0.5, 0.5]) for e in leaving_home})
        )
        mine.apply_cost_update(
            CostUpdate({e: DiscreteDistribution(40, [1.0]) for e in leaving_home})
        )
        assert mine.cost_version() == peer.cost_version()  # same number, different tables
        assert mine.route(RoutingQuery(0, 24, 60)).result.found  # builds h(0) = 54
        mine.restore(json_round_trip(peer.snapshot()))

        engine = mine.engine()
        installed = engine.combiner.costs
        fresh = OptimisticHeuristic(NETWORK, installed, 24)
        assert engine.heuristic_for(24).table == fresh.table  # h(0) = 17, admissible
        for edge_id in leaving_home:
            edge = NETWORK.edge(edge_id)
            assert engine.combiner.edge_cost(edge) is installed.cost(edge)
        probabilities = []
        for budget in range(17, 26):
            query = RoutingQuery(0, 24, budget)
            version, cold = cold_answer(mine, mine.default_slice, query)
            served = mine.route(query)
            assert served.cost_version == version
            assert_same_answer(served.result, cold, f"budget {budget}")
            probabilities.append(served.result.probability)
        assert probabilities[0] > 0.0 and probabilities[-1] == 1.0


# ----------------------------------------------------------------------
# Persistence: snapshots on disk, and over the wire
# ----------------------------------------------------------------------


class TestSnapshotPersistence:
    def test_file_round_trip(self, tmp_path):
        predecessor = fresh_service()
        predecessor.apply_cost_update(shifted_update(1))
        reference = predecessor.route(QUERY)
        path = tmp_path / "blue.json"
        path.write_text(json.dumps(predecessor.snapshot(include_cache=True)))
        successor = fresh_service()
        successor.restore(json.loads(path.read_text()))
        served = successor.route(QUERY)
        assert served.cache_hit
        assert served.cost_version == reference.cost_version
        assert_same_answer(served.result, reference.result)

    def test_a_restored_service_writes_the_same_file(self):
        """The document is JSON all the way down: read back and snapshot
        again, it is the same text."""
        predecessor = fresh_service()
        predecessor.apply_cost_update(shifted_update(1))
        predecessor.route(QUERY)
        text = json.dumps(predecessor.snapshot(include_cache=True))
        successor = fresh_service()
        successor.restore(json.loads(text))
        assert json.dumps(successor.snapshot(include_cache=True)) == text

    @pytest.mark.parametrize(
        "tamper, message",
        [({"kind": "mystery"}, "service_snapshot"), ({"format_version": 99}, "format")],
        ids=["kind", "format"],
    )
    def test_a_tampered_file_is_refused_and_the_service_kept(self, tmp_path, tamper, message):
        predecessor = fresh_service()
        predecessor.apply_cost_update(shifted_update(1))
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({**predecessor.snapshot(), **tamper}))
        successor = fresh_service()
        before = successor.route(QUERY)
        with pytest.raises(ValueError, match=message):
            successor.restore(json.loads(path.read_text()))
        after = successor.route(QUERY)
        assert after.cost_version == before.cost_version
        assert_same_answer(after.result, before.result)

    def test_snapshot_over_the_wire(self):
        service = fresh_service()
        service.route(QUERY)
        response = service.handle_request(
            {"op": "snapshot", "include_cache": True}
        )
        assert response["ok"] is True
        assert response["kind"] == "service_snapshot"
        assert len(response["cache"]) == 1

        successor = fresh_service()
        document = {k: v for k, v in response.items() if k != "ok"}
        successor.restore(json_round_trip(document))
        assert successor.route(QUERY).cache_hit

    def test_snapshot_wire_validation(self):
        service = fresh_service()
        response = service.handle_request(
            {"op": "snapshot", "include_cache": "yes"}
        )
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"
        assert "include_cache" in response["error"]
