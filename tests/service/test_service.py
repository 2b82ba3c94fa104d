"""Service-grade tests for the RoutingService serving layer.

The serving contract locked down here:

* a cache **hit bit-equals the miss** that populated it (and both equal a
  cold engine's answer);
* **any** ``apply_cost_update`` strictly invalidates — the next answer
  matches a cold engine built on the updated table, and other slices keep
  their hot entries;
* **eviction never changes answers** — a pathologically small cache serves
  exactly what an uncached engine serves;
* departure-time requests select the scheduled slice; the wire protocol
  answers every request (errors as documents, not tracebacks).
"""

import json
from types import SimpleNamespace

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import RoutingEngine, RoutingQuery
from repro.service import (
    DAY_SECONDS,
    CostUpdate,
    ResultCache,
    RoutingService,
    ScheduledIncident,
    freeze_kwargs,
    time_sliced_cost_tables,
)
from repro.trajectories import CongestionModel

QUERY = RoutingQuery(0, 24, 40)


@pytest.fixture(scope="module")
def world():
    network = grid_network(5, 5, seed=2)
    model = CongestionModel(network, seed=3)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return network, model, costs


def clone_table(network, costs):
    """An independent cost table with identical observed histograms."""
    assert costs.network is network
    return costs.copy()


def fresh_service(world, **kwargs):
    network, _, costs = world
    return RoutingService(
        network, ConvolutionModel(clone_table(network, costs)), **kwargs
    )


def cold_answer(network, costs, query, **route_kwargs):
    """The reference: a brand-new engine over an identical table."""
    engine = RoutingEngine(network, ConvolutionModel(clone_table(network, costs)))
    return engine.route(query, **route_kwargs)


def assert_same_answer(mine, reference, where=""):
    assert mine.found == reference.found, where
    assert [e.id for e in mine.path] == [e.id for e in reference.path], where
    assert mine.probability == reference.probability, where
    assert mine.distribution == reference.distribution, where


def zero_runtimes(document):
    """``document`` with every ``runtime_seconds`` zeroed: wall clocks vary."""
    if isinstance(document, dict):
        return {
            key: 0.0 if key == "runtime_seconds" else zero_runtimes(value)
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [zero_runtimes(item) for item in document]
    return document


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------


class TestResultCache:
    def test_get_put_and_counters(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)

    def test_lru_eviction_order_respects_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_none_is_the_miss_sentinel(self):
        cache = ResultCache()
        with pytest.raises(ValueError, match="sentinel"):
            cache.put("key", None)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_bad_max_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=bad)

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_freeze_kwargs_canonicalises_wire_and_native_forms(self):
        assert freeze_kwargs({"budgets": [20, 40]}) == freeze_kwargs(
            {"budgets": (20, 40)}
        )
        assert freeze_kwargs({"k": 3}) != freeze_kwargs({"k": 4})
        assert freeze_kwargs({}) == ()

    def test_freeze_kwargs_rejects_unhashable_leaves(self):
        with pytest.raises(TypeError):
            freeze_kwargs({"estimator": object.__new__(bytearray)})

    def test_freeze_kwargs_preserves_mapping_key_types(self):
        """``{1: ...}`` and ``{"1": ...}`` are different payloads and must
        not alias one cache entry (stringified keys would collapse them —
        two requests would then serve each other's answers)."""
        assert freeze_kwargs({"weights": {1: 0.5}}) != freeze_kwargs(
            {"weights": {"1": 0.5}}
        )
        # Mixed non-orderable key types must still freeze deterministically
        # (Python cannot sort 1 against "1" directly) and stay hashable.
        frozen = freeze_kwargs({"weights": {1: 0.5, "1": 0.25, (2, 3): 1.0}})
        assert frozen == freeze_kwargs(
            {"weights": {"1": 0.25, (2, 3): 1.0, 1: 0.5}}
        )
        assert hash(frozen) is not None

    def test_freeze_kwargs_equal_payloads_still_alias(self):
        """The fix must not split genuinely equal payloads: wire (list)
        and native (tuple) forms keep producing the same key."""
        assert freeze_kwargs({"m": {"a": [1, 2]}}) == freeze_kwargs(
            {"m": {"a": (1, 2)}}
        )

    def test_refund_beyond_recorded_counters_raises(self):
        """The old ``max(0, ...)`` clamp silently absorbed double refunds —
        exactly the accounting bug the counters exist to surface."""
        cache = ResultCache()
        cache.get("missing")  # one recorded miss
        cache.refund_miss()  # fine: refunds the one miss
        with pytest.raises(ValueError, match="double refund"):
            cache.refund_miss()
        cache.put("a", 1)
        cache.get("a")  # one recorded hit
        with pytest.raises(ValueError, match="double refund"):
            cache.refund_hit(2)
        assert (cache.hits, cache.misses) == (1, 0)  # nothing clamped away

    @pytest.mark.parametrize("bad", [-1, 2.5, True, float("nan")])
    def test_refund_count_must_be_a_whole_number(self, bad):
        cache = ResultCache()
        with pytest.raises(ValueError, match="refund count"):
            cache.refund_miss(bad)


# ----------------------------------------------------------------------
# Hit bit-equals miss
# ----------------------------------------------------------------------


class TestCacheHitEqualsMiss:
    def test_hit_is_the_identical_answer(self, world):
        service = fresh_service(world)
        miss = service.route(QUERY)
        hit = service.route(QUERY)
        assert not miss.cache_hit and hit.cache_hit
        assert hit.result is miss.result  # bit-equal by construction
        network, _, costs = world
        assert_same_answer(hit.result, cold_answer(network, costs, QUERY))

    def test_hit_matches_cold_engine_for_every_strategy(self, world):
        network, _, costs = world
        service = fresh_service(world)
        cases = [
            ("pbr", {}),
            ("expected_time", {}),
            ("kbest", {"k": 2}),
            ("multi_budget", {"budgets": (20, 40)}),
        ]
        for strategy, kwargs in cases:
            first = service.route(QUERY, strategy=strategy, **kwargs)
            second = service.route(QUERY, strategy=strategy, **kwargs)
            assert not first.cache_hit and second.cache_hit, strategy
            reference = cold_answer(
                network, costs, QUERY, strategy=strategy, **kwargs
            )
            if strategy == "kbest":
                for mine, ref in zip(second.result.routes, reference.routes):
                    assert_same_answer(mine, ref, strategy)
            elif strategy == "multi_budget":
                for mine, ref in zip(second.result.results, reference.results):
                    assert_same_answer(mine, ref, strategy)
            else:
                assert_same_answer(second.result, reference, strategy)

    def test_distinct_budgets_and_kwargs_are_distinct_entries(self, world):
        service = fresh_service(world)
        service.route(QUERY)
        other_budget = service.route(RoutingQuery(0, 24, 41))
        other_kwargs = service.route(QUERY, strategy="kbest", k=2)
        assert not other_budget.cache_hit
        assert not other_kwargs.cache_hit

    def test_time_limited_requests_bypass_the_cache(self, world):
        service = fresh_service(world)
        first = service.route(QUERY, time_limit_seconds=30.0)
        second = service.route(QUERY, time_limit_seconds=30.0)
        assert not first.cache_hit and not second.cache_hit
        stats = service.stats()
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert stats.requests == 2

    def test_wire_kwargs_hit_native_entries(self, world):
        """A JSON request (lists) must hit an entry cached natively (tuples)."""
        service = fresh_service(world)
        native = service.route(QUERY, strategy="multi_budget", budgets=(20, 40))
        wire = service.handle_request(
            {
                "op": "route",
                "query": QUERY.to_dict(),
                "strategy": "multi_budget",
                "kwargs": {"budgets": [20, 40]},
            }
        )
        assert not native.cache_hit
        assert wire["ok"] and wire["cache_hit"]


# ----------------------------------------------------------------------
# Update invalidation
# ----------------------------------------------------------------------


class TestUpdateInvalidation:
    def _heavy_update(self, world, path):
        _, model, _ = world
        heavy = len(model.config.multipliers) - 1
        return CostUpdate.from_congestion(model, list(path), heavy)

    def test_any_update_strictly_invalidates(self, world):
        network, _, costs = world
        service = fresh_service(world)
        before = service.route(QUERY)
        update = self._heavy_update(world, before.result.path)
        version = service.apply_cost_update(update)
        after = service.route(QUERY)
        assert not after.cache_hit
        assert after.cost_version == version > before.cost_version
        # The fresh answer must match a cold engine on the *updated* table.
        updated = clone_table(network, costs)
        updated.apply_deltas(dict(update.costs))
        reference = RoutingEngine(network, ConvolutionModel(updated)).route(QUERY)
        assert_same_answer(after.result, reference)
        # And the update genuinely changed the answer (the congested grid
        # is symmetric, so the detour can tie on probability — but it must
        # at least reroute).
        assert (
            [e.id for e in after.result.path] != [e.id for e in before.result.path]
            or after.result.probability != before.result.probability
        )

    def test_stale_answers_stay_tagged_with_their_version(self, world):
        service = fresh_service(world)
        before = service.route(QUERY)
        service.apply_cost_update(self._heavy_update(world, before.result.path))
        after = service.route(QUERY)
        assert before.cost_version < after.cost_version
        # The pre-swap object is untouched — consumers holding it can tell
        # exactly which table produced it.
        assert before.result.probability == before.result.probability

    def test_update_via_raw_mapping(self, world):
        service = fresh_service(world)
        before = service.route(QUERY)
        update = self._heavy_update(world, before.result.path)
        service.apply_cost_update(dict(update.costs))
        assert not service.route(QUERY).cache_hit

    def test_update_to_one_slice_keeps_the_other_hot(self, world):
        network, model, _ = world
        tables = time_sliced_cost_tables(network, model)
        service = RoutingService.from_time_slices(network, tables)
        service.route(QUERY, slice_name="peak")
        service.route(QUERY, slice_name="night")
        peak_route = service.route(QUERY, slice_name="peak")
        assert peak_route.cache_hit
        update = self._heavy_update(world, peak_route.result.path)
        service.apply_cost_update(update, slice_name="peak")
        assert not service.route(QUERY, slice_name="peak").cache_hit
        assert service.route(QUERY, slice_name="night").cache_hit

    def test_update_unknown_slice_rejected(self, world):
        service = fresh_service(world)
        update = self._heavy_update(world, service.route(QUERY).result.path)
        with pytest.raises(KeyError, match="unknown slice"):
            service.apply_cost_update(update, slice_name="nope")

    def test_apply_deltas_is_atomic(self, world):
        network, model, costs = world
        table = clone_table(network, costs)
        version = table.version
        edge = network.edges[0]
        good = model.cost_update([edge], 0)
        with pytest.raises(IndexError):
            table.apply_deltas({**good, 10**9: next(iter(good.values()))})
        assert table.version == version  # nothing applied, no bump
        assert table.cost(edge) == costs.cost(edge)

    def test_apply_deltas_bumps_once_per_batch(self, world):
        network, model, costs = world
        table = clone_table(network, costs)
        version = table.version
        new_version = table.apply_deltas(model.cost_update(network.edges[:7], 1))
        assert new_version == table.version == version + 1

    def test_negative_edge_ids_rejected_everywhere(self, world):
        """Python list indexing wraps negative ids onto real edges — a feed
        typo must fail loudly, not install costs under dead keys."""
        network, model, costs = world
        table = clone_table(network, costs)
        version = table.version
        dist = table.cost(network.edges[0])
        with pytest.raises(IndexError):
            table.apply_deltas({-3: dist})
        with pytest.raises(IndexError):
            table.set_cost(-3, dist)
        assert table.version == version
        with pytest.raises(TypeError, match="non-negative"):
            CostUpdate(costs={-3: dist})
        service = fresh_service(world)
        version_before = service.cost_version()
        response = service.handle_request(
            {
                "op": "apply_update",
                "update": {
                    "kind": "cost_update",
                    "costs": {
                        "-3": {
                            "offset": dist.offset,
                            "probs": [float(p) for p in dist.probs],
                        }
                    },
                },
            }
        )
        assert response["ok"] is False
        assert service.cost_version() == version_before  # nothing applied


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------


class TestEvictionNeverChangesAnswers:
    def test_tiny_cache_serves_reference_answers(self, world):
        network, _, costs = world
        service = fresh_service(world, max_cache_entries=2)
        reference = RoutingEngine(
            network, ConvolutionModel(clone_table(network, costs))
        )
        rotation = [
            RoutingQuery(0, 24, 40),
            RoutingQuery(5, 3, 35),
            RoutingQuery(20, 4, 50),
            RoutingQuery(2, 22, 38),
        ]
        for _ in range(3):
            for query in rotation:
                served = service.route(query)
                assert_same_answer(served.result, reference.route(query), query)
        stats = service.stats()
        assert stats.cache_evictions > 0  # the bound actually bit
        assert stats.cache_entries <= 2


# ----------------------------------------------------------------------
# Departure-time scenarios
# ----------------------------------------------------------------------


class TestDepartureTimeScenarios:
    @pytest.fixture(scope="class")
    def sliced(self, world):
        network, model, _ = world
        return RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )

    @pytest.mark.parametrize(
        "hour, expected",
        [(3, "night"), (6.5, "off_peak"), (8, "peak"), (12, "off_peak"),
         (17, "peak"), (23, "night")],
    )
    def test_schedule_selects_the_expected_slice(self, sliced, hour, expected):
        served = sliced.route_at(QUERY, hour * 3600.0)
        assert served.slice_name == expected

    def test_epoch_style_departures_wrap_modulo_day(self, sliced):
        assert (
            sliced.route_at(QUERY, 8 * 3600.0).slice_name
            == sliced.route_at(QUERY, 5 * DAY_SECONDS + 8 * 3600.0).slice_name
            == "peak"
        )

    def test_rush_hour_is_never_more_reliable_than_night(self, sliced):
        peak = sliced.route_at(QUERY, 8 * 3600.0)
        night = sliced.route_at(QUERY, 3 * 3600.0)
        assert peak.result.probability <= night.result.probability + 1e-12

    def test_slice_caches_are_independent(self, sliced):
        sliced.clear_cache()
        first = sliced.route_at(QUERY, 8 * 3600.0)
        same_slice_hit = sliced.route_at(QUERY, 17 * 3600.0)  # evening peak
        other_slice = sliced.route_at(QUERY, 3 * 3600.0)
        assert not first.cache_hit
        assert same_slice_hit.cache_hit  # both peaks share one table
        assert not other_slice.cache_hit

    def test_route_at_without_schedule_rejected(self, world):
        service = fresh_service(world)
        with pytest.raises(ValueError, match="ScenarioSchedule"):
            service.route_at(QUERY, 8 * 3600.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_departure_times_rejected(self, sliced, bad):
        """``nan % DAY_SECONDS`` is ``nan`` and bisect would resolve it to
        an arbitrary slice — a garbage departure must fail loudly instead
        of being served from whichever table it happens to land on."""
        with pytest.raises(ValueError, match="finite"):
            sliced.schedule.slice_at(bad)
        with pytest.raises(ValueError, match="finite"):
            sliced.route_at(QUERY, bad)

    def test_slice_answers_match_dedicated_engines(self, world):
        network, model, _ = world
        tables = time_sliced_cost_tables(network, model)
        service = RoutingService.from_time_slices(network, tables)
        for name, table in tables.items():
            served = service.route(QUERY, slice_name=name)
            reference = RoutingEngine(network, ConvolutionModel(table)).route(QUERY)
            assert_same_answer(served.result, reference, name)

    def test_default_slice_is_the_first_table(self, world):
        """The default slice follows the mapping's order, and a route that
        names no slice is served from that table."""
        network, model, _ = world
        tables = time_sliced_cost_tables(network, model)
        for names in (list(tables), list(reversed(tables))):
            service = RoutingService.from_time_slices(
                network, {name: tables[name] for name in names}
            )
            assert service.default_slice == names[0]
            reference = RoutingEngine(
                network, ConvolutionModel(tables[names[0]])
            ).route(QUERY)
            assert_same_answer(service.route(QUERY).result, reference, names[0])

    def test_schedule_must_only_name_known_slices(self, world):
        network, model, _ = world
        tables = time_sliced_cost_tables(
            network, model, weights={"day": (0.5, 0.4, 0.1)}
        )
        with pytest.raises(ValueError, match="no cost table"):
            RoutingService.from_time_slices(network, tables)

    def test_duplicate_slice_rejected(self, world):
        network, _, costs = world
        service = fresh_service(world)
        with pytest.raises(ValueError, match="already registered"):
            service.add_slice(
                service.default_slice,
                ConvolutionModel(clone_table(network, costs)),
            )


# ----------------------------------------------------------------------
# Batch serving
# ----------------------------------------------------------------------


class TestBatchServing:
    BATCH = [
        RoutingQuery(0, 24, 40),
        RoutingQuery(5, 3, 35),
        RoutingQuery(20, 4, 50),
        RoutingQuery(0, 24, 41),
    ]

    def test_second_batch_is_all_hits_and_identical(self, world):
        service = fresh_service(world)
        first = service.route_many(self.BATCH)
        second = service.route_many(self.BATCH)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        for mine, reference in zip(second, first):
            assert mine is reference
        # Hits did no searching: the second batch's stats are empty.
        assert second.batch.stats.labels_generated == 0

    def test_partial_hits_route_only_the_misses(self, world):
        network, _, costs = world
        service = fresh_service(world)
        service.route(self.BATCH[0])
        service.route(self.BATCH[2])
        served = service.route_many(self.BATCH)
        assert (served.cache_hits, served.cache_misses) == (2, 2)
        reference = RoutingEngine(
            network, ConvolutionModel(clone_table(network, costs))
        ).route_many(self.BATCH)
        for mine, ref in zip(served, reference):
            assert_same_answer(mine, ref)

    def test_empty_batch(self, world):
        service = fresh_service(world)
        served = service.route_many([])
        assert len(served) == 0
        assert (served.cache_hits, served.cache_misses) == (0, 0)
        assert served.batch.stats.completed

    def test_update_invalidates_batch_entries_too(self, world):
        service = fresh_service(world)
        first = service.route_many(self.BATCH)
        update = TestUpdateInvalidation()._heavy_update(world, first[0].path)
        service.apply_cost_update(update)
        after = service.route_many(self.BATCH)
        assert after.cache_hits == 0
        assert after.cost_version > first.cost_version


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_route_round_trip_over_json(self, world):
        network, _, costs = world
        service = fresh_service(world)
        response = json.loads(
            service.handle_json(
                json.dumps({"op": "route", "query": QUERY.to_dict()})
            )
        )
        assert response["ok"] and response["kind"] == "served"
        reference = cold_answer(network, costs, QUERY)
        assert response["result"]["probability"] == reference.probability
        assert response["result"]["path"] == [e.id for e in reference.path]

    def test_route_at_op(self, world):
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        response = service.handle_request(
            {
                "op": "route_at",
                "query": QUERY.to_dict(),
                "departure_time_seconds": 8 * 3600.0,
            }
        )
        assert response["ok"] and response["slice"] == "peak"

    def test_route_many_op(self, world):
        service = fresh_service(world)
        request = {
            "op": "route_many",
            "queries": [QUERY.to_dict(), RoutingQuery(5, 3, 35).to_dict()],
        }
        first = service.handle_request(request)
        second = service.handle_request(request)
        assert first["ok"] and first["kind"] == "served_batch"
        assert first["cache_misses"] == 2
        assert second["cache_hits"] == 2
        assert second["batch"]["results"] == first["batch"]["results"]

    BATCH_FIVE_TARGETS = [
        RoutingQuery(0, 24, 40),
        RoutingQuery(5, 3, 35),
        RoutingQuery(20, 4, 50),
        RoutingQuery(2, 22, 38),
        RoutingQuery(21, 2, 45),
        RoutingQuery(1, 24, 41),
    ]

    def test_route_many_never_forks_and_ignores_workers(self, world, monkeypatch):
        """``workers`` is accepted for old clients, starts no process, and
        changes no byte of the answer."""
        import multiprocessing.process
        import os

        started = []

        def refuse(*args, **kwargs):
            started.append(args)
            raise AssertionError("route_many must not start a process")

        monkeypatch.setattr(os, "fork", refuse)
        # Every multiprocessing context's Process subclasses BaseProcess.
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        queries = [query.to_dict() for query in self.BATCH_FIVE_TARGETS]
        plain = fresh_service(world).handle_json(
            json.dumps({"op": "route_many", "queries": queries})
        )
        sharded = fresh_service(world).handle_json(
            json.dumps({"op": "route_many", "queries": queries, "workers": 1000})
        )
        assert started == []
        assert json.loads(sharded)["ok"] is True
        assert json.dumps(zero_runtimes(json.loads(sharded))) == json.dumps(
            zero_runtimes(json.loads(plain))
        )

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True])
    @pytest.mark.parametrize("all_hit", [False, True], ids=["cold", "all_hit"])
    def test_bad_workers_rejected_whether_the_batch_hits_or_misses(
        self, world, bad, all_hit
    ):
        service = fresh_service(world)
        queries = [query.to_dict() for query in self.BATCH_FIVE_TARGETS[:2]]
        if all_hit:
            warm = service.handle_request({"op": "route_many", "queries": queries})
            assert warm["cache_misses"] == 2
        response = service.handle_request(
            {"op": "route_many", "queries": queries, "workers": bad}
        )
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"
        assert response["error"] == (
            f"ValueError: workers must be a positive integer, got {bad!r}"
        )

    def test_apply_update_op_and_post_update_answer(self, world):
        network, _, costs = world
        service = fresh_service(world)
        before = service.route(QUERY)
        update = TestUpdateInvalidation()._heavy_update(
            world, before.result.path
        )
        response = service.handle_request(
            {"op": "apply_update", "update": update.to_dict()}
        )
        assert response["ok"] and response["kind"] == "update_applied"
        assert response["num_edges"] == len(update)
        after = service.handle_request(
            {"op": "route", "query": QUERY.to_dict()}
        )
        assert after["cost_version"] == response["cost_version"]
        updated = clone_table(network, costs)
        updated.apply_deltas(dict(update.costs))
        reference = RoutingEngine(network, ConvolutionModel(updated)).route(QUERY)
        assert after["result"]["probability"] == reference.probability

    def test_stats_op(self, world):
        service = fresh_service(world)
        service.route(QUERY)
        service.route(QUERY)
        response = service.handle_request({"op": "stats"})
        assert response["ok"] and response["kind"] == "service_stats"
        assert response["hit_rate"] == 0.5
        assert response["strategies"]["pbr"]["requests"] == 2

    @pytest.mark.parametrize(
        "request_document, fragment",
        [
            ({"op": "warp"}, "unknown op"),
            ({}, "unknown op"),
            # Only a string can name an op: anything else — unhashable
            # values included — is an unknown op, never an internal error.
            ({"op": []}, "unknown op"),
            ({"op": {}}, "unknown op"),
            ({"op": 7}, "unknown op"),
            ({"op": "route"}, "KeyError"),
            ({"op": "route", "query": {"source": 0}}, "KeyError"),
            (
                {"op": "route", "query": {"source": 0, "target": 0, "budget": 5}},
                "differ",
            ),
            (
                {
                    "op": "route",
                    "query": QUERY.to_dict(),
                    "strategy": "mystery",
                },
                "unknown routing strategy",
            ),
            (
                {"op": "route", "query": QUERY.to_dict(), "slice": "mars"},
                "unknown slice",
            ),
        ],
    )
    def test_bad_requests_become_error_documents(
        self, world, request_document, fragment
    ):
        service = fresh_service(world)
        response = service.handle_request(request_document)
        assert response["ok"] is False
        assert fragment in response["error"]
        # Every malformed request carries the stable dispatch code.
        assert response["error_kind"] == "bad_request"

    #: Today's operations, in the order the unknown-op message lists them,
    #: each with the ``kind`` its success document is tagged with.
    OP_KINDS = {
        "route": "served",
        "route_at": "served",
        "route_many": "served_batch",
        "depart_when": "served",
        "apply_update": "update_applied",
        "schedule_incident": "incident_scheduled",
        "advance_clock": "clock_advanced",
        "incidents": "incidents",
        "stats": "service_stats",
        "learning_stats": "learning_stats",
        "snapshot": "service_snapshot",
    }

    def test_the_op_table_is_the_contract(self, world):
        """Every op answers a minimal valid document with its documented
        kind, and the unknown-op message lists exactly the table's keys —
        an op cannot be added, dropped or reordered without this failing."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        service.attach_learning(
            lambda: SimpleNamespace(to_dict=lambda: {"kind": "learning_stats"})
        )
        edge = network.edges[0]
        incident = ScheduledIncident.closure("op-table", [edge.id], 10.0, 20.0)
        minimal = {
            "route": {"query": QUERY.to_dict()},
            "route_at": {"query": QUERY.to_dict(), "departure_time_seconds": 8 * 3600.0},
            "route_many": {"queries": [QUERY.to_dict()]},
            "depart_when": {
                "source": QUERY.source,
                "target": QUERY.target,
                "departure_times": [8 * 3600.0, 8.5 * 3600.0],
                "budget": QUERY.budget,
            },
            "apply_update": {
                "update": CostUpdate(costs={edge.id: model.edge_marginal(edge)}).to_dict()
            },
            "schedule_incident": {"incident": incident.to_dict()},
            "advance_clock": {"now_seconds": 5.0},
            "incidents": {},
            "stats": {},
            "learning_stats": {},
            "snapshot": {},
        }
        assert list(RoutingService._WIRE_OPS) == list(self.OP_KINDS)
        assert set(minimal) == set(self.OP_KINDS)
        for op, kind in self.OP_KINDS.items():
            response = service.handle_request({"op": op, **minimal[op]})
            assert response["ok"] is True, (op, response)
            assert response["kind"] == kind, op
        unknown = service.handle_request({"op": "warp"})
        assert unknown["error"] == (
            "ValueError: unknown op 'warp'; expected route/route_at/route_many/"
            "depart_when/apply_update/schedule_incident/advance_clock/"
            "incidents/stats/learning_stats/snapshot"
        )

    @pytest.mark.parametrize("bad", [True, "900", float("nan")])
    @pytest.mark.parametrize(
        "field, named",
        [
            ("cache_ttl_seconds", "cache_ttl_seconds"),
            ("time_limit_seconds", "time_limit_seconds"),
            ("departure_time_seconds", "departure time"),
        ],
    )
    def test_wire_numbers_are_validated_not_coerced(self, world, field, named, bad):
        """``true`` used to be served as 1 s and ``"900"`` as 900 s (a
        15-minute TTL, the ``night`` slice): a number field holding a
        boolean, a string or NaN is a bad request on every op carrying it."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        documents = [
            {"op": "route_at", "query": QUERY.to_dict(), "departure_time_seconds": 8 * 3600.0}
        ]
        if field != "departure_time_seconds":
            documents += [
                {"op": "route", "query": QUERY.to_dict()},
                {"op": "route_many", "queries": [QUERY.to_dict()]},
                {
                    "op": "depart_when",
                    "source": QUERY.source,
                    "target": QUERY.target,
                    "departure_times": [8 * 3600.0],
                    "budget": QUERY.budget,
                },
            ]
        for document in documents:
            assert service.handle_request(document)["ok"] is True, document
            response = json.loads(service.handle_json(json.dumps({**document, field: bad})))
            assert response["ok"] is False, (document["op"], response)
            assert response["error_kind"] == "bad_request", response
            assert named in response["error"]
        assert service.stats().requests == len(documents)  # only the valid ones

    #: Where a JSON number lands in a wire document: ``HUGE`` marks the spot.
    HUGE = 10**400
    OVERSIZED = {
        "deadline_ms": {"op": "route", "query": QUERY.to_dict(), "deadline_ms": HUGE},
        "time_limit_seconds": {"op": "route", "query": QUERY.to_dict(), "time_limit_seconds": HUGE},
        "cache_ttl_seconds": {"op": "route", "query": QUERY.to_dict(), "cache_ttl_seconds": HUGE},
        "route_at departure": {
            "op": "route_at", "query": QUERY.to_dict(), "departure_time_seconds": HUGE,
        },
        "depart_when departure": {
            "op": "depart_when", "source": QUERY.source, "target": QUERY.target,
            "departure_times": [HUGE], "budget": QUERY.budget,
        },
        "depart_when arrive_by": {
            "op": "depart_when", "source": QUERY.source, "target": QUERY.target,
            "departure_times": [8 * 3600.0], "arrive_by_seconds": HUGE,
        },
        "advance_clock": {"op": "advance_clock", "now_seconds": HUGE},
        "incident start": {"op": "schedule_incident", "incident": {
            "kind": "scheduled_incident", "incident_id": "x", "start_time": HUGE,
            "end_time": 10.0, "costs": {"0": {"offset": 3, "probs": [1.0]}},
        }},
        "incident end": {"op": "schedule_incident", "incident": {
            "kind": "scheduled_incident", "incident_id": "x", "start_time": 0.0,
            "end_time": HUGE, "costs": {"0": {"offset": 3, "probs": [1.0]}},
        }},
        "update probability": {"op": "apply_update", "update": {
            "kind": "cost_update", "costs": {"0": {"offset": 3, "probs": [HUGE]}},
        }},
    }

    @pytest.mark.parametrize("document", OVERSIZED.values(), ids=OVERSIZED)
    def test_integers_too_large_for_a_float_are_bad_requests(self, world, document):
        """JSON decodes a 401-digit integer without complaint, and
        ``float()`` of it raises ``OverflowError``: out of float64's range
        is out of domain, a bad request like any other."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        response = json.loads(service.handle_json(json.dumps(document)))
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request", response

    def test_depart_when_rejects_a_deadline_it_cannot_honour(self, world):
        """``deadline_ms`` on ``depart_when`` was silently dropped — a 50 ms
        deadline bought an unbounded search.  Unsupported is said out loud,
        exactly as ``kwargs`` is rejected on this op."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        document = {
            "op": "depart_when",
            "source": QUERY.source,
            "target": QUERY.target,
            "departure_times": [8 * 3600.0],
            "budget": QUERY.budget,
        }
        assert service.handle_request({**document, "deadline_ms": None})["ok"] is True
        response = service.handle_request({**document, "deadline_ms": 50.0})
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"
        assert "deadline_ms" in response["error"]

    def test_bad_json_becomes_error_document(self, world):
        service = fresh_service(world)
        garbled = json.loads(service.handle_json("{nope"))
        assert garbled["ok"] is False
        assert garbled["error_kind"] == "bad_request"
        not_an_object = json.loads(service.handle_json("[1, 2]"))
        assert not_an_object["ok"] is False
        assert not_an_object["error_kind"] == "bad_request"

    @pytest.mark.parametrize(
        "departure, fragment",
        [
            (float("nan"), "finite"),
            (float("inf"), "finite"),
            (float("-inf"), "finite"),
            (None, "TypeError"),
        ],
    )
    def test_non_finite_departures_become_wire_error_documents(
        self, world, departure, fragment
    ):
        """A bad departure time over the wire is an error document, not an
        arbitrary-slice answer (and never a crashed serving loop)."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        response = service.handle_request(
            {
                "op": "route_at",
                "query": QUERY.to_dict(),
                "departure_time_seconds": departure,
            }
        )
        assert response["ok"] is False
        assert fragment in response["error"]
        response = service.handle_request(
            {"op": "route_at", "query": QUERY.to_dict()}
        )
        assert response["ok"] is False  # missing departure: also a document
        assert "KeyError" in response["error"]

    def test_route_at_rejects_an_explicit_slice(self, world):
        """A conflicting 'slice' field must error, not be silently dropped."""
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        response = service.handle_request(
            {
                "op": "route_at",
                "query": QUERY.to_dict(),
                "departure_time_seconds": 8 * 3600.0,
                "slice": "night",
            }
        )
        assert response["ok"] is False
        assert "schedule" in response["error"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"offset": -40, "probs": [1.0]}, "negative"),
            ({"offset": 3.7, "probs": [1.0]}, "grid integer"),
        ],
    )
    def test_bad_offsets_rejected_at_the_update_boundary(
        self, world, payload, fragment
    ):
        """Negative or fractional travel-time offsets would corrupt the
        search's pruning assumptions; the feed boundary rejects them."""
        service = fresh_service(world)
        version = service.cost_version()
        response = service.handle_request(
            {
                "op": "apply_update",
                "update": {"kind": "cost_update", "costs": {"0": payload}},
            }
        )
        assert response["ok"] is False and fragment in response["error"]
        assert service.cost_version() == version

    def test_unit_mass_enforced_at_the_update_boundary(self, world):
        """A truncated feed histogram must be rejected, not installed (or
        silently renormalised) into the live table."""
        service = fresh_service(world)
        version = service.cost_version()
        response = service.handle_request(
            {
                "op": "apply_update",
                "update": {
                    "kind": "cost_update",
                    "costs": {"0": {"offset": 1, "probs": [0.3, 0.3]}},
                },
            }
        )
        assert response["ok"] is False and "mass" in response["error"]
        assert service.cost_version() == version

    @pytest.mark.parametrize("costs", [None, True, -1, 1.5, "x", []])
    def test_non_mapping_costs_are_a_bad_request(self, world, costs):
        """``costs`` that is not an object is the caller's error, never an
        ``internal`` one, and leaves the live table alone."""
        service = fresh_service(world)
        applied = service.stats().updates_applied
        response = service.handle_request(
            {"op": "apply_update", "update": {"kind": "cost_update", "costs": costs}}
        )
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"
        assert "update 'costs' must be a mapping" in response["error"]
        assert service.stats().updates_applied == applied

    def test_reserved_kwargs_rejected_not_smuggled(self, world):
        """kwargs must not silently override top-level routing controls."""
        service = fresh_service(world)
        for smuggled in (
            {"time_limit_seconds": 0.001},
            {"strategy": "kbest"},
            {"workers": 2},
        ):
            response = service.handle_request(
                {"op": "route", "query": QUERY.to_dict(), "kwargs": smuggled}
            )
            assert response["ok"] is False, smuggled
            assert "reserved" in response["error"]
        # …and the cacheable fast path stayed intact.
        assert service.handle_request(
            {"op": "route", "query": QUERY.to_dict()}
        )["ok"]

    def test_any_exception_becomes_an_error_document(self, world):
        """The always-answer contract covers engine-level RuntimeErrors."""
        from repro.routing import RoutingStrategy, register_strategy
        from repro.routing import engine as engine_module

        @register_strategy("explode_for_service_test")
        class Explode(RoutingStrategy):
            def route(self, eng, query, *, time_limit_seconds=None):
                raise RuntimeError("pool worker died")

        try:
            service = fresh_service(world)
            response = service.handle_request(
                {
                    "op": "route",
                    "query": QUERY.to_dict(),
                    "strategy": "explode_for_service_test",
                }
            )
            assert response["ok"] is False
            assert "RuntimeError: pool worker died" in response["error"]
            assert response["error_kind"] == "internal"
        finally:
            engine_module._STRATEGIES.pop("explode_for_service_test", None)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


class TestServiceStats:
    def test_counters_tell_the_serving_story(self, world):
        service = fresh_service(world)
        service.route(QUERY)
        service.route(QUERY)
        service.route(QUERY, strategy="kbest", k=2)
        before = service.route(QUERY)
        update = TestUpdateInvalidation()._heavy_update(
            world, before.result.path
        )
        service.apply_cost_update(update)
        service.route(QUERY)
        stats = service.stats()
        assert stats.requests == 5
        assert stats.cache_hits == 2  # second pbr + the pre-update repeat
        assert stats.cache_misses == 3
        assert stats.updates_applied == 1
        assert stats.hit_rate == pytest.approx(0.4)
        assert set(stats.strategies) == {"pbr", "kbest"}
        assert stats.strategies["pbr"].requests == 4
        assert stats.strategies["pbr"].total_seconds > 0
        assert stats.strategies["pbr"].mean_seconds <= (
            stats.strategies["pbr"].total_seconds
        )

    def test_failed_requests_do_not_skew_the_hit_rate(self, world):
        """A client retrying bad requests must not deflate the hit rate."""
        service = fresh_service(world)
        service.route(QUERY)
        service.route(QUERY)
        for index in range(5):
            response = service.handle_request(
                {
                    "op": "route",
                    "query": QUERY.to_dict(),
                    # Distinct garbage names: a long-lived service must not
                    # grow a latency entry per attacker-chosen string.
                    "strategy": f"mystery-{index}",
                }
            )
            assert response["ok"] is False
        with pytest.raises(ValueError):
            service.route(QUERY, strategy="kbest")  # k missing
        stats = service.stats()
        # Unknown strategies are rejected before any accounting; the
        # known-but-invalid kbest request counts but refunds its miss.
        assert stats.requests == 3
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)
        assert stats.hit_rate == 0.5
        assert set(stats.strategies) == {"pbr", "kbest"}

    def test_failed_batch_refunds_its_misses(self, world):
        service = fresh_service(world)
        queries = [QUERY, RoutingQuery(5, 3, 35)]
        with pytest.raises(ValueError):
            service.route_many(queries, strategy="kbest")  # k missing
        stats = service.stats()
        assert stats.requests == 1
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)

    def test_failed_batch_refunds_its_hits_too(self, world):
        """Cached members of a failing batch were never served either."""
        from repro.routing import RoutingStrategy, register_strategy
        from repro.routing import engine as engine_module

        @register_strategy("explode_on_second_target")
        class ExplodeOnSecond(RoutingStrategy):
            def route(self, eng, query, *, time_limit_seconds=None):
                if query.target == 3:
                    raise RuntimeError("mid-batch failure")
                return eng.route(query, strategy="pbr")

        try:
            service = fresh_service(world)
            service.route(QUERY, strategy="explode_on_second_target")
            baseline = service.stats()
            assert (baseline.cache_hits, baseline.cache_misses) == (0, 1)
            with pytest.raises(RuntimeError, match="mid-batch"):
                service.route_many(
                    [QUERY, RoutingQuery(5, 3, 35)],
                    strategy="explode_on_second_target",
                )
            stats = service.stats()
            # The batch's hit (QUERY, cached above) and miss both refunded.
            assert (stats.cache_hits, stats.cache_misses) == (0, 1)
            assert stats.requests == baseline.requests + 1
        finally:
            engine_module._STRATEGIES.pop("explode_on_second_target", None)

    def test_numpy_integer_edge_ids_accepted(self, world):
        """Edge ids derived from numpy arrays must keep working."""
        import numpy as np

        network, model, costs = world
        table = clone_table(network, costs)
        edge = network.edges[3]
        dist = model.edge_state_distribution(edge, 1)
        table.set_cost(np.int64(edge.id), dist)
        assert table.cost(edge) == dist
        table.apply_deltas({np.int64(edge.id): model.edge_marginal(edge)})
        assert table.cost(edge) == model.edge_marginal(edge)
        update = CostUpdate(costs={np.int64(edge.id): dist})
        assert list(update.costs) == [edge.id]

    def test_snapshot_is_detached(self, world):
        service = fresh_service(world)
        snapshot = service.stats()
        service.route(QUERY)
        assert snapshot.requests == 0
        assert service.stats().requests == 1
