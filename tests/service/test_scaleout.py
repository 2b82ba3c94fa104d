"""Scale-out serving tests: coalescing, demand warming, async frontend.

The contract locked down here:

* **single-flight coalescing** — N identical in-flight misses run exactly
  one engine search; followers get the leader's answer object (bit-equal
  by construction) tagged with the same cost version, accounting stays
  exact (``hits + misses + coalesced == lookups``), and a follower whose
  deadline expires degrades down its *own* ladder instead of blocking on
  the leader;
* **demand-driven warming** — the :class:`DemandMatrix` census ranks and
  bounds what it saw, and :class:`CacheWarmer` replays the hot set after
  a hot-swap so the hit rate recovers at the *new* version — never by
  serving a stale-version answer as fresh;
* the **AsyncFrontend** speaks the existing wire protocol (same error
  documents as ``handle_json``), charges queue wait against
  ``deadline_ms`` like the threaded frontend, orders pipelined TCP
  responses, and kicks the warmer after wire cost updates;
* the **inline hit path** (:meth:`RoutingService.probe_hit`) answers a
  fresh hit with the very bytes the full pipeline would send, declines
  everything else without moving a counter or waiting on a writer, and
  keeps both accounting identities exact while racing live updates; the
  encoded result it splices lives and dies with its cache entry.

Like test_concurrency.py, threads/coroutines only interleave here; every
assertion is an invariant of *all* interleavings, with explicit events
gating the one schedule a test needs to provoke.
"""

import asyncio
import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import RoutingEngine, RoutingQuery
from repro.service import (
    AsyncFrontend,
    CacheWarmer,
    CostUpdate,
    DemandMatrix,
    FrontendClosedError,
    RoutingService,
    charge_queue_wait,
)
from repro.trajectories import CongestionModel

HOT_QUERIES = [
    RoutingQuery(0, 24, 40),
    RoutingQuery(5, 3, 35),
    RoutingQuery(20, 4, 50),
    RoutingQuery(2, 22, 38),
]


@pytest.fixture(scope="module")
def world():
    network = grid_network(5, 5, seed=2)
    model = CongestionModel(network, seed=3)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return network, model, costs


def fresh_service(world, **kwargs):
    network, _, costs = world
    return RoutingService(network, ConvolutionModel(costs.copy()), **kwargs)


def assert_same_answer(mine, reference, where=""):
    assert mine.found == reference.found, where
    assert [e.id for e in mine.path] == [e.id for e in reference.path], where
    assert mine.probability == reference.probability, where
    assert mine.distribution == reference.distribution, where


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run_threads(workers):
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def one_update(world):
    """A deterministic cost update touching a handful of edges."""
    network, model, _ = world
    return model.cost_update(network.edges[:5], 1)


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------


class TestSingleFlightCoalescing:
    def test_identical_in_flight_misses_run_exactly_one_search(self, world):
        """N threads submit the same cold query; one search runs, every
        thread gets the leader's answer object at the same version, and
        hits/misses/coalesced account for every lookup exactly."""
        network, _, costs = world
        num_threads = 6
        service = fresh_service(world, coalesce_in_flight=True)
        engine = service.engine()
        real_route = engine.route
        calls = []
        calls_lock = threading.Lock()

        # Handshake: the leader's search blocks until every other thread
        # has demonstrably *joined the flight* (a follower's first act is
        # refunding its miss), so the test provokes the exact schedule —
        # N-1 concurrent followers on one in-flight search — rather than
        # hoping for it.
        followers_joined = threading.Event()
        refunds = []
        refunds_lock = threading.Lock()
        real_refund = service._cache.refund_miss

        def counting_refund(count=1):
            real_refund(count)
            with refunds_lock:
                refunds.append(count)
                if len(refunds) >= num_threads - 1:
                    followers_joined.set()

        service._cache.refund_miss = counting_refund

        def gated_route(query, **kwargs):
            with calls_lock:
                calls.append(query)
            assert followers_joined.wait(10.0), "followers never joined"
            return real_route(query, **kwargs)

        engine.route = gated_route

        query = HOT_QUERIES[0]
        results = []
        results_lock = threading.Lock()

        def requester():
            served = service.route(query)
            with results_lock:
                results.append(served)

        run_threads([requester] * num_threads)

        assert len(calls) == 1, "coalescing must collapse N misses to 1 search"
        assert len(results) == num_threads
        leaders = [r for r in results if not r.coalesced]
        followers = [r for r in results if r.coalesced]
        assert len(leaders) == 1
        assert len(followers) == num_threads - 1
        # Bit-equal by construction: followers receive the leader's very
        # answer object — and it matches a cold single-threaded engine.
        reference = RoutingEngine(network, ConvolutionModel(costs.copy())).route(
            query
        )
        for served in results:
            assert served.result is leaders[0].result
            assert served.cost_version == leaders[0].cost_version
            assert served.cache_hit is False
            assert served.degraded is False
            assert_same_answer(served.result, reference)
        stats = service.stats()
        assert stats.cache_hits == 0
        assert stats.cache_misses == 1
        assert stats.coalesced == num_threads - 1
        assert stats.requests == num_threads
        # The flight is gone; the admitted entry serves the next request.
        assert service._flights == {}
        again = service.route(query)
        assert again.cache_hit is True
        assert again.coalesced is False

    def test_follower_with_expired_deadline_degrades_on_its_own_ladder(
        self, world
    ):
        """A follower never blocks past its deadline waiting for the
        leader: an already-expired budget goes straight to the stale rung
        while the leader is still searching."""
        service = fresh_service(world, coalesce_in_flight=True)
        query = HOT_QUERIES[1]
        # Populate the stale store at v0, then strand it with a bump.
        warm = service.route(query)
        old_version = warm.cost_version
        new_version = service.apply_cost_update(one_update(world))
        assert new_version > old_version

        engine = service.engine()
        real_route = engine.route
        entered, release = threading.Event(), threading.Event()
        gate = {"armed": True}

        def gated_route(q, **kwargs):
            if gate["armed"]:
                gate["armed"] = False
                entered.set()
                assert release.wait(10.0), "leader never released"
            return real_route(q, **kwargs)

        engine.route = gated_route

        leader_result = []

        def leader():
            leader_result.append(service.route(query, deadline_seconds=10.0))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        try:
            assert entered.wait(10.0), "leader never reached the engine"
            # Leader is mid-search holding the flight.  A zero budget is
            # valid ("queue wait ate it") and must not wait on the leader.
            follower = service.route(query, deadline_seconds=0.0)
        finally:
            release.set()
            leader_thread.join(10.0)

        assert follower.degraded is True
        assert follower.fallback_strategy == "stale_cache"
        assert follower.coalesced is False
        assert follower.cost_version == old_version  # stale is explicit
        assert_same_answer(follower.result, warm.result)

        (led,) = leader_result
        assert led.degraded is False
        assert led.coalesced is False
        assert led.cost_version == new_version
        assert service.stats().coalesced == 0
        # The leader's completed search was admitted: fresh hit follows.
        assert service.route(query).cache_hit is True

    def test_abandoned_flight_releases_followers_to_retry(self, world):
        """A leader whose search errors abandons the flight; the follower
        retries, becomes the new leader, and still gets an answer —
        with the cache counters exact afterwards."""
        network, _, costs = world
        service = fresh_service(world, coalesce_in_flight=True)
        engine = service.engine()
        real_route = engine.route
        calls = []

        follower_joined = threading.Event()
        real_refund = service._cache.refund_miss

        def counting_refund(count=1):
            real_refund(count)
            follower_joined.set()

        service._cache.refund_miss = counting_refund

        leader_entered = threading.Event()

        def failing_then_real(query, **kwargs):
            calls.append(query)
            if len(calls) == 1:
                leader_entered.set()
                assert follower_joined.wait(10.0), "follower never joined"
                raise RuntimeError("injected search crash")
            return real_route(query, **kwargs)

        engine.route = failing_then_real

        query = HOT_QUERIES[2]
        outcomes = {}

        def leading():
            try:
                service.route(query)
            except RuntimeError as exc:
                outcomes["leader"] = exc

        def following():
            outcomes["follower"] = service.route(query)

        # Sequence the election: the first thread must own the flight (and
        # be inside the failing search) before the second one arrives.
        leading_thread = threading.Thread(target=leading)
        leading_thread.start()
        assert leader_entered.wait(10.0), "leader never reached the engine"
        following_thread = threading.Thread(target=following)
        following_thread.start()
        leading_thread.join(10.0)
        following_thread.join(10.0)

        assert isinstance(outcomes["leader"], RuntimeError)
        served = outcomes["follower"]
        assert served.coalesced is False  # it re-led; nobody handed it this
        reference = RoutingEngine(network, ConvolutionModel(costs.copy())).route(
            query
        )
        assert_same_answer(served.result, reference)
        assert len(calls) == 2
        stats = service.stats()
        # Leader's miss refunded on the crash, follower's first refunded
        # at join; only the follower's retry lookup stays on the books.
        assert stats.cache_misses == 1
        assert stats.cache_hits == 0
        assert stats.coalesced == 0
        assert service._flights == {}

    def test_coalescing_is_off_by_default(self, world):
        service = fresh_service(world)
        assert service.coalesce_in_flight is False
        first = service.route(HOT_QUERIES[0])
        second = service.route(HOT_QUERIES[0])
        assert first.coalesced is False
        assert second.cache_hit is True
        assert service.stats().coalesced == 0


# ----------------------------------------------------------------------
# DemandMatrix
# ----------------------------------------------------------------------


class TestDemandMatrix:
    def test_top_ranks_by_count_then_first_seen(self):
        demand = DemandMatrix()
        demand.record(1, 2, 10)
        demand.record(3, 4, 10, count=3)
        demand.record(5, 6, 10, count=3)  # ties break first-seen-first
        demand.record(7, 8, 10, count=2)
        shapes = [(e.source, e.target, e.count) for e in demand.top()]
        assert shapes == [(3, 4, 3), (5, 6, 3), (7, 8, 2), (1, 2, 1)]
        assert [e.source for e in demand.top(2)] == [3, 5]
        assert demand.total == 9
        assert len(demand) == 4

    def test_distinct_shapes_do_not_alias(self):
        demand = DemandMatrix()
        demand.record(1, 2, 10)
        demand.record(1, 2, 11)  # different budget
        demand.record(1, 2, 10, strategy="kbest")
        demand.record(1, 2, 10, slice_name="peak")
        assert len(demand) == 4

    def test_cap_evicts_the_lowest_count_shape(self, monkeypatch):
        monkeypatch.setattr(DemandMatrix, "MAX_PAIRS", 2)
        demand = DemandMatrix()
        demand.record(1, 2, 10, count=3)
        demand.record(3, 4, 10, count=2)
        demand.record(5, 6, 10)  # coldest on arrival: evicted immediately
        assert [(e.source, e.count) for e in demand.top()] == [(1, 3), (3, 2)]
        demand.record(5, 6, 10, count=5)  # hot on arrival: displaces (3,4)
        assert [(e.source, e.count) for e in demand.top()] == [(5, 5), (1, 3)]

    def test_record_response_counts_only_served_routes(self):
        demand = DemandMatrix()
        query = {"source": 1, "target": 2, "budget": 10}
        served = {"ok": True, "kind": "served", "strategy": "pbr", "slice": "s"}
        demand.record_response({"op": "route", "query": query}, served)
        assert [(e.source, e.slice_name) for e in demand.top()] == [(1, "s")]
        # None of these are warmable demand:
        demand.record_response({"op": "route", "query": query}, {"ok": False})
        demand.record_response({"op": "stats"}, served)
        demand.record_response(
            {"op": "route", "query": query, "time_limit_seconds": 0.1}, served
        )
        demand.record_response(
            {"op": "route", "query": query, "kwargs": {"k": 3}}, served
        )
        demand.record_response(
            {"op": "route_many", "queries": [query]},
            {"ok": True, "kind": "served_batch"},
        )
        demand.record_response({"op": "route", "query": "mangled"}, served)
        demand.record_response(
            {"op": "route", "query": {"source": 1}}, served
        )  # malformed-but-ok: swallowed, not raised
        assert demand.total == 1

    def test_validation(self):
        demand = DemandMatrix()
        with pytest.raises(ValueError, match="count"):
            demand.record(1, 2, 10, count=0)


# ----------------------------------------------------------------------
# CacheWarmer
# ----------------------------------------------------------------------


class TestCacheWarmer:
    def _demand_for(self, queries):
        demand = DemandMatrix()
        for i, query in enumerate(queries):
            demand.record(
                query.source, query.target, query.budget, count=len(queries) - i
            )
        return demand

    def test_warm_recovers_hit_rate_at_the_new_version_only(self, world):
        """After a hot-swap the warmer replays the hot set so live traffic
        hits again — and every warmed entry is tagged with the *new*
        version (a stale-version answer is never re-labelled fresh)."""
        service = fresh_service(world)
        for query in HOT_QUERIES:
            service.route(query)
        demand = self._demand_for(HOT_QUERIES)
        warmer = CacheWarmer(service, demand)

        new_version = service.apply_cost_update(one_update(world))
        attempted = warmer.warm()
        assert attempted == len(HOT_QUERIES)
        counters = warmer.stats.read()
        assert counters["runs"] == 1
        assert counters["warmed"] == len(HOT_QUERIES)
        assert counters["warm_hits"] == 0
        assert counters["warm_errors"] == 0
        assert counters["aborted"] == 0

        # Live traffic now hits, fresh at the new version.
        reference = fresh_service(world)
        reference.apply_cost_update(one_update(world))
        for query in HOT_QUERIES:
            served = service.route(query)
            assert served.cache_hit is True
            assert served.degraded is False
            assert served.cost_version == new_version
            assert_same_answer(
                served.result, reference.route(query).result, where=str(query)
            )

        # A second warm of the same version finds everything present.
        warmer.warm()
        counters = warmer.stats.read()
        assert counters["warm_hits"] == len(HOT_QUERIES)
        assert counters["warmed"] == len(HOT_QUERIES)

    def test_notify_update_is_idempotent_per_version(self, world):
        service = fresh_service(world)
        demand = self._demand_for(HOT_QUERIES[:2])
        warmer = CacheWarmer(service, demand)
        assert warmer.notify_update() is True  # first sight of v0
        assert warmer.notify_update() is False  # same version: no-op
        service.apply_cost_update(one_update(world))
        assert warmer.notify_update() is True
        assert warmer.notify_update() is False
        assert warmer.stats.read()["runs"] == 2

    def test_warm_aborts_when_the_version_moves_mid_warm(self, world, monkeypatch):
        """A bump landing mid-warm makes the remaining replays pointless;
        the run stops, counts itself aborted, and stays re-warmable."""
        service = fresh_service(world)
        demand = self._demand_for(HOT_QUERIES)
        bumps = []
        real_route = service.route

        def route_then_bump(*args, **kwargs):
            served = real_route(*args, **kwargs)
            if not bumps:
                bumps.append(service.apply_cost_update(one_update(world)))
            return served

        monkeypatch.setattr(service, "route", route_then_bump)
        warmer = CacheWarmer(service, demand)
        attempted = warmer.warm()
        assert attempted == 1  # first replay ran, then the bump was seen
        counters = warmer.stats.read()
        assert counters["aborted"] == 1
        # Not marked warmed: the next notification for the new version runs.
        assert warmer.notify_update() is True

    def test_replay_failures_count_as_warm_errors(self, world):
        service = fresh_service(world)
        demand = DemandMatrix()
        demand.record(0, 24, 40, strategy="no-such-strategy")
        warmer = CacheWarmer(service, demand)
        warmer.warm()
        assert warmer.stats.read()["warm_errors"] == 1

    def test_warm_filters_entries_to_the_requested_slice(self, world):
        service = fresh_service(world)
        demand = DemandMatrix()
        demand.record(0, 24, 40)  # no slice: belongs to the default slice
        demand.record(5, 3, 35, slice_name="other")
        warmer = CacheWarmer(service, demand)
        assert warmer.warm() == 1  # the "other" entry is not replayed here
        assert warmer.stats.read()["warm_errors"] == 0

    def test_warm_replays_at_most_the_top_256_shapes(self, world, monkeypatch):
        """A warm replays the 256 hottest shapes, hottest first, on the
        calling thread, and never the cold tail beyond them."""
        service = fresh_service(world)
        demand = DemandMatrix()
        shapes = [(s, t, b) for s in range(25) for t in range(25) if s != t
                  for b in (30, 40)][:300]
        for rank, shape in enumerate(shapes):
            demand.record(*shape, count=len(shapes) - rank)
        replayed = []

        def record_route(query, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            replayed.append((query.source, query.target, query.budget))
            return real_route(query, **kwargs)

        real_route = service.route
        monkeypatch.setattr(service, "route", record_route)
        warmer = CacheWarmer(service, demand)
        assert CacheWarmer.TOP_K == 256
        assert warmer.warm() == 256
        assert replayed == shapes[:256]
        assert warmer.stats.read()["warmed"] + warmer.stats.read()["warm_hits"] == 256


# ----------------------------------------------------------------------
# AsyncFrontend
# ----------------------------------------------------------------------


class TestChargeQueueWait:
    def test_charges_elapsed_wait_against_the_deadline(self):
        clock = FakeClock()
        arrival = clock()
        clock.now = 10.0
        request = {"op": "route", "deadline_ms": 50.0}
        adjusted = charge_queue_wait(request, arrival, clock)
        assert adjusted["deadline_ms"] == pytest.approx(50.0 - 10_000.0)
        assert request["deadline_ms"] == 50.0  # caller's document untouched

    def test_requests_without_a_numeric_deadline_pass_through(self):
        clock = FakeClock()
        for request in (
            {"op": "route"},
            {"op": "route", "deadline_ms": None},
            {"op": "route", "deadline_ms": True},
            {"op": "route", "deadline_ms": "soon"},
        ):
            assert charge_queue_wait(request, 0.0, clock) is request


class TestAsyncFrontend:
    def test_submit_serves_misses_then_hits(self, world):
        service = fresh_service(world)

        async def scenario():
            async with AsyncFrontend(service, num_workers=2) as frontend:
                request = {"op": "route", "query": HOT_QUERIES[0].to_dict()}
                first = await frontend.submit(request)
                second = await frontend.submit(request)
                stats = await frontend.submit({"op": "stats"})
                return first, second, stats, frontend.stats.read()

        first, second, stats, counters = asyncio.run(scenario())
        assert first["ok"] and first["kind"] == "served"
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert stats["kind"] == "service_stats"
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1
        assert counters["submitted"] == counters["completed"] == 3

    def test_expired_deadline_degrades_instead_of_blocking(self, world):
        """An already-expired ``deadline_ms`` (queue wait ate it) lands on
        the stale rung, exactly as on the threaded path."""
        service = fresh_service(world)
        query = HOT_QUERIES[1]
        warm = service.route(query)
        service.apply_cost_update(one_update(world))

        async def scenario():
            async with AsyncFrontend(service) as frontend:
                return await frontend.submit(
                    {
                        "op": "route",
                        "query": query.to_dict(),
                        "deadline_ms": -5.0,
                    }
                )

        response = asyncio.run(scenario())
        assert response["ok"] is True
        assert response["degraded"] is True
        assert response["fallback_strategy"] == "stale_cache"
        assert response["cost_version"] == warm.cost_version

    def test_map_requests_preserves_input_order(self, world):
        service = fresh_service(world)
        requests = [
            {"op": "route", "query": query.to_dict()} for query in HOT_QUERIES
        ]

        async def scenario():
            async with AsyncFrontend(service, num_workers=3) as frontend:
                return await frontend.map_requests(requests, concurrency=4)

        responses = asyncio.run(scenario())
        assert len(responses) == len(HOT_QUERIES)
        for query, response in zip(HOT_QUERIES, responses):
            assert response["ok"] is True
            assert response["result"]["query"]["source"] == query.source

    def test_closed_frontend_refuses_loudly(self, world):
        service = fresh_service(world)

        async def scenario():
            frontend = AsyncFrontend(service)
            with pytest.raises(FrontendClosedError):
                await frontend.submit({"op": "stats"})  # never started
            async with frontend:
                pass
            with pytest.raises(FrontendClosedError):
                await frontend.submit({"op": "stats"})
            with pytest.raises(FrontendClosedError):
                await frontend.start()  # closed frontends stay closed
            await frontend.close()  # idempotent
            # The wire path answers with a document instead of raising.
            document = json.loads(await frontend.handle_line('{"op": "stats"}'))
            assert document["ok"] is False
            assert document["error_kind"] == "internal"

        asyncio.run(scenario())

    def test_close_winning_the_race_counts_the_queued_request_cancelled(
        self, world
    ):
        """``max_pending=1``: a second submit is counted, then parks on the
        semaphore; ``close()`` detaches the executor before it gets a slot.
        The request never runs, so it must end up ``cancelled`` — at
        quiescence ``submitted == completed + cancelled +
        delivery_failures``, as on the threaded frontend's same race."""
        service = fresh_service(world)
        engine = service.engine()
        real_route = engine.route
        entered, release = threading.Event(), threading.Event()

        def gated_route(query, **kwargs):
            entered.set()
            assert release.wait(10.0), "the first request was never released"
            return real_route(query, **kwargs)

        engine.route = gated_route
        request = {"op": "route", "query": HOT_QUERIES[0].to_dict()}

        async def scenario():
            frontend = await AsyncFrontend(
                service, num_workers=1, max_pending=1
            ).start()
            first = asyncio.ensure_future(frontend.submit(request))
            while not entered.is_set():  # first holds the one pending slot
                await asyncio.sleep(0.001)
            second = asyncio.ensure_future(frontend.submit(request))
            await asyncio.sleep(0)  # second: submitted, parked on the semaphore
            closing = asyncio.ensure_future(frontend.close())
            await asyncio.sleep(0)  # close(): executor detached, now draining
            release.set()
            outcomes = await asyncio.gather(first, second, return_exceptions=True)
            await closing
            return outcomes, frontend.stats.read()

        (first, second), counters = asyncio.run(scenario())
        assert first["ok"] is True
        assert isinstance(second, FrontendClosedError)
        assert counters["submitted"] == 2 and counters["completed"] == 1
        assert counters["submitted"] == (
            counters["completed"]
            + counters["cancelled"]
            + counters["delivery_failures"]
        )

    def test_listener_binds_the_host_it_is_given(self, world):
        service = fresh_service(world)

        async def scenario():
            async with AsyncFrontend(service, host="::1", port=0) as frontend:
                reader, writer = await asyncio.open_connection(*frontend.addresses[0])
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                writer.close()
                await writer.wait_closed()
                return frontend.addresses, json.loads(raw)

        addresses, response = asyncio.run(scenario())
        assert [host for host, _ in addresses] == ["::1"]
        assert response["kind"] == "service_stats"

    def test_tcp_pipelining_returns_responses_in_request_order(self, world):
        """Many lines written before any response is read come back in
        request order — including the error document for a garbage line,
        byte-matching ``handle_json``'s."""
        service = fresh_service(world)
        lines = [
            json.dumps({"op": "route", "query": query.to_dict()})
            for query in HOT_QUERIES
        ]
        lines.insert(2, "this is not json")
        lines.append(json.dumps({"op": "stats"}))

        async def scenario():
            async with AsyncFrontend(service, num_workers=3, port=0) as frontend:
                host, port = frontend.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(("\n".join(lines) + "\n").encode())
                await writer.drain()
                responses = []
                for _ in lines:
                    raw = await asyncio.wait_for(reader.readline(), timeout=30)
                    responses.append(json.loads(raw))
                writer.close()
                await writer.wait_closed()
                return responses

        responses = asyncio.run(scenario())
        sources = iter(q.source for q in HOT_QUERIES)
        for line, response in zip(lines, responses):
            if line == "this is not json":
                assert response["ok"] is False
                assert response["error_kind"] == "bad_request"
                assert json.dumps(response) == service.handle_json(line)
            elif '"stats"' in line:
                assert response["kind"] == "service_stats"
            else:
                assert response["ok"] is True
                assert response["result"]["query"]["source"] == next(sources)

    def test_wire_cost_update_triggers_a_background_warm(self, world):
        """The full loop: traffic builds demand, a wire hot-swap kicks the
        warmer off the request path, and the next request hits fresh."""
        service = fresh_service(world, coalesce_in_flight=True)
        demand = DemandMatrix()
        warmer = CacheWarmer(service, demand)
        update_doc = {
            "op": "apply_update",
            "update": CostUpdate(costs=one_update(world)).to_dict(),
        }

        async def scenario():
            async with AsyncFrontend(
                service, num_workers=2, demand=demand, warmer=warmer
            ) as frontend:
                for query in HOT_QUERIES:
                    await frontend.submit(
                        {"op": "route", "query": query.to_dict()}
                    )
                applied = await frontend.submit(update_doc)
                assert applied["ok"] is True
                # close() gathers the background warm before returning.
            return applied

        applied = asyncio.run(scenario())
        assert demand.total == len(HOT_QUERIES)
        counters = warmer.stats.read()
        assert counters["runs"] == 1
        assert counters["warmed"] + counters["warm_hits"] == len(HOT_QUERIES)
        for query in HOT_QUERIES:
            served = service.route(query)
            assert served.cache_hit is True
            assert served.cost_version == applied["cost_version"]

    def test_validation(self, world):
        service = fresh_service(world)
        with pytest.raises(ValueError, match="num_workers"):
            AsyncFrontend(service, num_workers=0)
        with pytest.raises(ValueError, match="max_pending"):
            AsyncFrontend(service, max_pending=-1)

        async def bad_concurrency():
            async with AsyncFrontend(service) as frontend:
                with pytest.raises(ValueError, match="concurrency"):
                    await frontend.map_requests([], concurrency=0)

        asyncio.run(bad_concurrency())


# ----------------------------------------------------------------------
# The inline hit path
# ----------------------------------------------------------------------

#: A slice name ``json.dumps`` must escape, so the spliced envelope is
#: exercised on more than plain ASCII.
ODD_SLICE = 'rush "hour" ü'


def probe_service(world, **kwargs):
    service = fresh_service(world, **kwargs)
    service.add_slice(ODD_SLICE, ConvolutionModel(world[2].copy()))
    return service


@st.composite
def route_requests(draw):
    """Cacheable wire ``route`` requests: every strategy shape and slice,
    with and without a TTL, a generous or an already-expired deadline."""
    query = draw(st.sampled_from(HOT_QUERIES))
    request = {"op": "route", "query": query.to_dict()}
    shape = draw(st.sampled_from([None, "pbr", "kbest", "multi_budget", "expected_time"]))
    if shape == "kbest":
        request.update(strategy="kbest", kwargs={"k": draw(st.integers(1, 3))})
    elif shape == "multi_budget":
        budgets = [query.budget - 6, query.budget]
        request.update(strategy="multi_budget", kwargs={"budgets": budgets})
    elif shape is not None:
        request["strategy"] = shape
    slice_name = draw(st.sampled_from([None, "default", ODD_SLICE]))
    if slice_name is not None:
        request["slice"] = slice_name
    if draw(st.booleans()):
        request["cache_ttl_seconds"] = 600.0
    deadline_ms = draw(st.sampled_from([None, 5_000.0, -5.0]))
    if deadline_ms is not None:
        request["deadline_ms"] = deadline_ms
    return request


class TestInlineHits:
    @settings(max_examples=30)
    @given(requests=st.lists(route_requests(), min_size=1, max_size=5))
    def test_a_hit_line_is_byte_for_byte_the_full_pipelines(self, world, requests):
        service = probe_service(world)
        for request in requests:
            # ``deadline_ms`` is not part of the key: cache without it, so an
            # expired budget cannot keep the first answer out of the cache.
            service.handle_request({k: v for k, v in request.items() if k != "deadline_ms"})
            hit = service.probe_hit(request)
            assert hit is not None, request
            envelope, line = hit
            assert line == json.dumps(service.handle_request(request))
            assert line == service.handle_json(json.dumps(request))
            assert {**json.loads(line), "result": None} == envelope

    def test_restored_entries_answer_inline_with_the_same_bytes(self, world):
        service = probe_service(world)
        requests = [{"op": "route", "query": q.to_dict()} for q in HOT_QUERIES]
        for request in requests:
            service.handle_request(request)
        successor = probe_service(world)
        successor.restore(json.loads(json.dumps(service.snapshot(include_cache=True))))
        for request in requests:
            line = successor.probe_hit(request)[1]
            assert line == service.probe_hit(request)[1]
            assert line == json.dumps(successor.handle_request(request))

    def test_everything_but_a_fresh_hit_is_declined_without_counting(self, world):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        hot = {"op": "route", "query": HOT_QUERIES[0].to_dict()}
        service.handle_request(hot)
        short_lived = {**hot, "query": HOT_QUERIES[1].to_dict(), "cache_ttl_seconds": 1.0}
        service.handle_request(short_lived)
        clock.now = 5.0  # the second entry is past its TTL
        declined = [
            {**hot, "query": HOT_QUERIES[2].to_dict()},  # never cached
            short_lived,  # expired
            {**hot, "time_limit_seconds": 1.0},  # uncacheable
            {**hot, "time_limit_seconds": -1.0},
            {**hot, "deadline_ms": True},
            {**hot, "deadline_ms": "soon"},
            {**hot, "kwargs": {"strategy": "kbest"}},  # a reserved field
            {**hot, "kwargs": ["k"]},
            {**hot, "slice": "nowhere"},
            {**hot, "slice": ["default"]},
            {**hot, "strategy": "no-such-strategy"},
            {**hot, "strategy": ["pbr"]},
            {**hot, "cache_ttl_seconds": -1.0},
            {**hot, "query": {"source": 0}},
            {"op": "route_many", "queries": [hot["query"]]},
            {"op": "route_at", "query": hot["query"], "departure_time_seconds": 0.0},
            {"op": "stats"},
            {"query": hot["query"]},
            [hot],
            "route",
            None,
            7,
        ]
        before = service.stats().to_dict()
        for request in declined:
            assert service.probe_hit(request) is None, request
        assert service.stats().to_dict() == before
        # The full pipeline then counts what the probe left alone.
        service.handle_request(short_lived)
        stats = service.stats()
        assert (stats.cache_misses, stats.cache_expirations) == (3, 1)
        assert service.probe_hit(hot) is not None

    def test_a_writer_holding_or_awaiting_the_lock_is_never_waited_for(self, world):
        service = fresh_service(world)
        hot = {"op": "route", "query": HOT_QUERIES[0].to_dict()}
        service.handle_request(hot)
        lock = service._slice_locks[service.default_slice]
        before = service.stats().to_dict()

        def probe_from_another_thread():
            outcome = []
            thread = threading.Thread(target=lambda: outcome.append(service.probe_hit(hot)))
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive(), "the probe waited on the slice lock"
            return outcome[0]

        lock.acquire_write()
        try:
            assert probe_from_another_thread() is None
        finally:
            lock.release_write()
        lock.acquire_read()
        writer = threading.Thread(target=lambda: (lock.acquire_write(), lock.release_write()))
        writer.start()
        try:
            for _ in range(5_000):
                if lock._writers_waiting:
                    break
                time.sleep(0.001)
            assert lock._writers_waiting == 1
            assert probe_from_another_thread() is None
        finally:
            lock.release_read()
            writer.join(5.0)
        assert service.stats().to_dict() == before
        assert service.probe_hit(hot) is not None

    def test_inline_hits_racing_updates_keep_books_and_answers_exact(self, world):
        """TCP clients, in-process ``handle_json`` callers and a live feed
        at once: both accounting identities hold exactly, and every answer
        equals a cold engine at the version it is tagged with."""
        network, model, costs = world
        service = fresh_service(world)
        base_version = service.cost_version()
        num_states = model.config.num_states
        updates = [
            model.cost_update(network.edges[i * 5 : i * 5 + 5], (i + 1) % num_states)
            for i in range(6)
        ]
        lines = [json.dumps({"op": "route", "query": q.to_dict()}) for q in HOT_QUERIES]
        answered = []
        answered_lock = threading.Lock()
        stop = threading.Event()
        real_probe = service.probe_hit
        loop_thread_hits = []  # the cost version of each hit the loop thread answered
        loop_hit = threading.Condition()

        def counting_probe(request):
            hit = real_probe(request)
            if hit is not None and threading.current_thread() is threading.main_thread():
                with loop_hit:
                    loop_thread_hits.append(hit[0]["cost_version"])
                    loop_hit.notify_all()
            return hit

        service.probe_hit = counting_probe

        def json_caller():
            mine = []
            while not stop.is_set():
                line = lines[len(mine) % len(lines)]
                mine.append((line, service.handle_json(line)))
            with answered_lock:
                answered.extend(mine)

        def await_loop_hit():
            # Paced by events, not sleeps: however slow a miss is, each
            # version stays live until the loop thread has answered a hit at it.
            version = service.cost_version()
            with loop_hit:
                loop_hit.wait_for(lambda: version in loop_thread_hits, timeout=30.0)

        def updater():
            for update in updates:
                await_loop_hit()
                service.apply_cost_update(update)
            await_loop_hit()
            stop.set()

        async def tcp_client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            mine = []
            while not stop.is_set():
                batch = [lines[(len(mine) + k) % len(lines)] for k in range(8)]
                writer.write(("\n".join(batch) + "\n").encode())
                await writer.drain()
                for line in batch:
                    raw = await asyncio.wait_for(reader.readline(), timeout=30)
                    mine.append((line, raw.decode().rstrip("\n")))
            writer.close()
            await writer.wait_closed()
            return mine

        async def scenario():
            threads = [threading.Thread(target=json_caller) for _ in range(2)]
            threads.append(threading.Thread(target=updater))
            async with AsyncFrontend(service, num_workers=2, port=0) as frontend:
                port = frontend.addresses[0][1]
                for thread in threads:
                    thread.start()
                clients = await asyncio.gather(tcp_client(port), tcp_client(port))
                for thread in threads:
                    await asyncio.get_running_loop().run_in_executor(None, thread.join, 30.0)
                    assert not thread.is_alive()
            return [item for client in clients for item in client], frontend.stats.read()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as finely as possible
        try:
            over_tcp, counters = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        answered.extend(over_tcp)
        every_version = set(range(base_version, base_version + len(updates) + 1))
        assert set(loop_thread_hits) == every_version, "a version had no hit on the loop thread"
        assert counters["submitted"] == len(over_tcp)
        assert counters["submitted"] == (
            counters["completed"] + counters["cancelled"] + counters["delivery_failures"]
        )
        assert service.cost_version() == base_version + len(updates)
        stats = service.stats()
        assert stats.cache_hits + stats.cache_misses + stats.coalesced == len(answered)

        tables = {base_version: costs.copy()}
        replay = costs.copy()
        for i, update in enumerate(updates):
            replay.apply_deltas(update)
            tables[base_version + i + 1] = replay.copy()
        cold = {}
        versions = set()
        for line, response in answered:
            document = json.loads(response)
            assert document["ok"] is True, response
            version = document["cost_version"]
            versions.add(version)
            query = RoutingQuery.from_dict(json.loads(line)["query"])
            if (version, query) not in cold:
                engine = RoutingEngine(network, ConvolutionModel(tables[version]))
                cold[version, query] = json.loads(json.dumps(engine.route(query).to_dict()))
            expected = cold[version, query]
            for field in ("path", "probability", "distribution", "found"):
                assert document["result"][field] == expected[field], (version, line)
        assert len(versions) > 1


class TestEncodedResultLifetime:
    """The encoded result :meth:`RoutingService.probe_hit` splices is part of
    its cache entry: nothing else keeps it, so nothing outlives the entry."""

    @staticmethod
    def encoded(service, query):
        (entry,) = [
            entry for key, entry in service._cache.items()
            if key[2:5] == (query.source, query.target, query.budget)
        ]
        return entry[1]

    def test_lru_eviction_releases_it(self, world):
        service = fresh_service(world, max_cache_entries=2)
        service.route(HOT_QUERIES[0])
        text = self.encoded(service, HOT_QUERIES[0])
        service.route(HOT_QUERIES[1])
        service.route(HOT_QUERIES[2])
        assert service.stats().cache_evictions == 1
        assert sys.getrefcount(text) == 2  # ``text`` and the call's argument

    def test_ttl_expiry_releases_it(self, world):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        service.route(HOT_QUERIES[0], cache_ttl_seconds=1.0)
        text = self.encoded(service, HOT_QUERIES[0])
        clock.now = 5.0
        again = service.route(HOT_QUERIES[0], cache_ttl_seconds=1.0)
        assert again.cache_hit is False
        assert service.stats().cache_expirations == 1
        assert sys.getrefcount(text) == 2

    def test_clear_cache_releases_it(self, world):
        service = fresh_service(world)
        service.route(HOT_QUERIES[0])
        text = self.encoded(service, HOT_QUERIES[0])
        service.clear_cache()
        assert sys.getrefcount(text) == 2

    def test_the_snapshot_dump_is_the_answer_not_the_text(self, world):
        """Formats 1 and 2 are unchanged: the dump is each answer's
        document, which the stored text encodes exactly."""
        service = fresh_service(world)
        for query in HOT_QUERIES:
            service.route(query)
        dump = service.snapshot(include_cache=True)["cache"]
        assert [json.dumps(item["result"]) for item in dump] == [
            text for _, (_, text) in service._cache.items()
        ]
        assert {"key", "result"} == {name for item in dump for name in item}


class TestParseFailures:
    """Every line ``json.loads`` cannot turn into a document is a
    ``bad_request`` — through ``handle_json``, ``handle_line`` and TCP."""

    LINES = {
        "nested-5000-deep": "[" * 5000 + "]" * 5000,
        "nested-inside-a-request": '{"op": "route", "query": ' + "[" * 5000 + "]" * 5000 + "}",
        "5000-digit-integer": (
            '{"op": "route", "query": {"source": ' + "9" * 5000 + ', "target": 1, "budget": 3}}'
        ),
    }

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_handle_json_answers_bad_request(self, world, name):
        document = json.loads(fresh_service(world).handle_json(self.LINES[name]))
        assert document["ok"] is False
        assert document["error_kind"] == "bad_request"

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_handle_line_and_tcp_answer_bad_request(self, world, name):
        service = fresh_service(world)
        line = self.LINES[name]

        async def scenario():
            async with AsyncFrontend(service, port=0) as frontend:
                direct = await frontend.handle_line(line)
                reader, writer = await asyncio.open_connection(*frontend.addresses[0])
                writer.write((line + "\n" + json.dumps({"op": "stats"}) + "\n").encode())
                await writer.drain()
                wire = [await asyncio.wait_for(reader.readline(), timeout=30) for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                return direct, wire

        direct, (answer, after) = asyncio.run(scenario())
        assert direct == service.handle_json(line)
        assert answer.decode().rstrip("\n") == direct
        assert json.loads(direct)["error_kind"] == "bad_request"
        assert json.loads(after)["kind"] == "service_stats"  # the connection lives on
