"""Concurrency stress tests: the serving layer under threaded traffic.

The contract locked down here (the serving layer's thread-safety story):

* **exact accounting** — however many threads hammer the cache,
  ``hits + misses`` equals the number of lookups *exactly*, the LRU dict
  is never corrupted, and refunds stay atomic;
* **snapshot consistency** — with live ``apply_cost_update`` calls
  interleaved into the request stream, every answer is bit-equal to what
  a cold engine built on the cost table *at the answer's tagged version*
  produces: no torn version tags, no mixed-table answers, no lost bumps;
* **TTL and admission** — per-entry expiry behaves exactly like absence
  (and is counted), and the admission policy keeps cheap answers out of
  the cache;
* the **ThreadedFrontend** drives all of the above through a worker pool
  without losing, duplicating or crashing a single request.

Threads only ever *interleave* here (CPython GIL); these tests therefore
assert invariants that hold for every interleaving rather than trying to
provoke one specific schedule — that is what makes them deterministic.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import OptimisticHeuristic, RoutingEngine, RoutingQuery
from repro.service import (
    CostUpdate,
    FrontendClosedError,
    ReadWriteLock,
    ResultCache,
    RoutingService,
    ScenarioSchedule,
    ScheduledIncident,
    TemporalCostProfile,
    ThreadedFrontend,
    time_sliced_cost_tables,
)
from repro.trajectories import CongestionModel

HOT_QUERIES = [
    RoutingQuery(0, 24, 40),
    RoutingQuery(5, 3, 35),
    RoutingQuery(20, 4, 50),
    RoutingQuery(2, 22, 38),
    RoutingQuery(0, 24, 41),
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


def run_threads(workers, watchdog_seconds=None):
    """Start, then join, asserting no worker raised (failures re-raise).

    With ``watchdog_seconds`` the joins share that deadline and a thread
    still alive past it fails the test (a deadlock) instead of hanging it.
    """
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        return runner

    daemon = watchdog_seconds is not None  # a hung thread must not hang exit too
    threads = [threading.Thread(target=wrap(fn), daemon=daemon) for fn in workers]
    for thread in threads:
        thread.start()
    deadline = None if watchdog_seconds is None else time.monotonic() + watchdog_seconds
    for thread in threads:
        thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "deadlock: a thread never finished"
    if errors:
        raise errors[0]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# ResultCache under threads
# ----------------------------------------------------------------------


class TestResultCacheThreadSafety:
    def test_hammered_lru_keeps_exact_accounting(self):
        """8 threads × 400 mixed get/put ops: hits + misses == lookups
        exactly, the LRU bound holds, and no op ever raises (a torn
        ``del``/re-insert pair would)."""
        cache = ResultCache(max_entries=16)
        num_threads, ops = 8, 400
        barrier = threading.Barrier(num_threads)
        lookups_per_thread = []
        lock = threading.Lock()

        def worker(seed):
            def body():
                barrier.wait()
                lookups = 0
                for i in range(ops):
                    key = (seed * 7 + i) % 48  # contended key space > LRU
                    value = cache.get(key)
                    lookups += 1
                    if value is None:
                        cache.put(key, ("payload", key))
                    else:
                        assert value == ("payload", key)
                with lock:
                    lookups_per_thread.append(lookups)

            return body

        run_threads([worker(seed) for seed in range(num_threads)])
        hits, misses, evictions, expirations, entries = cache.counters()
        assert hits + misses == sum(lookups_per_thread) == num_threads * ops
        assert entries <= 16
        assert expirations == 0
        assert evictions > 0  # the bound actually bit under contention

    def test_concurrent_refunds_stay_atomic(self):
        """Parallel lookup+refund pairs must cancel exactly — a lost
        update in either counter would leave a nonzero residue (or trip
        the over-refund guard)."""
        cache = ResultCache()
        cache.put("k", 1)
        num_threads, rounds = 8, 300
        barrier = threading.Barrier(num_threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                if cache.get("k") is None:  # pragma: no cover - never absent
                    cache.refund_miss()
                else:
                    cache.refund_hit()

        run_threads([worker] * num_threads)
        hits, misses, *_ = cache.counters()
        assert (hits, misses) == (0, 0)


# ----------------------------------------------------------------------
# TTL expiry
# ----------------------------------------------------------------------


class TestEntryTTL:
    def test_expired_entries_behave_like_absent_ones(self):
        clock = FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        assert "a" in cache
        assert cache.get("a") == 1
        clock.now = 10.0  # deadline is exclusive: now >= put-time + ttl
        assert "a" not in cache
        assert cache.get("a") is None
        assert len(cache) == 0  # dropped, not lingering
        hits, misses, evictions, expirations, _ = cache.counters()
        assert (hits, misses, expirations) == (1, 1, 1)
        assert evictions == 0  # expiry is not an eviction

    def test_eviction_sweeps_expired_entries_before_live_ones(self):
        """Regression: the over-capacity sweep must drop *expired* entries
        first — a dead TTL'd entry occupying a slot must never displace a
        live one, and dropping it counts as an expiration, not an
        eviction.  (Pre-fix, plain LRU order evicted live ``b`` while dead
        ``a`` kept its slot, miscounted as an eviction.)"""
        clock = FakeClock()
        cache = ResultCache(max_entries=2, clock=clock)
        cache.put("b", 1)  # immortal and live, but oldest in LRU order
        cache.put("a", 2, ttl_seconds=5.0)  # dead once the clock passes 5
        clock.now = 10.0
        cache.put("c", 3)  # over capacity: the sweep must pick "a", not "b"
        assert cache.get("b") == 1
        assert cache.get("c") == 3
        hits, misses, evictions, expirations, entries = cache.counters()
        assert (hits, misses) == (2, 0)
        assert evictions == 0  # no live entry was displaced
        assert expirations == 1  # the dead entry, counted as what it was
        assert entries == 2

    def test_eviction_still_evicts_live_lru_after_the_expired_sweep(self):
        """When the expired sweep alone cannot get under the bound, the
        remaining overflow evicts live LRU entries — counted as evictions."""
        clock = FakeClock()
        cache = ResultCache(max_entries=2, clock=clock)
        cache.put("old", 1)
        cache.put("dead", 2, ttl_seconds=5.0)
        cache.put("newer", 3)  # evicts nothing expired yet -> LRU "old" goes
        assert cache.get("old") is None
        clock.now = 10.0
        cache.put("newest", 4)  # sweeps "dead"; no further eviction needed
        assert cache.get("newer") == 3
        assert cache.get("newest") == 4
        _, _, evictions, expirations, entries = cache.counters()
        assert evictions == 1  # "old", live when displaced
        assert expirations == 1  # "dead"
        assert entries == 2

    def test_per_entry_ttl_overrides_the_default(self):
        clock = FakeClock()
        cache = ResultCache(ttl_seconds=100.0, clock=clock)
        cache.put("short", 1, ttl_seconds=5.0)
        cache.put("default", 2)
        cache.put("immortal", 3, ttl_seconds=None)
        clock.now = 6.0
        assert cache.get("short") is None
        assert cache.get("default") == 2
        clock.now = 1e9
        assert cache.get("default") is None
        assert cache.get("immortal") == 3

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_ttls_rejected(self, bad):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ResultCache(ttl_seconds=bad)
        cache = ResultCache()
        with pytest.raises(ValueError, match="ttl_seconds"):
            cache.put("k", 1, ttl_seconds=bad)

    def test_get_hit_counts_a_hit_and_nothing_else(self):
        """The try-locked lookup: a hit is counted and refreshed as
        :meth:`get` counts one; a miss or a dead entry moves no counter and
        stays where it is, for the caller's fallback :meth:`get` to count."""
        clock = FakeClock()
        cache = ResultCache(max_entries=2, clock=clock)
        cache.put("a", 1)
        cache.put("dead", 2, ttl_seconds=5.0)
        assert cache.get_hit("missing") is None
        clock.now = 10.0
        assert cache.get_hit("dead") is None
        assert cache.counters() == (0, 0, 0, 0, 2)  # nothing counted or dropped
        assert cache.get_hit("a") == 1
        assert cache.counters()[:2] == (1, 0)
        assert cache.get("dead") is None  # the fallback counts what get_hit left
        assert cache.counters() == (1, 1, 0, 1, 1)

    def test_get_hit_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get_hit("a") == 1  # "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache

    def test_service_level_ttl_expires_served_answers(self, world):
        clock = FakeClock()
        service = fresh_service(world, cache_ttl_seconds=60.0, clock=clock)
        query = HOT_QUERIES[0]
        assert not service.route(query).cache_hit
        assert service.route(query).cache_hit
        clock.now = 61.0
        refreshed = service.route(query)
        assert not refreshed.cache_hit  # aged out, recomputed
        stats = service.stats()
        assert stats.cache_expirations == 1
        assert (stats.cache_hits, stats.cache_misses) == (1, 2)

    def test_per_request_ttl_over_the_wire(self, world):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        query = HOT_QUERIES[0]
        request = {
            "op": "route",
            "query": query.to_dict(),
            "cache_ttl_seconds": 5.0,
        }
        assert service.handle_request(request)["ok"]
        clock.now = 4.0
        assert service.handle_request(request)["cache_hit"]
        clock.now = 6.0
        reply = service.handle_request(request)
        assert reply["ok"] and not reply["cache_hit"]

    def test_invalid_wire_ttl_is_an_error_document(self, world):
        service = fresh_service(world)
        response = service.handle_request(
            {
                "op": "route",
                "query": HOT_QUERIES[0].to_dict(),
                "cache_ttl_seconds": -2.0,
            }
        )
        assert response["ok"] is False
        assert "cache_ttl_seconds" in response["error"]
        # The failed request must not leave a phantom lookup behind.
        stats = service.stats()
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)


# ----------------------------------------------------------------------
# Admission policy
# ----------------------------------------------------------------------


class TestAdmissionPolicy:
    def test_cheap_answers_are_not_cached(self, world):
        """``inf`` means nothing is ever worth a cache slot — every repeat
        recomputes, and each skip is counted for the operator."""
        service = fresh_service(
            world, admission_min_compute_seconds=float("inf")
        )
        query = HOT_QUERIES[0]
        first = service.route(query)
        second = service.route(query)
        assert not first.cache_hit and not second.cache_hit
        assert_same_answer(first.result, second.result)  # still correct
        stats = service.stats()
        assert stats.cache_entries == 0
        assert stats.admission_skips == 2
        assert (stats.cache_hits, stats.cache_misses) == (0, 2)

    def test_zero_threshold_admits_everything(self, world):
        service = fresh_service(world, admission_min_compute_seconds=0.0)
        service.route(HOT_QUERIES[0])
        assert service.route(HOT_QUERIES[0]).cache_hit
        assert service.stats().admission_skips == 0

    def test_batches_apply_admission_per_member(self, world):
        service = fresh_service(
            world, admission_min_compute_seconds=float("inf")
        )
        first = service.route_many(HOT_QUERIES)
        second = service.route_many(HOT_QUERIES)
        assert first.cache_misses == second.cache_misses == len(HOT_QUERIES)
        assert service.stats().admission_skips == 2 * len(HOT_QUERIES)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), True, "fast"])
    def test_invalid_thresholds_rejected(self, world, bad):
        with pytest.raises(ValueError, match="admission_min_compute_seconds"):
            fresh_service(world, admission_min_compute_seconds=bad)


# ----------------------------------------------------------------------
# The read-write lock itself
# ----------------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            # A second reader enters while the first holds the lock.
            entered = threading.Event()

            def reader():
                with lock.read_locked():
                    entered.set()

            thread = threading.Thread(target=reader)
            thread.start()
            assert entered.wait(5.0)
            thread.join()

        acquired_write = threading.Event()

        def writer():
            with lock.write_locked():
                acquired_write.set()

        with lock.read_locked():
            thread = threading.Thread(target=writer)
            thread.start()
            # The writer must NOT get in while a reader holds the lock.
            assert not acquired_write.wait(0.1)
        assert acquired_write.wait(5.0)  # reader released -> writer runs
        thread.join()

    def test_waiting_writer_bars_new_readers(self):
        """Writer preference: once a writer queues, later readers wait —
        heavy request traffic cannot starve the cost feed forever."""
        lock = ReadWriteLock()
        order = []
        order_lock = threading.Lock()
        writer_waiting = threading.Event()
        release_first_reader = threading.Event()

        def first_reader():
            with lock.read_locked():
                release_first_reader.wait(5.0)

        def writer():
            writer_waiting.set()
            with lock.write_locked():
                with order_lock:
                    order.append("writer")

        def late_reader():
            # Arrives after the writer queued: must run after it.
            with lock.read_locked():
                with order_lock:
                    order.append("reader")

        first = threading.Thread(target=first_reader)
        first.start()
        time.sleep(0.05)  # let the first reader in
        writing = threading.Thread(target=writer)
        writing.start()
        assert writer_waiting.wait(5.0)
        time.sleep(0.05)  # writer is now queued on the held lock
        late = threading.Thread(target=late_reader)
        late.start()
        time.sleep(0.05)
        release_first_reader.set()
        for thread in (first, writing, late):
            thread.join(5.0)
        assert order == ["writer", "reader"]

    def test_try_acquire_read_enters_a_free_lock(self):
        lock = ReadWriteLock()
        assert lock.try_acquire_read()
        assert lock.try_acquire_read()  # readers share, even when tried
        lock.release_read()
        lock.release_read()
        with pytest.raises(RuntimeError, match="acquire_read"):
            lock.release_read()  # both tried reads were counted, no more

    def test_try_acquire_read_never_waits_on_a_writer(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            started = time.monotonic()
            assert not lock.try_acquire_read()
            assert time.monotonic() - started < 1.0
        assert lock.try_acquire_read()
        lock.release_read()

    def test_try_acquire_read_defers_to_a_waiting_writer(self):
        """Writer preference holds for the non-blocking path too: a queued
        writer turns the try away rather than letting it jump the queue."""
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not lock._writers_waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert lock._writers_waiting
        assert not lock.try_acquire_read()
        lock.release_read()
        assert writer_in.wait(5.0)
        thread.join(5.0)

    def test_unbalanced_releases_raise(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError, match="acquire_read"):
            lock.release_read()
        with pytest.raises(RuntimeError, match="acquire_write"):
            lock.release_write()


# ----------------------------------------------------------------------
# The tentpole: threaded serving under live updates
# ----------------------------------------------------------------------


class TestThreadedServingStress:
    NUM_ROUTERS = 6
    NUM_UPDATES = 6

    def _build_updates(self, world):
        """A deterministic update sequence: absolute histogram
        replacements, so the table at version v0+i+1 is reproducible by
        replaying updates[0..i] onto a copy of the base table."""
        network, model, _ = world
        num_states = model.config.num_states
        updates = []
        for i in range(self.NUM_UPDATES):
            edges = network.edges[(i * 5) % 40 : (i * 5) % 40 + 5]
            updates.append(model.cost_update(edges, (i + 1) % num_states))
        return updates

    def _cold_engines_by_version(self, world, base_version, updates):
        """version -> cold RoutingEngine over the reconstructed table."""
        network, _, costs = world
        engines = {}
        table = costs.copy()
        engines[base_version] = RoutingEngine(network, ConvolutionModel(table))
        replay = costs.copy()
        for i, update in enumerate(updates):
            replay.apply_deltas(update)
            engines[base_version + i + 1] = RoutingEngine(
                network, ConvolutionModel(replay.copy())
            )
        return engines

    def test_hammering_one_version_is_exact_and_identical(self, world):
        """No updates: N threads on a hot query set.  Accounting is exact,
        every answer matches a cold engine, and duplicate concurrent
        misses (two threads computing the same key) are benign."""
        network, _, costs = world
        service = fresh_service(world)
        reference = RoutingEngine(network, ConvolutionModel(costs.copy()))
        cold = {q: reference.route(q) for q in HOT_QUERIES}
        iterations = 30
        barrier = threading.Barrier(self.NUM_ROUTERS)
        recorded = []
        lock = threading.Lock()

        def router(offset):
            def body():
                barrier.wait()
                mine = []
                for i in range(iterations):
                    query = HOT_QUERIES[(offset + i) % len(HOT_QUERIES)]
                    mine.append((query, service.route(query)))
                with lock:
                    recorded.extend(mine)

            return body

        run_threads([router(o) for o in range(self.NUM_ROUTERS)])
        total = self.NUM_ROUTERS * iterations
        stats = service.stats()
        assert stats.requests == total
        assert stats.cache_hits + stats.cache_misses == total  # exact
        assert stats.cache_entries == len(HOT_QUERIES)
        for query, served in recorded:
            assert served.cost_version == service.cost_version()
            assert_same_answer(served.result, cold[query], query)

    def test_updates_interleaved_with_requests_stay_snapshot_consistent(
        self, world
    ):
        """The core race from the issue: route/route_many hammered while
        apply_cost_update lands mid-flight.  Every answer must bit-equal a
        cold engine at its tagged version, no bump may be lost, and
        hits+misses must equal lookups exactly."""
        service = fresh_service(world)
        base_version = service.cost_version()
        updates = self._build_updates(world)
        stop = threading.Event()
        start = threading.Barrier(self.NUM_ROUTERS + 2 + 1)
        recorded_single = []
        recorded_batches = []
        lock = threading.Lock()
        lookup_counts = []

        def router(offset):
            def body():
                start.wait()
                mine, lookups = [], 0
                while not stop.is_set() and len(mine) < 5_000:
                    query = HOT_QUERIES[(offset + len(mine)) % len(HOT_QUERIES)]
                    mine.append((query, service.route(query)))
                    lookups += 1
                with lock:
                    recorded_single.extend(mine)
                    lookup_counts.append(lookups)

            return body

        def batcher():
            start.wait()
            mine, lookups = [], 0
            while not stop.is_set() and len(mine) < 5_000:
                batch_queries = HOT_QUERIES[:3]
                mine.append((batch_queries, service.route_many(batch_queries)))
                lookups += len(batch_queries)
            with lock:
                recorded_batches.extend(mine)
                lookup_counts.append(lookups)

        def updater():
            start.wait()
            for update in updates:
                time.sleep(0.02)  # let request traffic run at this version
                service.apply_cost_update(update)
            stop.set()

        run_threads(
            [router(o) for o in range(self.NUM_ROUTERS)]
            + [batcher, batcher, updater]
        )

        # No lost version bumps, ever.
        assert service.cost_version() == base_version + len(updates)
        assert service.stats().updates_applied == len(updates)

        # Exact accounting: every lookup is a hit or a miss, nothing else.
        stats = service.stats()
        assert stats.cache_hits + stats.cache_misses == sum(lookup_counts)

        # Snapshot consistency: each answer equals a cold engine at the
        # version it is tagged with — even for requests an update overlapped.
        engines = self._cold_engines_by_version(world, base_version, updates)
        cold_answers = {}  # (version, query) -> answer; few uniques, many records

        def cold(version, query):
            key = (version, query)
            if key not in cold_answers:
                cold_answers[key] = engines[version].route(query)
            return cold_answers[key]

        versions_seen = set()
        for query, served in recorded_single:
            versions_seen.add(served.cost_version)
            assert_same_answer(
                served.result, cold(served.cost_version, query), query
            )
        for batch_queries, served in recorded_batches:
            versions_seen.add(served.cost_version)
            for query, mine in zip(batch_queries, served):
                assert_same_answer(
                    mine, cold(served.cost_version, query), query
                )
        # The stream genuinely overlapped updates (routers run from before
        # the first update until after the last one).
        assert len(versions_seen) >= 2
        # And the service keeps serving correctly at the final version.
        final = service.route(HOT_QUERIES[0])
        assert final.cost_version == base_version + len(updates)
        assert_same_answer(
            final.result, cold(final.cost_version, HOT_QUERIES[0])
        )


# ----------------------------------------------------------------------
# Time-varying serving: route_at across a profile boundary while a
# scheduled incident activates and clears mid-flight
# ----------------------------------------------------------------------


class TestTemporalConcurrency:
    NUM_ROUTERS = 6

    def test_route_at_across_boundary_with_midflight_incident(self, world):
        """Threads hammer ``route_at`` at departure times straddling a
        profile transition band while the incident clock advances
        underneath them (activation, then clearing, each a version bump
        on the peak slice).  Every recorded answer must bit-equal a cold
        engine built on that slice's table at the answer's tagged
        version — no torn tags, no answers computed against a
        half-applied incident."""
        network, model, _ = world
        tables = time_sliced_cost_tables(network, model)
        profile = TemporalCostProfile(
            ScenarioSchedule.default(),
            tables,
            interpolation_points=2,
            transition_seconds=1800.0,
        )
        service = RoutingService.from_temporal_profile(network, profile)
        # Either side of the 07:00 off_peak->peak boundary plus both of
        # its interpolation bins, and a plain off-peak departure.
        departures = [
            6.5 * 3600.0,  # off_peak proper
            6.8 * 3600.0,  # off_peak->peak bin 1
            7.1 * 3600.0,  # off_peak->peak bin 2
            8.0 * 3600.0,  # peak proper
            10.0 * 3600.0,  # off_peak again
        ]
        query = HOT_QUERIES[0]
        incident = ScheduledIncident.closure(
            "stress",
            [network.edges[7].id, network.edges[8].id],
            100.0,
            200.0,
            slices=["peak"],
        )
        service.schedule_incident(incident)

        # Cold references are copied *before* the run: the compiled
        # tables are the very objects the service serves (and mutates
        # when the incident lands).  Each regime's table at every version
        # it will go through — only the peak slice has history
        # (activation, then the preimage restore).
        compiled = profile.tables()
        cold = {}
        for name, table in compiled.items():
            cold[(name, table.version)] = RoutingEngine(
                network, ConvolutionModel(table.copy())
            )
        peak_base = compiled["peak"].version
        replay = compiled["peak"].copy()
        preimage = {
            edge_id: replay.cost(network.edge(edge_id))
            for edge_id in incident.affected_edge_ids
        }
        replay.apply_deltas(incident.effective_costs(preimage))
        cold[("peak", peak_base + 1)] = RoutingEngine(
            network, ConvolutionModel(replay.copy())
        )
        replay.apply_deltas(preimage)
        cold[("peak", peak_base + 2)] = RoutingEngine(
            network, ConvolutionModel(replay)
        )

        stop = threading.Event()
        start = threading.Barrier(self.NUM_ROUTERS + 1)
        recorded = []
        lock = threading.Lock()

        def router(offset):
            def body():
                start.wait()
                mine = []
                while not stop.is_set() and len(mine) < 5_000:
                    departure = departures[(offset + len(mine)) % len(departures)]
                    mine.append((departure, service.route_at(query, departure)))
                with lock:
                    recorded.extend(mine)

            return body

        def clock_driver():
            start.wait()
            time.sleep(0.02)  # traffic at the pre-incident version first
            service.advance_clock(150.0)  # activates on the peak slice
            time.sleep(0.02)
            service.advance_clock(250.0)  # clears it (preimage re-applied)
            time.sleep(0.02)
            stop.set()

        run_threads([router(o) for o in range(self.NUM_ROUTERS)] + [clock_driver])

        cold_answers = {}
        versions_seen = set()
        for departure, served in recorded:
            expected_slice = profile.expanded_schedule().slice_at(departure)
            assert served.slice_name == expected_slice
            key = (served.slice_name, served.cost_version)
            versions_seen.add(key)
            if key not in cold_answers:
                cold_answers[key] = cold[key].route(query)
            assert_same_answer(served.result, cold_answers[key], key)
        # The stream really overlapped the incident: the peak slice was
        # observed at more than one version.
        peak_versions = {v for name, v in versions_seen if name == "peak"}
        assert len(peak_versions) >= 2
        assert service.cost_version("peak") == peak_base + 2
        stats = service.stats()
        assert stats.incidents_activated == 1
        assert stats.incidents_cleared == 1
        assert stats.incidents_active == 0
        # Post-clear answers are bit-equal to the never-incident table's.
        final = service.route_at(query, 8.0 * 3600.0)
        assert_same_answer(
            final.result, cold[("peak", peak_base)].route(query), "cleared"
        )


# ----------------------------------------------------------------------
# One swap site: the live feed, the incident clock, readers and stats()
# all at once
# ----------------------------------------------------------------------


class TestOneSwapSite:
    """Feed updates, incident activation and incident clearing all reach a
    table through the service's one swap site.  Run them against each
    other — and against readers and a ``stats()`` hammer, which take the
    same locks from the other side — and the lock order (incident →
    slice-write → stats) must neither deadlock nor lose a swap."""

    NUM_ROUTERS = 4
    NUM_FEED_UPDATES = 10
    NUM_CYCLES = 6
    WATCHDOG_SECONDS = 30.0

    def test_feed_incidents_readers_and_stats_compose(self, world):
        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        slices = ("peak", "off_peak")  # "night" only ever sees readers
        live = {name: service.engine(name).combiner.costs for name in service.slice_names}
        base = {name: table.copy() for name, table in live.items()}
        base_version = {name: table.version for name, table in live.items()}

        # Every table a slice ever serves, by version.  apply_deltas runs
        # under the slice's write lock, so the cell read right after it is
        # exactly the one that call published.
        cells = {name: {table.version: table.versioned[0]} for name, table in live.items()}

        def record(name, table):
            apply_deltas = table.apply_deltas

            def recording(updates):
                version = apply_deltas(updates)
                cells[name][version] = table.versioned[0]
                return version

            table.apply_deltas = recording

        for name, table in live.items():
            record(name, table)

        # The feed and the incidents touch disjoint edges: clearing
        # re-applies the preimage, so an edge both wrote to would (by
        # design) lose the feed's value and the twin below would differ.
        incident_edges = [edge.id for edge in network.edges[:4]]
        feed = [
            CostUpdate(
                model.cost_update(network.edges[10 + 3 * i : 13 + 3 * i], 1 + i % 2),
                slice_name=slices[i % 2],
                sequence=i + 1,
            )
            for i in range(self.NUM_FEED_UPDATES)
        ]

        stop = threading.Event()
        start = threading.Barrier(self.NUM_ROUTERS + 3)
        # The last of the two writers to finish — or fail — stops the rest.
        writers_done = threading.Barrier(2, action=stop.set)
        recorded, events, snapshots = [], [], []
        lock = threading.Lock()

        def router(offset):
            def body():
                start.wait()
                mine = []
                while not stop.is_set() and len(mine) < 5_000:
                    name = service.slice_names[(offset + len(mine)) % 3]
                    query = HOT_QUERIES[(offset + len(mine)) % len(HOT_QUERIES)]
                    mine.append((name, query, service.route(query, slice_name=name)))
                with lock:
                    recorded.extend(mine)

            return body

        def feeder():
            start.wait()
            for update in feed:
                time.sleep(0.005)
                service.apply_cost_update(update)

        def clock_driver():
            start.wait()
            for cycle in range(self.NUM_CYCLES):
                opens = 10.0 * cycle + 1.0
                targets = slices if cycle % 2 else slices[:1]
                if cycle % 3:
                    incident = ScheduledIncident.capacity_drop(
                        f"c{cycle}", incident_edges, 1.5, opens, opens + 2.0, slices=targets
                    )
                else:
                    incident = ScheduledIncident.closure(
                        f"c{cycle}", incident_edges[:2], opens, opens + 2.0, slices=targets
                    )
                service.schedule_incident(incident)
                events.extend(service.advance_clock(opens + 1.0))  # activates
                time.sleep(0.005)
                events.extend(service.advance_clock(opens + 3.0))  # clears

        def stats_hammer():
            # Each snapshot is coherent within its groups (checked here, not
            # kept: a wedged run must not pile snapshots up until the watchdog).
            start.wait()
            while not stop.is_set():
                seen = service.stats()
                assert seen.requests == sum(s.requests for s in seen.strategies.values())
                assert seen.incidents_activated - seen.incidents_cleared == seen.incidents_active
                snapshots.append(seen.updates_applied)

        def writer(body):
            def run():
                try:
                    body()
                finally:
                    writers_done.wait()

            return run

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            run_threads(
                [writer(feeder), writer(clock_driver), stats_hammer]
                + [router(o) for o in range(self.NUM_ROUTERS)],
                watchdog_seconds=self.WATCHDOG_SECONDS,
            )
        finally:
            sys.setswitchinterval(switch_interval)

        # Every swap happened, exactly once, and was counted.
        activated = [e for e in events if e["event"] == "activated"]
        cleared = [e for e in events if e["event"] == "cleared"]
        assert len(activated) == len(cleared) == self.NUM_CYCLES
        swaps = len(feed) + sum(len(e["slices"]) for e in activated + cleared)
        stats = service.stats()
        assert stats.updates_applied == swaps
        assert sum(len(by_version) - 1 for by_version in cells.values()) == swaps
        for name, table in live.items():
            assert table.version == base_version[name] + len(cells[name]) - 1
        assert (stats.incidents_activated, stats.incidents_cleared) == (
            self.NUM_CYCLES, self.NUM_CYCLES
        )
        assert (stats.incidents_pending, stats.incidents_active) == (0, 0)
        assert stats.cache_hits + stats.cache_misses == len(recorded) == stats.requests

        # stats() really ran beside the swaps, and never saw a count go back.
        assert snapshots == sorted(snapshots) and len(set(snapshots)) >= 2

        # Every answer equals a cold engine over the table its tag names.
        engines, cold = {}, {}
        for name, query, served in recorded:
            key = (name, served.cost_version)
            if key not in engines:
                table = base[name].copy()
                table.apply_deltas(dict(cells[name][served.cost_version]))
                engines[key] = RoutingEngine(network, ConvolutionModel(table))
            if (key, query) not in cold:
                cold[key, query] = engines[key].route(query)
            assert_same_answer(served.result, cold[key, query], (key, query))
        assert len({key for key in engines if key[0] == "peak"}) >= 2

        # With every incident cleared, the tables are what the feed alone
        # would have made them: revert identity, composed with live updates.
        for name, table in live.items():
            twin = base[name].copy()
            for update in feed:
                if update.slice_name == name:
                    twin.apply_deltas(update.costs)
            for edge in network.edges:
                assert table.cost(edge) == twin.cost(edge), (name, edge.id)
                assert list(table.cost(edge).probs) == list(twin.cost(edge).probs)


# ----------------------------------------------------------------------
# Derived state: one build per version, however many threads ask
# ----------------------------------------------------------------------


class TestDerivedStateSingleFlight:
    """Kernel blocks and heuristics hang off their cost-table version
    through one single-flight memo: racing threads share one build, and a
    failed build neither leaves an entry nor wedges its waiters."""

    NUM_THREADS = 4
    WATCHDOG_SECONDS = 30.0

    @staticmethod
    def _slow_counted(monkeypatch, cls, fail_first=False):
        """Wrap ``cls.__init__``: count calls, and hold each long enough
        (GIL released) that every racing thread arrives mid-build."""
        calls = []
        init = cls.__init__

        def counted(self, *args, **kwargs):
            calls.append(threading.get_ident())
            first = len(calls) == 1
            time.sleep(0.05)
            if fail_first and first:
                raise RuntimeError("injected build failure")
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
        return calls

    def test_racing_threads_share_one_kernel_block_and_one_heuristic(
        self, world, monkeypatch
    ):
        from repro.routing import columnar

        network, model, base = world
        costs = base.copy()
        engine = RoutingEngine(network, ConvolutionModel(costs), backend="columnar")
        query = RoutingQuery(0, 24, 40)
        engine.route(query)  # warm at the old version: the bump must strand it
        costs.apply_deltas(model.cost_update(network.edges[:5], 1))
        kernel_builds = self._slow_counted(monkeypatch, columnar._EdgeKernels)
        heuristic_builds = self._slow_counted(monkeypatch, OptimisticHeuristic)
        barrier = threading.Barrier(self.NUM_THREADS)
        answers = []

        def worker():
            barrier.wait()
            answers.append(engine.route(query))

        run_threads([worker] * self.NUM_THREADS, watchdog_seconds=self.WATCHDOG_SECONDS)
        assert len(kernel_builds) == 1 and len(heuristic_builds) == 1
        monkeypatch.undo()
        cold = RoutingEngine(
            network, ConvolutionModel(costs.copy()), backend="columnar"
        ).route(query)
        assert len(answers) == self.NUM_THREADS
        for answer in answers:
            assert_same_answer(answer, cold)

    def test_heuristics_to_different_targets_share_one_min_tick_graph(
        self, world, monkeypatch
    ):
        """The per-cell graph under the per-target searches: four targets
        asked for at once after a bump cost four searches and *one* graph."""
        from repro.routing import heuristics

        network, model, base = world
        costs = base.copy()
        targets = [24, 3, 4, 22]
        OptimisticHeuristic.shared(network, costs, 24)  # the bump must strand it
        costs.apply_deltas(model.cost_update(network.edges[:5], 1))
        builds = []
        build = heuristics._build_min_tick_graphs

        def counted(*args):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # GIL released: every racing thread arrives mid-build
            return build(*args)

        monkeypatch.setattr(heuristics, "_build_min_tick_graphs", counted)
        barrier = threading.Barrier(len(targets))
        bounds = {}

        def worker(target):
            barrier.wait()
            bounds[target] = OptimisticHeuristic.shared(network, costs, target).bounds

        run_threads(
            [lambda t=t: worker(t) for t in targets], watchdog_seconds=self.WATCHDOG_SECONDS
        )
        assert len(builds) == 1
        monkeypatch.undo()
        cold = costs.copy()
        for target in targets:
            assert np.array_equal(
                bounds[target], heuristics.min_tick_bounds(network, cold, target)
            )

    def test_failed_build_reaches_its_caller_only_and_a_waiter_rebuilds(
        self, world, monkeypatch
    ):
        network, _, base = world
        costs = base.copy()
        builds = self._slow_counted(monkeypatch, OptimisticHeuristic, fail_first=True)
        barrier = threading.Barrier(self.NUM_THREADS)
        outcomes = []

        def worker():
            barrier.wait()
            try:
                outcomes.append(OptimisticHeuristic.shared(network, costs, 24))
            except RuntimeError as exc:
                outcomes.append(exc)

        run_threads([worker] * self.NUM_THREADS, watchdog_seconds=self.WATCHDOG_SECONDS)
        failures = [o for o in outcomes if isinstance(o, RuntimeError)]
        built = [o for o in outcomes if not isinstance(o, RuntimeError)]
        assert len(failures) == 1 and len(built) == self.NUM_THREADS - 1
        assert len(builds) == 2  # the failure, then exactly one rebuild
        assert all(heuristic is built[0] for heuristic in built)
        assert OptimisticHeuristic.shared(network, costs, 24) is built[0]
        monkeypatch.undo()
        assert built[0].table == OptimisticHeuristic(network, costs, 24).table


# ----------------------------------------------------------------------
# ThreadedFrontend
# ----------------------------------------------------------------------


class TestThreadedFrontend:
    def test_lifecycle_and_ordering(self, world):
        service = fresh_service(world)
        frontend = ThreadedFrontend(service, num_workers=3)
        with pytest.raises(RuntimeError, match="start"):
            frontend.submit({"op": "stats"})
        requests = [
            {"op": "route", "query": q.to_dict()} for q in HOT_QUERIES
        ] * 4
        with frontend:
            responses = frontend.map_requests(requests)
            assert all(r["ok"] for r in responses)
            # Input order is preserved regardless of completion order.
            for request, response in zip(requests, responses):
                assert response["result"] is not None
                assert (
                    response["result"]["query"]["source"]
                    == request["query"]["source"]
                )
            assert frontend.request({"op": "stats"})["ok"]
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit({"op": "stats"})
        frontend.close()  # idempotent
        counts = frontend.stats.read()
        assert counts["submitted"] == counts["completed"] == len(requests) + 1

    def test_bad_requests_come_back_as_error_documents(self, world):
        service = fresh_service(world)
        with ThreadedFrontend(service, num_workers=2) as frontend:
            response = frontend.request({"op": "warp"})
            assert response["ok"] is False
            assert "unknown op" in response["error"]
            # The pool survived: the next request is served normally.
            assert frontend.request({"op": "stats"})["ok"]

    def test_failing_delivery_fails_only_that_future(self, world):
        service = fresh_service(world)
        calls = []

        def deliver(request, response):
            calls.append(request["op"])
            if request["op"] == "stats":
                raise OSError("client hung up")

        with ThreadedFrontend(service, num_workers=2, deliver=deliver) as fe:
            broken = fe.submit({"op": "stats"})
            fine = fe.submit(
                {"op": "route", "query": HOT_QUERIES[0].to_dict()}
            )
            with pytest.raises(OSError, match="hung up"):
                broken.result(timeout=10)
            assert fine.result(timeout=10)["ok"]
        assert fe.stats.read()["delivery_failures"] == 1
        assert set(calls) == {"stats", "route"}

    def test_close_without_drain_cancels_pending_work(self, world):
        service = fresh_service(world)
        worker_busy = threading.Event()
        release_worker = threading.Event()

        def deliver(request, response):
            worker_busy.set()
            release_worker.wait(10.0)

        frontend = ThreadedFrontend(
            service, num_workers=1, deliver=deliver
        ).start()
        running = frontend.submit({"op": "stats"})
        assert worker_busy.wait(10.0)  # the only worker is now stuck
        pending = [frontend.submit({"op": "stats"}) for _ in range(3)]
        closer = threading.Thread(
            target=lambda: frontend.close(drain=False)
        )
        closer.start()
        time.sleep(0.1)  # close() drains the queue before we unblock
        release_worker.set()
        closer.join(10.0)
        assert not closer.is_alive()
        assert running.result(timeout=10)["ok"]
        assert all(future.cancelled() for future in pending)
        assert frontend.stats.read()["cancelled"] == len(pending)

    def test_caller_cancelled_request_frees_its_slot_and_is_counted(self, world):
        """A caller may cancel the future it holds while the request is still
        queued: no worker will ever run it, so it must give its
        ``max_pending`` slot back and land on the books as cancelled."""
        service = fresh_service(world)
        worker_busy = threading.Event()
        release_worker = threading.Event()

        def deliver(request, response):
            worker_busy.set()
            release_worker.wait(10.0)

        frontend = ThreadedFrontend(
            service, num_workers=1, max_pending=1, deliver=deliver
        ).start()
        running = frontend.submit({"op": "stats"})
        assert worker_busy.wait(10.0)  # the only worker is now stuck
        queued = frontend.submit({"op": "stats"})  # fills the bounded queue
        assert queued.cancel()
        after = []
        submitter = threading.Thread(
            target=lambda: after.append(frontend.submit({"op": "stats"}))
        )
        submitter.start()
        submitter.join(10.0)
        assert not submitter.is_alive(), "the cancelled request kept its slot"
        release_worker.set()
        assert running.result(timeout=10)["ok"]
        assert after[0].result(timeout=10)["ok"]
        frontend.close()
        counts = frontend.stats.read()
        assert (counts["submitted"], counts["completed"], counts["cancelled"]) == (3, 2, 1)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_invalid_worker_counts_rejected(self, world, bad):
        with pytest.raises(ValueError, match="num_workers"):
            ThreadedFrontend(fresh_service(world), num_workers=bad)

    def test_submission_is_counted_before_the_request_can_complete(self, world):
        """Regression: ``submitted`` must be bumped *before* the hand-off to
        the pool.  The race window is forced deterministically from the
        worker's side: the ``deliver`` gate runs at the earliest moment a
        worker holds the answer, and the snapshot it takes showed
        ``submitted=0`` pre-fix; the snapshot at completion showed
        ``completed=1, submitted=0``."""
        service = fresh_service(world)
        at_delivery = []

        def deliver(request, response):
            at_delivery.append(frontend.stats.read())

        frontend = ThreadedFrontend(service, num_workers=1, deliver=deliver).start()
        in_window = []
        future = frontend.submit({"op": "stats"})
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            counts = frontend.stats.read()
            if counts["completed"] >= 1:
                in_window.append(counts)
                break
            time.sleep(0.001)
        assert future.result(timeout=10)["ok"]
        frontend.close()
        assert at_delivery and at_delivery[0]["submitted"] == 1
        assert at_delivery[0]["completed"] == 0
        assert in_window, "the worker never completed inside the race window"
        assert in_window[0]["submitted"] >= in_window[0]["completed"] == 1

    def test_snapshots_never_show_more_outcomes_than_submissions(self, world):
        """Stress the ordering fix: a sampler thread reads counters while
        4 submitters and 4 workers run flat out — *every* snapshot must
        satisfy ``submitted >= completed + cancelled`` (interleaving-
        independent; pre-fix the submit/complete race broke it)."""
        service = fresh_service(world)
        frontend = ThreadedFrontend(service, num_workers=4).start()
        stop = threading.Event()
        violations = []

        def sampler():
            while not stop.is_set():
                counts = frontend.stats.read()
                if counts["completed"] + counts["cancelled"] > counts["submitted"]:
                    violations.append(counts)

        def submitter():
            for _ in range(150):
                assert frontend.submit({"op": "stats"}).result(timeout=30)["ok"]

        sampling = threading.Thread(target=sampler)
        sampling.start()
        try:
            run_threads([submitter] * 4)
        finally:
            stop.set()
            sampling.join(10.0)
        frontend.close()
        assert not sampling.is_alive()
        assert violations == []
        counts = frontend.stats.read()
        assert counts["submitted"] == counts["completed"] == 4 * 150
        assert counts["cancelled"] == 0

    def test_map_requests_leaves_no_uncollectable_futures_on_close(self, world):
        """Regression: a mid-list submit raising FrontendClosedError must
        not leak the already-submitted prefix — by the time the error
        reaches the caller, every prefix future is settled (served,
        failed or cancelled), never forever-pending."""
        service = fresh_service(world)
        release_delivery = threading.Event()

        def deliver(request, response):
            release_delivery.wait(10.0)

        class RecordingFrontend(ThreadedFrontend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.issued = []

            def submit(self, request):
                future = super().submit(request)
                self.issued.append(future)
                return future

        frontend = RecordingFrontend(
            service, num_workers=1, max_pending=1, deliver=deliver
        ).start()
        outcome = {}

        def mapper():
            # 1st request occupies the worker (stuck in deliver), 2nd
            # fills the bounded queue, 3rd blocks on the full queue —
            # where close() catches it.
            try:
                frontend.map_requests([{"op": "stats"}] * 4)
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["raised"] = exc
                outcome["undone"] = [
                    f for f in frontend.issued if not f.done()
                ]

        mapping = threading.Thread(target=mapper)
        mapping.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and len(frontend.issued) < 2:
            time.sleep(0.001)
        time.sleep(0.05)  # let the third submit block on the full queue
        closer = threading.Thread(target=lambda: frontend.close(drain=False))
        closer.start()
        time.sleep(0.05)
        release_delivery.set()
        closer.join(10.0)
        mapping.join(10.0)
        assert not closer.is_alive() and not mapping.is_alive()
        assert isinstance(outcome.get("raised"), FrontendClosedError)
        # The contract under test: nothing in flight survives the error.
        assert outcome["undone"] == []
        # And the books balance: every settled outcome traces back to a
        # counted submission.
        counts = frontend.stats.read()
        assert counts["completed"] + counts["cancelled"] <= counts["submitted"]

    def test_pool_with_live_updates_stays_snapshot_consistent(self, world):
        """The whole stack through the wire: 4 workers serving route
        documents while update documents land through the same queue.
        Every response's answer must match a cold engine at the version
        the response is tagged with."""
        network, _, costs = world
        service = fresh_service(world)
        base_version = service.cost_version()
        stress = TestThreadedServingStress()
        updates = stress._build_updates(world)
        route_requests = [
            {"op": "route", "query": HOT_QUERIES[i % len(HOT_QUERIES)].to_dict()}
            for i in range(60)
        ]
        with ThreadedFrontend(service, num_workers=4) as frontend:
            futures = []
            for index, request in enumerate(route_requests):
                futures.append((index, frontend.submit(request)))
                if index % 12 == 11:  # an update every 12 requests
                    update = CostUpdate(costs=updates[index // 12])
                    frontend.submit(
                        {"op": "apply_update", "update": update.to_dict()}
                    ).result()
            responses = [(i, f.result(timeout=30)) for i, f in futures]
        assert service.cost_version() == base_version + 5
        engines = stress._cold_engines_by_version(world, base_version, updates)
        cold_answers = {}
        for index, response in responses:
            assert response["ok"], response
            query = HOT_QUERIES[index % len(HOT_QUERIES)]
            key = (response["cost_version"], query)
            if key not in cold_answers:
                cold_answers[key] = engines[key[0]].route(query)
            reference = cold_answers[key]
            assert response["result"]["probability"] == reference.probability
            assert response["result"]["path"] == [
                e.id for e in reference.path
            ]
