"""Resilient-serving tests: deadlines, degradation, breakers, faults.

The resilience contract locked down here:

* a **generous deadline changes nothing** — the answer is bit-identical
  to the same request without a deadline, and is admitted to the cache;
* an **overrunning search degrades, never blocks**: best anytime pivot,
  then the deterministic ``expected_time`` fallback, then a
  stale-but-version-tagged cache entry, and only then
  :class:`DeadlineExceededError` — each rung labelled on the document;
* the per-strategy **circuit breaker** trips on consecutive deadline
  misses, fast-fails onto the fallback rungs, and recovers through a
  half-open probe (the ISSUE's trip → half-open → closed cycle);
* the **fault injector is deterministic** — same seed, same schedule —
  and every injected failure (crash, stall, poisoned feed, clock skew)
  is contained by the frontend's retry policy and error documents;
* ``error_kind`` codes are stable wire contract, and
  :class:`FrontendClosedError` makes the close/submit race loud.
"""

import functools
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import RoadNetwork, grid_network
from repro.routing import RoutingQuery, RoutingStrategy, register_strategy
from repro.routing import engine as engine_module
from repro.service import (
    CircuitBreaker,
    DeadlineExceededError,
    FaultInjector,
    FrontendClosedError,
    InjectedFault,
    NoRouteError,
    RetryPolicy,
    RoutingService,
    ThreadedFrontend,
    charge_queue_wait,
    error_kind,
)
from repro.trajectories import CongestionModel

QUERY = RoutingQuery(0, 24, 40)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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


@pytest.fixture
def declining_strategy():
    """A registered strategy that always declines (returns ``None``).

    Declining under a deadline is a rung-1 failure, so this drives the
    ladder's lower rungs (and the breaker) deterministically.
    """

    @register_strategy("decline_for_resilience_test")
    class Decline(RoutingStrategy):
        supports_time_limit = True

        def route(self, engine, query, *, time_limit_seconds=None):
            return None

    yield "decline_for_resilience_test"
    engine_module._STRATEGIES.pop("decline_for_resilience_test", None)


@pytest.fixture
def flaky_strategy():
    """A registered strategy whose health the test controls via a flag."""

    @register_strategy("flaky_for_resilience_test")
    class Flaky(RoutingStrategy):
        supports_time_limit = True
        broken = True

        def route(self, engine, query, *, time_limit_seconds=None):
            if Flaky.broken:
                return None
            return engine.route(query, strategy="pbr")

    yield Flaky
    engine_module._STRATEGIES.pop("flaky_for_resilience_test", None)


def disconnected_world():
    """Two 2-vertex islands: vertex 0->1 routes, 0->2 provably cannot."""
    network = RoadNetwork()
    for vertex_id, x in ((0, 0.0), (1, 100.0), (2, 5000.0), (3, 5100.0)):
        network.add_vertex(vertex_id, x, 0.0)
    network.add_edge(0, 1)
    network.add_edge(2, 3)
    model = CongestionModel(network, seed=7)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return network, costs


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------


class TestDeadlineLadder:
    def test_generous_deadline_is_bit_identical_and_cacheable(self, world):
        service = fresh_service(world)
        reference = fresh_service(world).route(QUERY)
        answered = service.route(QUERY, deadline_seconds=30.0)
        assert not answered.degraded
        assert answered.fallback_strategy is None
        assert_same_answer(answered.result, reference.result)
        # A completed bounded search is a normal answer: admitted, so the
        # next (deadline-free) request hits the very same object.
        followup = service.route(QUERY)
        assert followup.cache_hit
        assert followup.result is answered.result
        assert service.stats().deadline_misses == 0

    def test_fresh_cache_hit_beats_even_an_expired_deadline(self, world):
        service = fresh_service(world)
        warmed = service.route(QUERY)
        served = service.route(QUERY, deadline_seconds=-1.0)
        assert served.cache_hit and not served.degraded
        assert served.result is warmed.result
        assert service.stats().deadline_misses == 0

    def test_rung1_overrun_serves_the_anytime_pivot(self, world):
        # A fake service clock keeps `remaining` positive while the
        # search's own wall clock expires the cooperative limit on the
        # first label expansion — rung 1 deterministically overruns.
        service = fresh_service(world, clock=FakeClock())
        served = service.route(QUERY, deadline_seconds=1e-9)
        assert served.degraded
        assert served.fallback_strategy == "anytime"
        assert served.found  # the pivot is a usable route
        assert not served.cache_hit
        stats = service.stats()
        assert stats.deadline_misses == 1
        assert stats.served_degraded == 1
        assert stats.served_stale == 0
        # Degraded answers are never admitted: the next request recomputes.
        assert not service.route(QUERY).cache_hit

    def test_rung2_falls_back_to_expected_time(self, world, declining_strategy):
        service = fresh_service(world)
        reference = fresh_service(world).route(QUERY, strategy="expected_time")
        served = service.route(QUERY, strategy=declining_strategy,
                               deadline_seconds=30.0)
        assert served.degraded
        assert served.fallback_strategy == "expected_time"
        assert served.strategy == declining_strategy  # labelled as requested
        assert_same_answer(served.result, reference.result)
        stats = service.stats()
        assert stats.deadline_misses == 1 and stats.served_degraded == 1

    def test_rung3_serves_stale_tagged_with_its_old_version(self, world):
        network, model, _ = world
        service = fresh_service(world)
        warmed = service.route(QUERY)
        old_version = warmed.cost_version
        # The hot-swap strands the fresh entry; the stale store keeps it.
        service.apply_cost_update(
            {e.id: model.edge_marginal(e) for e in network.edges[:3]}
        )
        served = service.route(QUERY, deadline_seconds=-1.0)
        assert served.degraded
        assert served.fallback_strategy == "stale_cache"
        assert served.cache_hit  # it *is* a cached answer — an old one
        assert served.cost_version == old_version  # stale is explicit
        assert served.cost_version != service.cost_version()
        assert served.result is warmed.result
        stats = service.stats()
        assert stats.served_stale == 1 and stats.served_degraded == 1

    def test_bottom_of_the_ladder_raises_deadline_exceeded(self, world):
        service = fresh_service(world)
        with pytest.raises(DeadlineExceededError):
            service.route(QUERY, deadline_seconds=-1.0)  # cold: no rung left
        stats = service.stats()
        assert stats.deadline_misses == 1
        # The failed request's miss was refunded — exact cache accounting.
        assert stats.cache_misses == 0 and stats.cache_hits == 0

    def test_no_route_is_definitive_not_deadline_exceeded(
        self, world, declining_strategy
    ):
        network, costs = disconnected_world()
        service = RoutingService(network, ConvolutionModel(costs))
        served = service.route(
            RoutingQuery(0, 1, 10_000), strategy=declining_strategy,
            deadline_seconds=30.0,
        )
        assert served.degraded and served.fallback_strategy == "expected_time"
        with pytest.raises(NoRouteError):
            service.route(
                RoutingQuery(0, 2, 10_000), strategy=declining_strategy,
                deadline_seconds=30.0,
            )

    def test_route_at_threads_the_deadline_through(self, world, declining_strategy):
        from repro.service import time_sliced_cost_tables

        network, model, _ = world
        service = RoutingService.from_time_slices(
            network, time_sliced_cost_tables(network, model)
        )
        served = service.route_at(
            QUERY, 8 * 3600.0, strategy=declining_strategy, deadline_seconds=30.0
        )
        assert served.slice_name == "peak"
        assert served.degraded and served.fallback_strategy == "expected_time"

    @settings(max_examples=25)
    @given(budget=st.integers(min_value=10, max_value=80),
           deadline=st.floats(min_value=5.0, max_value=120.0))
    def test_generous_deadlines_never_change_answers(self, world, budget, deadline):
        """Property: any comfortably-met deadline is invisible in the
        answer — same route, same probability, same distribution."""
        service = fresh_service(world)
        query = RoutingQuery(0, 24, budget)
        bounded = service.route(query, deadline_seconds=deadline)
        service.clear_cache()
        unbounded = service.route(query)
        assert not bounded.degraded
        if bounded.found or unbounded.found:
            assert_same_answer(bounded.result, unbounded.result)

    @settings(max_examples=25)
    @given(budget=st.integers(min_value=10, max_value=80))
    def test_expired_deadlines_always_reach_a_labelled_rung(self, world, budget):
        """Property: an already-expired deadline either serves something
        explicitly tagged (fresh hit, stale entry) or raises
        DeadlineExceededError — never an unlabelled partial answer."""
        service = fresh_service(world)
        query = RoutingQuery(0, 24, budget)
        warmed = service.route(query)  # fresh entry exists
        served = service.route(query, deadline_seconds=0.0)
        assert served.cache_hit
        assert served.result is warmed.result
        service.clear_cache()  # fresh gone; the stale store survives
        stale = service.route(query, deadline_seconds=0.0)
        assert stale.degraded and stale.fallback_strategy == "stale_cache"
        assert stale.result is warmed.result


class TestDeadlineBatches:
    def test_batch_deadline_splits_budget_and_flags_degradation(self, world):
        service = fresh_service(world, clock=FakeClock())
        queries = [RoutingQuery(0, 24, b) for b in (30, 40, 50)]
        served = service.route_many(queries, deadline_seconds=1e-9)
        assert served.degraded
        assert len(served) == 3
        assert service.stats().deadline_misses == 1
        # Overrun members were not admitted — nothing to hit.
        followup = service.route_many(queries)
        assert followup.cache_hits == 0

    def test_batch_with_generous_deadline_is_not_degraded(self, world):
        service = fresh_service(world)
        queries = [RoutingQuery(0, 24, b) for b in (30, 40)]
        served = service.route_many(queries, deadline_seconds=30.0)
        assert not served.degraded
        assert served.cache_misses == 2
        again = service.route_many(queries, deadline_seconds=30.0)
        assert again.cache_hits == 2 and not again.degraded

    def test_batch_expired_before_dispatch_serves_hits_only(self, world):
        service = fresh_service(world)
        hot, cold = RoutingQuery(0, 24, 40), RoutingQuery(0, 24, 77)
        warmed = service.route(hot)
        served = service.route_many([hot, cold], deadline_seconds=-1.0)
        assert served.degraded
        assert served[0] is warmed.result
        assert served[1] is None
        assert served.cache_hits == 1 and served.cache_misses == 1


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreakerUnit:
    def test_trips_on_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        breaker.record_success()  # streak broken
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.trips == 0
        breaker.record_failure()  # fifth consecutive
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = trip(CircuitBreaker(clock=clock))
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # everyone else keeps fast-failing
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = trip(CircuitBreaker(clock=clock))
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open" and breaker.trips == 2
        clock.advance(0.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_probe_is_admitted_at_exactly_the_cooldown(self):
        clock = FakeClock()
        clock.advance(100.0)
        breaker = trip(CircuitBreaker(clock=clock))
        clock.now = 100.0 + CircuitBreaker.COOLDOWN_SECONDS - 1e-9
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now = 100.0 + CircuitBreaker.COOLDOWN_SECONDS
        assert breaker.state == "half_open"
        assert breaker.allow()

    def test_released_probe_frees_the_slot_without_a_verdict(self):
        clock = FakeClock()
        breaker = trip(CircuitBreaker(clock=clock))
        clock.advance(1.0)
        assert breaker.allow()
        breaker.release_probe()
        assert breaker.state == "half_open" and breaker.trips == 1
        assert breaker.allow()  # the next caller probes
        assert not breaker.allow()

    def test_release_probe_never_admits_past_an_open_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.release_probe()  # closed: nothing to release
        assert breaker.state == "closed" and breaker.allow()
        trip(breaker)
        breaker.release_probe()
        assert breaker.state == "open" and not breaker.allow()


def trip(breaker):
    """Drive ``breaker`` open with exactly its failure threshold."""
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure()
    assert breaker.state == "open"
    return breaker


def miss(service, name, times):
    """``times`` deadline requests on ``name``; each must come back degraded."""
    for _ in range(times):
        assert service.route(QUERY, strategy=name, deadline_seconds=5.0).degraded


class TestServiceBreakerRecovery:
    def test_trip_fast_fail_half_open_probe_close(self, world, flaky_strategy):
        """Consecutive deadline misses trip the breaker, an open breaker
        skips straight to the fallback rungs, and after the cooldown one
        probe closes it again."""
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        name = "flaky_for_resilience_test"
        flaky_strategy.broken = True
        miss(service, name, 5)  # five consecutive misses: trip
        stats = service.stats()
        assert stats.breakers[name] == "open"
        assert stats.breaker_trips == 1
        assert stats.deadline_misses == 5

        # Open: the primary is never attempted (no new deadline miss),
        # the fallback rung answers immediately.
        served = service.route(QUERY, strategy=name, deadline_seconds=5.0)
        assert served.degraded and served.fallback_strategy == "expected_time"
        assert service.stats().deadline_misses == 5

        # Cooldown elapses; the strategy recovers; the probe closes it.
        clock.advance(1.0)
        assert service.stats().breakers[name] == "half_open"
        flaky_strategy.broken = False
        served = service.route(QUERY, strategy=name, deadline_seconds=5.0)
        assert not served.degraded
        stats = service.stats()
        assert stats.breakers[name] == "closed"
        assert stats.breaker_trips == 1  # recovery is not another trip

    def test_failed_probe_reopens_the_service_breaker(self, world, flaky_strategy):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        name = "flaky_for_resilience_test"
        flaky_strategy.broken = True
        miss(service, name, 5)
        assert service.stats().breakers[name] == "open"
        clock.advance(1.0)
        service.route(QUERY, strategy=name, deadline_seconds=5.0)  # probe fails
        stats = service.stats()
        assert stats.breakers[name] == "open"
        assert stats.breaker_trips == 2

    def test_breakers_are_per_strategy(self, world, flaky_strategy):
        service = fresh_service(world, clock=FakeClock())
        flaky_strategy.broken = True
        miss(service, "flaky_for_resilience_test", 5)
        served = service.route(QUERY, strategy="pbr", deadline_seconds=5.0)
        assert not served.degraded  # pbr's breaker is untouched
        breakers = service.stats().breakers
        assert breakers["flaky_for_resilience_test"] == "open"
        assert breakers["pbr"] == "closed"

    def test_service_breaker_trips_on_exactly_the_fifth_miss(
        self, world, flaky_strategy
    ):
        service = fresh_service(world, clock=FakeClock())
        name = "flaky_for_resilience_test"
        flaky_strategy.broken = True
        miss(service, name, 4)
        stats = service.stats()
        assert stats.breakers[name] == "closed" and stats.breaker_trips == 0
        miss(service, name, 1)
        stats = service.stats()
        assert stats.breakers[name] == "open" and stats.breaker_trips == 1

    def test_service_probe_is_admitted_at_exactly_one_second(
        self, world, flaky_strategy
    ):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)
        name = "flaky_for_resilience_test"
        flaky_strategy.broken = True
        miss(service, name, 5)
        flaky_strategy.broken = False
        clock.advance(0.5)
        served = service.route(QUERY, strategy=name, deadline_seconds=5.0)
        assert served.fallback_strategy == "expected_time"  # still open
        clock.advance(0.5)
        served = service.route(QUERY, strategy=name, deadline_seconds=5.0)
        assert not served.degraded  # the probe ran the primary and closed it
        assert service.stats().breakers[name] == "closed"


class TestRaisingProbeReleasesItsSlot:
    """A half-open probe whose search raises gives the slot back unjudged.

    A slot kept by a raising probe would be taken forever: the breaker
    would sit in ``half_open`` and every later deadline request for the
    strategy would be served degraded by ``expected_time``, its search
    never run.
    """

    @pytest.mark.parametrize("cause", ["bad_request", "internal"])
    def test_over_the_wire(self, world, monkeypatch, cause):
        clock = FakeClock()
        service = fresh_service(world, clock=clock)

        def kbest(k, deadline_ms):
            return service.handle_request({
                "op": "route", "query": QUERY.to_dict(), "strategy": "kbest",
                "kwargs": {"k": k}, "deadline_ms": deadline_ms,
            })

        for _ in range(5):  # a nanosecond deadline under a frozen clock: misses
            assert kbest(3, 1e-6)["degraded"]
        assert service.stats().breakers["kbest"] == "open"
        clock.advance(1.0)
        engine = service.engine()
        if cause == "internal":
            def crash(*args, **kwargs):
                raise RuntimeError("search crashed")

            monkeypatch.setattr(engine, "route", crash)
        probe = kbest(0 if cause == "bad_request" else 3, 5000)
        assert probe["ok"] is False and probe["error_kind"] == cause
        monkeypatch.undo()
        stats = service.stats()
        assert stats.breakers["kbest"] == "half_open"  # no verdict either way
        assert stats.breaker_trips == 1
        clock.advance(3600.0)
        served = kbest(3, 5000)
        assert served["ok"] and not served["degraded"]
        expected = engine.route(QUERY, strategy="kbest", k=3).to_dict()
        assert served["result"]["routes"] == expected["routes"]
        assert service.stats().breakers["kbest"] == "closed"


# ----------------------------------------------------------------------
# The one pipeline: every exit keeps the books
# ----------------------------------------------------------------------


@pytest.fixture
def scratch_strategies():
    """Two throwaway strategies: one takes any ``blob`` kwarg, one crashes."""

    @register_strategy("blob_for_pipeline_test")
    class Blob(RoutingStrategy):
        def route(self, engine, query, *, time_limit_seconds=None, blob=None):
            return engine.route(query, strategy="pbr")

    @register_strategy("explode_for_pipeline_test")
    class Explode(RoutingStrategy):
        supports_time_limit = True

        def route(self, engine, query, *, time_limit_seconds=None):
            raise RuntimeError("search crashed")

    yield
    engine_module._STRATEGIES.pop("blob_for_pipeline_test", None)
    engine_module._STRATEGIES.pop("explode_for_pipeline_test", None)


def _lead_then_follow(service, lead, follow, *, release_on_join, crash_leader=False):
    """Run ``lead`` on a thread and, once its search is in flight, ``follow``.

    The leader's (first) engine search blocks until the follower has
    joined its flight — a follower's first act is refunding its miss —
    when ``release_on_join``, else until ``follow`` has returned; then it
    runs for real, or raises when ``crash_leader``.  Later searches run
    free.  Returns what ``lead`` raised, if anything.
    """
    engine = service.engine()
    real_route = engine.route
    entered, release = threading.Event(), threading.Event()
    first = [True]

    def gated_route(query, **kwargs):
        if first[0]:
            first[0] = False
            entered.set()
            assert release.wait(10.0), "the leader was never released"
            if crash_leader:
                raise RuntimeError("injected search crash")
        return real_route(query, **kwargs)

    engine.route = gated_route
    if release_on_join:
        real_refund = service._cache.refund_miss

        def refund_then_release(count=1):
            real_refund(count)
            release.set()

        service._cache.refund_miss = refund_then_release
    raised = []

    def leading():
        try:
            lead()
        except Exception as exc:  # noqa: BLE001 - handed back to the test
            raised.append(exc)

    thread = threading.Thread(target=leading)
    thread.start()
    try:
        assert entered.wait(10.0), "the leader never reached the engine"
        follow()
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive(), "the leader never finished"
    return raised


class TestEveryPipelineExitKeepsTheBooks:
    """One row per way out of :meth:`RoutingService.route`.

    Whatever the exit, the call is recorded exactly once, ``hits + misses
    + coalesced`` grows by exactly the lookups that served an answer (a
    failed request's miss is refunded; a follower's is refunded when it
    joins, and an answer from its own ladder afterwards is not lookup
    traffic), and no flight is left published.  Each scenario returns
    ``(service, act, calls, served_lookups, raises)``.
    """

    def fresh_hit(self, world):
        service = fresh_service(world)
        service.route(QUERY)
        return service, lambda: service.route(QUERY), 1, 1, None

    def plain_miss(self, world):
        service = fresh_service(world)
        return service, lambda: service.route(QUERY), 1, 1, None

    def time_limited_cache_bypass(self, world):
        service = fresh_service(world)
        service.route(QUERY)  # even with a fresh entry: no lookup at all
        return service, lambda: service.route(QUERY, time_limit_seconds=5.0), 1, 0, None

    def unfreezable_kwargs(self, world):
        service = fresh_service(world)

        def act():
            service.route(
                QUERY, strategy="blob_for_pipeline_test", blob=bytearray(b"unhashable")
            )

        return service, act, 1, 0, None

    def search_raises(self, world):
        service = fresh_service(world)
        strategy = "explode_for_pipeline_test"
        return service, lambda: service.route(QUERY, strategy=strategy), 1, 0, RuntimeError

    def search_raises_under_a_deadline(self, world):
        service = fresh_service(world)

        def act():
            service.route(
                QUERY, strategy="explode_for_pipeline_test", deadline_seconds=30.0
            )

        return service, act, 1, 0, RuntimeError

    def expected_time_raises_under_a_deadline(self, world):
        service = fresh_service(world)
        engine = service.engine()
        real_route = engine.route

        def fallback_crashes(query, *, strategy="pbr", **kwargs):
            if strategy == "expected_time":
                raise RuntimeError("fallback crashed")
            return real_route(query, strategy=strategy, **kwargs)

        engine.route = fallback_crashes

        def act():
            service.route(
                QUERY, strategy="decline_for_resilience_test", deadline_seconds=30.0
            )

        return service, act, 1, 0, RuntimeError

    def follower_shares_the_leaders_answer(self, world):
        service = fresh_service(world, coalesce_in_flight=True)
        served = []

        def act():
            raised = _lead_then_follow(
                service,
                lambda: served.append(service.route(QUERY)),
                lambda: served.append(service.route(QUERY)),
                release_on_join=True,
            )
            assert raised == []
            assert sorted(s.coalesced for s in served) == [False, True]
            assert served[0].result is served[1].result

        return service, act, 2, 2, None  # the leader's miss + one coalesced

    def follower_re_leads_after_an_abandoned_flight(self, world):
        service = fresh_service(world, coalesce_in_flight=True)
        served = []

        def act():
            (crash,) = _lead_then_follow(
                service,
                lambda: service.route(QUERY),
                lambda: served.append(service.route(QUERY)),
                release_on_join=True,
                crash_leader=True,
            )
            assert isinstance(crash, RuntimeError)
            assert served[0].found and not served[0].coalesced

        return service, act, 2, 1, None  # only the re-leading lookup stays

    def rung1_complete(self, world):
        service = fresh_service(world)
        return service, lambda: service.route(QUERY, deadline_seconds=30.0), 1, 1, None

    def rung1_anytime_pivot(self, world):
        service = fresh_service(world, clock=FakeClock())

        def act():
            served = service.route(QUERY, deadline_seconds=1e-9)
            assert served.fallback_strategy == "anytime"

        return service, act, 1, 1, None

    def expired_serves_stale(self, world):
        network, model, _ = world
        service = fresh_service(world)
        service.route(QUERY)
        service.apply_cost_update(
            {e.id: model.edge_marginal(e) for e in network.edges[:3]}
        )

        def act():
            served = service.route(QUERY, deadline_seconds=-1.0)
            assert served.fallback_strategy == "stale_cache"

        return service, act, 1, 1, None

    def expired_raises_deadline_exceeded(self, world):
        service = fresh_service(world)
        act = functools.partial(service.route, QUERY, deadline_seconds=-1.0)
        return service, act, 1, 0, DeadlineExceededError

    def open_breaker_serves_expected_time(self, world):
        service = fresh_service(world, clock=FakeClock())
        name = "decline_for_resilience_test"
        miss(service, name, 5)  # trips it
        assert service.stats().breakers[name] == "open"

        def act():
            served = service.route(QUERY, strategy=name, deadline_seconds=5.0)
            assert served.fallback_strategy == "expected_time"
            assert service.stats().deadline_misses == 5  # primary never ran

        return service, act, 1, 1, None

    def no_route(self, world):
        network, costs = disconnected_world()
        service = RoutingService(network, ConvolutionModel(costs))
        act = functools.partial(
            service.route,
            RoutingQuery(0, 2, 10_000),
            strategy="decline_for_resilience_test",
            deadline_seconds=30.0,
        )
        return service, act, 1, 0, NoRouteError

    def deadline_follower_times_out(self, world):
        # The frozen service clock keeps the follower's budget positive
        # after its (real-time) wait on the flight timed out, so it goes on
        # to search for itself — without leading, and without a lookup on
        # the books: it refunded its miss when it joined.
        service = fresh_service(
            world, coalesce_in_flight=True, clock=FakeClock()
        )
        served = {}

        def act():
            raised = _lead_then_follow(
                service,
                lambda: served.update(leader=service.route(QUERY)),
                lambda: served.update(
                    follower=service.route(QUERY, deadline_seconds=0.05)
                ),
                release_on_join=False,
            )
            assert raised == []
            follower = served["follower"]
            assert follower.found and not follower.coalesced
            assert not follower.degraded and not follower.cache_hit
            assert not served["leader"].coalesced

        return service, act, 2, 1, None  # the leader's miss alone

    @pytest.mark.parametrize(
        "exit_name",
        [
            "fresh_hit",
            "plain_miss",
            "time_limited_cache_bypass",
            "unfreezable_kwargs",
            "search_raises",
            "search_raises_under_a_deadline",
            "expected_time_raises_under_a_deadline",
            "follower_shares_the_leaders_answer",
            "follower_re_leads_after_an_abandoned_flight",
            "rung1_complete",
            "rung1_anytime_pivot",
            "expired_serves_stale",
            "expired_raises_deadline_exceeded",
            "open_breaker_serves_expected_time",
            "no_route",
            "deadline_follower_times_out",
        ],
    )
    def test_exit(self, world, declining_strategy, scratch_strategies, exit_name):
        service, act, calls, served_lookups, raises = getattr(self, exit_name)(world)

        def lookups(stats):
            return stats.cache_hits + stats.cache_misses + stats.coalesced

        before = service.stats()
        if raises is None:
            act()
        else:
            with pytest.raises(raises):
                act()
        after = service.stats()
        assert after.requests - before.requests == calls
        assert lookups(after) - lookups(before) == served_lookups
        assert service._flights == {}


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def schedule(injector, n=200):
            outcomes = []
            for index in range(n):
                try:
                    injector.before_request({"op": "stats"})
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("crash")
            return outcomes

        a = FaultInjector(seed=42, crash_rate=0.3, sleep=lambda s: None)
        b = FaultInjector(seed=42, crash_rate=0.3, sleep=lambda s: None)
        c = FaultInjector(seed=43, crash_rate=0.3, sleep=lambda s: None)
        schedule_a, schedule_b, schedule_c = schedule(a), schedule(b), schedule(c)
        assert schedule_a == schedule_b
        assert schedule_a != schedule_c  # the seed really is the schedule
        assert a.counters() == b.counters()
        assert 0 < a.counters()["injected_crashes"] < 200

    def test_stalls_use_the_injected_sleep(self):
        stalls = []
        injector = FaultInjector(
            seed=1, slow_rate=1.0, slow_seconds=0.25, sleep=stalls.append
        )
        injector.before_request({"op": "stats"})
        assert stalls == [0.25]
        assert injector.counters()["injected_stalls"] == 1

    def test_clock_skew_offsets_now(self):
        clock = FakeClock()
        clock.now = 100.0
        injector = FaultInjector(clock_skew_seconds=-7.5, clock=clock)
        assert injector.now() == 92.5

    def test_poison_corrupts_a_copy_not_the_original(self, world):
        network, model, _ = world
        from repro.service import CostUpdate

        update = CostUpdate(
            {e.id: model.edge_marginal(e) for e in network.edges[:2]}
        )
        request = {"op": "apply_update", "update": update.to_dict()}
        injector = FaultInjector(seed=5, poison_rate=1.0)
        poisoned = injector.before_request(request)
        assert poisoned is not request
        assert injector.counters()["injected_poisons"] == 1
        # The original document is untouched...
        assert CostUpdate.from_dict(request["update"]) == update
        # ...and the poisoned copy violates unit mass at the trust boundary.
        with pytest.raises(ValueError, match="mass"):
            CostUpdate.from_dict(poisoned["update"])

    def test_poisoned_update_is_rejected_with_table_untouched(self, world):
        network, model, _ = world
        from repro.service import CostUpdate

        service = fresh_service(world)
        version_before = service.cost_version()
        update = CostUpdate({network.edges[0].id: model.edge_marginal(network.edges[0])})
        injector = FaultInjector(seed=5, poison_rate=1.0)
        poisoned = injector.before_request(
            {"op": "apply_update", "update": update.to_dict()}
        )
        response = service.handle_request(poisoned)
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"
        assert service.cost_version() == version_before

    def test_poison_only_touches_apply_update(self):
        injector = FaultInjector(seed=5, poison_rate=1.0)
        request = {"op": "route", "query": QUERY.to_dict()}
        assert injector.before_request(request) is request
        assert injector.counters()["injected_poisons"] == 0

    @pytest.mark.parametrize("field", ["crash_rate", "slow_rate", "poison_rate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), True])
    def test_bad_rates_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FaultInjector(**{field: bad})


class TestRetryPolicy:
    def test_backoff_is_multiplicative(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=0.1)
        assert policy.delay_before_retry(0) == pytest.approx(0.1)
        assert policy.delay_before_retry(1) == pytest.approx(0.2)
        assert policy.delay_before_retry(2) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": True},
            {"backoff_seconds": -1.0},
            {"backoff_seconds": float("inf")},
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# The frontend under faults
# ----------------------------------------------------------------------


class _CrashFirstAttempts:
    """Duck-typed injector: fail the first ``crashes`` calls, then pass."""

    def __init__(self, crashes: int) -> None:
        self.crashes = crashes
        self.calls = 0
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.monotonic()

    def before_request(self, request):
        with self._lock:
            self.calls += 1
            if self.calls <= self.crashes:
                raise InjectedFault(f"injected crash #{self.calls}")
        return request


class TestFrontendResilience:
    def test_transient_crash_is_retried_to_success(self, world):
        service = fresh_service(world)
        frontend = ThreadedFrontend(
            service,
            num_workers=1,
            faults=_CrashFirstAttempts(1),
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        with frontend:
            response = frontend.request({"op": "route", "query": QUERY.to_dict()})
        assert response["ok"] is True
        assert frontend.stats.read()["retries"] == 1
        assert frontend.stats.read()["completed"] == 1

    def test_exhausted_retries_become_internal_error_document(self, world):
        service = fresh_service(world)
        frontend = ThreadedFrontend(
            service,
            num_workers=1,
            faults=FaultInjector(seed=0, crash_rate=1.0),
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        with frontend:
            response = frontend.request({"op": "route", "query": QUERY.to_dict()})
        assert response["ok"] is False
        assert response["error_kind"] == "internal"
        assert "InjectedFault" in response["error"]
        assert frontend.stats.read()["retries"] == 2  # max_attempts - 1
        # The worker survived: the pool still serves.
        # (close() already drained cleanly inside the context manager.)

    def test_retry_backoff_uses_injected_sleep(self, world):
        sleeps = []
        service = fresh_service(world)
        frontend = ThreadedFrontend(
            service,
            num_workers=1,
            faults=FaultInjector(seed=0, crash_rate=1.0),
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
            sleep=sleeps.append,
        )
        with frontend:
            frontend.request({"op": "stats"})
        assert sleeps == [0.5, 1.0]

    def test_against_queue_wait_charges_elapsed_time(self, world):
        clock = FakeClock()
        clock.now = 7.0  # 7 s after the request's arrival stamp
        adjusted = charge_queue_wait(
            {"op": "route", "deadline_ms": 10_000.0}, 0.0, clock
        )
        assert adjusted["deadline_ms"] == pytest.approx(3_000.0)
        # Negative budgets pass through: the service's stale rung wants
        # them, a clamp here would hide the overrun.
        starved = charge_queue_wait({"op": "route", "deadline_ms": 50.0}, 0.0, clock)
        assert starved["deadline_ms"] == pytest.approx(-6_950.0)
        # No deadline / malformed deadline: untouched (service validates).
        plain = {"op": "route"}
        assert charge_queue_wait(plain, 0.0, clock) is plain
        weird = {"op": "route", "deadline_ms": "soon"}
        assert charge_queue_wait(weird, 0.0, clock) is weird

    def test_queue_wait_is_charged_against_the_deadline(self, world):
        """A request that aged out while queued reaches the service with a
        non-positive budget and degrades to the stale rung instead of
        burning the worker on a search it cannot finish in time."""
        service = fresh_service(world)
        warmed = service.route(QUERY)  # the stale store learns this answer
        service.clear_cache()  # fresh entry gone; stale store survives
        clock = FakeClock()
        gate = threading.Event()
        state = {"calls": 0}

        class PinFirstRequest:
            """Duck-typed injector: the first request blocks until released,
            pinning the single worker so the second request's queue wait is
            deterministic."""

            def now(self):
                return clock()

            def before_request(self, request):
                state["calls"] += 1
                if state["calls"] == 1:
                    gate.wait(timeout=30.0)
                return request

        frontend = ThreadedFrontend(
            service, num_workers=1, faults=PinFirstRequest(), clock=clock
        )
        frontend.start()
        pin = frontend.submit({"op": "stats"})
        future = frontend.submit(
            {"op": "route", "query": QUERY.to_dict(), "deadline_ms": 50.0}
        )
        clock.advance(10.0)  # 10 s of "queue wait" against a 50 ms budget
        gate.set()
        pin.result()
        response = future.result()
        frontend.close()
        assert response["ok"] is True
        assert response["degraded"] is True
        assert response["fallback_strategy"] == "stale_cache"
        assert response["result"] == warmed.result.to_dict()

    def test_frontend_reads_the_skewed_clock(self, world):
        service = fresh_service(world)
        injector = FaultInjector(clock_skew_seconds=123.0, clock=lambda: 1.0)
        frontend = ThreadedFrontend(service, faults=injector)
        assert frontend._clock() == 124.0
        explicit = ThreadedFrontend(service, faults=injector, clock=lambda: 5.0)
        assert explicit._clock() == 5.0  # an explicit clock wins

    def test_skewed_clock_still_serves(self, world):
        service = fresh_service(world)
        frontend = ThreadedFrontend(
            service,
            num_workers=2,
            faults=FaultInjector(clock_skew_seconds=-3600.0),
        )
        with frontend:
            response = frontend.request(
                {"op": "route", "query": QUERY.to_dict(), "deadline_ms": 30_000.0}
            )
        # Skew cancels in queue-wait arithmetic (same clock stamps arrival
        # and pickup), so a generous deadline serves normally.
        assert response["ok"] is True and response["degraded"] is False


class TestFrontendClosedError:
    def test_submit_before_start_and_after_close(self, world):
        service = fresh_service(world)
        frontend = ThreadedFrontend(service, num_workers=1)
        with pytest.raises(FrontendClosedError, match="start"):
            frontend.submit({"op": "stats"})
        frontend.start()
        frontend.close()
        with pytest.raises(FrontendClosedError, match="closed"):
            frontend.submit({"op": "stats"})
        # Still a RuntimeError subclass: pre-existing broad handlers work.
        assert issubclass(FrontendClosedError, RuntimeError)

    def test_close_submit_race_is_loud_not_a_pending_future(self, world):
        """close() beginning between submit's accept check and its hand-off
        to the pool must raise FrontendClosedError, not strand a
        forever-pending future.  The race window is forced deterministically
        by closing from inside the arrival stamp, which submit takes after
        it accepted the request and before it hands it over."""
        service = fresh_service(world)
        state = {"raced": False}

        def racing_clock():
            if not state["raced"]:
                state["raced"] = True
                frontend.close(drain=False)  # close wins the race
            return 0.0

        frontend = ThreadedFrontend(
            service, num_workers=1, clock=racing_clock
        ).start()
        with pytest.raises(FrontendClosedError, match="queued"):
            frontend.submit({"op": "stats"})
        assert state["raced"]
        # The withdrawn request never existed on the books: submit retracts
        # its own submission instead of leaving a cancelled count with no
        # matching submitted one (which would break
        # submitted >= completed + cancelled for the frontend's lifetime).
        assert frontend.stats.read()["cancelled"] == 0
        assert frontend.stats.read()["submitted"] == 0


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


class TestErrorKinds:
    @pytest.mark.parametrize(
        "exc, kind",
        [
            (DeadlineExceededError("x"), "deadline_exceeded"),
            (NoRouteError("x"), "no_route"),
            (KeyError("x"), "bad_request"),
            (ValueError("x"), "bad_request"),
            (TypeError("x"), "bad_request"),
            (IndexError("x"), "bad_request"),
            (RuntimeError("x"), "internal"),
            (InjectedFault("x"), "internal"),
            (ZeroDivisionError("x"), "internal"),
        ],
    )
    def test_stable_codes(self, exc, kind):
        assert error_kind(exc) == kind

    def test_deadline_exceeded_over_the_wire(self, world):
        service = fresh_service(world)
        response = service.handle_request(
            {"op": "route", "query": QUERY.to_dict(), "deadline_ms": -1.0}
        )
        assert response["ok"] is False
        assert response["error_kind"] == "deadline_exceeded"

    def test_no_route_over_the_wire(self, world, declining_strategy):
        network, costs = disconnected_world()
        service = RoutingService(network, ConvolutionModel(costs))
        response = service.handle_request(
            {
                "op": "route",
                "query": RoutingQuery(0, 2, 10_000).to_dict(),
                "strategy": declining_strategy,
                "deadline_ms": 30_000.0,
            }
        )
        assert response["ok"] is False
        assert response["error_kind"] == "no_route"

    @pytest.mark.parametrize("bad", [True, "soon", float("nan")])
    def test_bad_wire_deadlines_are_bad_requests(self, world, bad):
        service = fresh_service(world)
        response = service.handle_request(
            {"op": "route", "query": QUERY.to_dict(), "deadline_ms": bad}
        )
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"

    def test_deadline_ms_is_a_reserved_kwarg(self, world):
        service = fresh_service(world)
        response = service.handle_request(
            {
                "op": "route",
                "query": QUERY.to_dict(),
                "kwargs": {"deadline_ms": 5.0},
            }
        )
        assert response["ok"] is False
        assert "reserved" in response["error"]
        assert response["error_kind"] == "bad_request"

    def test_keyboard_interrupt_is_never_swallowed(self, world):
        """The always-answer contract stops at Exception: an operator's ^C
        inside a request must propagate, not become an error document."""
        service = fresh_service(world)

        class Interrupting(dict):  # an object, so it gets as far as the lookup
            def get(self, key, default=None):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            service.handle_request(Interrupting())
