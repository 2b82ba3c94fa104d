"""The :class:`RoutingService` — a serving layer over :class:`RoutingEngine`.

The engine made one query fast and batches target-grouped; the service keeps
answers hot *across* requests, the way production trip-dispatch stacks
serve repeated OD traffic:

* a bounded LRU **result cache** keyed by
  ``(slice, strategy, source, target, budget, kwargs, cost version)`` —
  repeated queries are O(1), and any cost update invalidates by version
  bump, never by scanning (:mod:`repro.service.cache`);
* **cost-table hot-swap** — :meth:`RoutingService.apply_cost_update`
  ingests per-edge histogram deltas (e.g. a congestion feed event,
  :class:`~repro.service.updates.CostUpdate`), applies them under one
  version bump and keeps serving: answers produced before the swap stay
  available tagged with the version they were computed under;
* **departure-time scenarios** — named time-sliced cost tables (peak /
  off-peak / night) behind a :class:`~repro.service.scenarios.ScenarioSchedule`;
  :meth:`RoutingService.route_at` selects the slice for a departure time,
  and each slice keeps its own engine, heuristic reuse and cache entries;
* a JSON **wire protocol** (:meth:`RoutingService.handle_request` /
  :meth:`RoutingService.handle_json`) over the engine's kind-tagged result
  documents, plus :meth:`RoutingService.stats` observability
  (hit rate, evictions, per-strategy latency) in the style of
  :class:`~repro.routing.SearchStats`.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Mapping  # the abc, not typing's alias: 3x cheaper to isinstance
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator

from ..core.costs import EdgeCostTable
from ..core.models import ConvolutionModel, CostCombiner
from ..histograms import DiscreteDistribution
from ..network import RoadNetwork
from ..routing import (
    BatchResult,
    DepartWhenResult,
    KBestResult,
    MultiBudgetResult,
    RoutingEngine,
    RoutingQuery,
    RoutingResult,
    SearchStats,
    normalize_departures,
    result_from_dict,
)
from ..routing.query import NoFeasibleDeparture, check_time_limit, depart_when_search
from ..scalars import require_integer, require_number
from .cache import ResultCache, check_ttl_seconds, freeze_kwargs
from .errors import DeadlineExceededError, NoRouteError, decode_request, error_document
from .faults import CircuitBreaker
from .incidents import IncidentController
from .scenarios import ScenarioSchedule, TemporalCostProfile
from .snapshots import (
    ACCEPTED_SNAPSHOT_FORMATS,
    SERVICE_SNAPSHOT_FORMAT,
    _encode_key_part,
    decode_snapshot,
)
from .sync import Counters, ReadWriteLock
from .updates import CostUpdate, ScheduledIncident

__all__ = [
    "ACCEPTED_SNAPSHOT_FORMATS",
    "DEFAULT_SLICE",
    "SERVICE_SNAPSHOT_FORMAT",
    "RoutingService",
    "ServedBatch",
    "ServedResult",
    "ServiceStats",
    "StrategyLatency",
]

#: Name of the slice a plain single-table service routes on.
DEFAULT_SLICE = "default"

#: Any single-query answer the service can serve.
ServiceAnswer = RoutingResult | MultiBudgetResult | KBestResult | DepartWhenResult


@dataclass(frozen=True)
class ServedResult:
    """One service response: the answer plus its serving metadata.

    ``cost_version`` tags which cost-table version produced the answer —
    after a hot swap a consumer can tell a stale (pre-update) answer from a
    fresh one without the service ever blocking.  ``result`` is ``None``
    exactly when the strategy declined to answer (never cached).

    ``degraded`` marks an answer the degradation ladder produced instead of
    the requested computation completing within its deadline;
    ``fallback_strategy`` says which rung served it: ``"anytime"`` (the
    overrunning search's best pivot so far), ``"expected_time"`` (the
    deterministic fallback), or ``"stale_cache"`` (a previous-version cache
    entry, tagged with the version it was computed under).  Non-degraded
    answers carry ``fallback_strategy=None``.

    ``coalesced`` marks an answer this request did not search for itself:
    an identical request was already in flight and its one search fanned
    out (see :class:`RoutingService`'s ``coalesce_in_flight``).  The answer
    object is the very one the leading request computed — bit-equal by
    construction, tagged with the same ``cost_version``.
    """

    result: ServiceAnswer | None
    cache_hit: bool
    cost_version: int
    slice_name: str
    strategy: str
    degraded: bool = False
    fallback_strategy: str | None = None
    coalesced: bool = False

    @property
    def found(self) -> bool:
        return self.result is not None and self.result.found

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        return {
            "kind": "served",
            "slice": self.slice_name,
            "strategy": self.strategy,
            "cache_hit": self.cache_hit,
            "cost_version": self.cost_version,
            "degraded": self.degraded,
            "fallback_strategy": self.fallback_strategy,
            "coalesced": self.coalesced,
            "result": None if self.result is None else self.result.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "ServedResult":
        payload = data["result"]
        return cls(
            result=None if payload is None else result_from_dict(payload, network),
            cache_hit=bool(data["cache_hit"]),
            cost_version=int(data["cost_version"]),
            slice_name=data["slice"],
            strategy=data["strategy"],
            # Absent in pre-resilience documents: default to non-degraded.
            degraded=bool(data.get("degraded", False)),
            fallback_strategy=data.get("fallback_strategy"),
            # Absent in pre-scaleout documents: default to not coalesced.
            coalesced=bool(data.get("coalesced", False)),
        )


@dataclass(frozen=True)
class ServedBatch:
    """A served batch: the engine's :class:`BatchResult` plus cache metadata.

    ``batch.stats`` aggregates only the *miss* searches — hits did no
    search, which is the point.  ``cache_hits + cache_misses`` equals the
    batch length for cacheable requests; time-limited requests bypass the
    cache entirely and count every member as a miss.

    ``degraded`` is set when the batch ran under a request deadline and at
    least one miss member did not complete within it (its answer is the
    anytime pivot, or ``None`` when the deadline had already expired
    before the search began).  Batches do not walk the single-query
    degradation ladder — partial answers plus the flag are the batch-shaped
    degradation.
    """

    batch: BatchResult
    cache_hits: int
    cache_misses: int
    cost_version: int
    slice_name: str
    strategy: str
    degraded: bool = False

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self) -> Iterator[ServiceAnswer | None]:
        return iter(self.batch)

    def __getitem__(self, index: int) -> ServiceAnswer | None:
        return self.batch[index]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        return {
            "kind": "served_batch",
            "slice": self.slice_name,
            "strategy": self.strategy,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cost_version": self.cost_version,
            "degraded": self.degraded,
            "batch": self.batch.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "ServedBatch":
        return cls(
            batch=BatchResult.from_dict(data["batch"], network),
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
            cost_version=int(data["cost_version"]),
            slice_name=data["slice"],
            strategy=data["strategy"],
            degraded=bool(data.get("degraded", False)),
        )


@dataclass
class StrategyLatency:
    """Serving-latency counters for one strategy (hits included)."""

    requests: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.requests if self.requests else 0.0

    def record(self, elapsed_seconds: float) -> None:
        self.requests += 1
        self.total_seconds += elapsed_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class ServiceStats:
    """One observability snapshot of a :class:`RoutingService`.

    The cache counters are cumulative over the service's lifetime;
    ``strategies`` maps each strategy that served at least one request to
    its :class:`StrategyLatency`.  :meth:`to_dict` is the ``stats`` op's
    document.
    """

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_expirations: int = 0
    cache_entries: int = 0
    updates_applied: int = 0
    deadline_misses: int = 0
    served_degraded: int = 0
    served_stale: int = 0
    coalesced: int = 0
    breaker_trips: int = 0
    incidents_activated: int = 0
    incidents_cleared: int = 0
    incidents_pending: int = 0
    incidents_active: int = 0
    breakers: dict[str, str] = field(default_factory=dict)
    strategies: dict[str, StrategyLatency] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from cache (0.0 when none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "service_stats",
            **{name: getattr(self, name) for name in _STAT_COUNTERS},
            "breakers": dict(sorted(self.breakers.items())),
            "hit_rate": self.hit_rate,
            "strategies": {
                name: latency.to_dict()
                for name, latency in sorted(self.strategies.items())
            },
        }


#: :class:`ServiceStats`' integer fields, in declaration (= wire) order.
_STAT_COUNTERS = tuple(
    f.name for f in fields(ServiceStats) if f.name not in ("breakers", "strategies")
)


class _ServiceCounters(Counters):
    """The service's own cumulative counts plus the per-strategy latency map.

    One lock covers both, so a request is accounted with one acquisition
    and every :meth:`read` shows ``requests == Σ strategies[*].requests``.
    """

    FIELDS = (
        "requests", "updates_applied", "deadline_misses",
        "served_degraded", "served_stale", "coalesced",
    )

    def __init__(self) -> None:
        super().__init__()
        self.strategies: dict[str, StrategyLatency] = {}

    def record_request(self, strategy: str, elapsed_seconds: float) -> None:
        with self._lock:
            self.requests += 1
            latency = self.strategies.get(strategy)
            if latency is None:
                latency = self.strategies[strategy] = StrategyLatency()
            latency.record(elapsed_seconds)

    def read(self) -> dict[str, Any]:
        """``FIELDS`` plus ``strategies`` (copied), keyed as ``ServiceStats`` names them."""
        with self._lock:
            counts: dict[str, Any] = {name: getattr(self, name) for name in self.FIELDS}
            counts["strategies"] = {
                name: StrategyLatency(latency.requests, latency.total_seconds)
                for name, latency in self.strategies.items()
            }
            return counts


class _SingleFlight:
    """One in-flight search that identical concurrent requests share.

    The first request to miss on a cache key becomes the *leader* and runs
    the search; every later identical request becomes a *follower* and
    waits on ``done`` instead of searching again.  ``outcome`` is ``"ok"``
    when the leader finished with a shareable answer (``result`` holds it)
    and ``"abandoned"`` when it exited any other way — errored, declined,
    or degraded under its own deadline — in which case followers retry
    from the cache (and one of them becomes the new leader).
    """

    __slots__ = ("done", "outcome", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome = "abandoned"
        self.result: ServiceAnswer | None = None


class RoutingService:
    """Versioned-cache serving layer over one or more routing engines.

    One service instance is what a deployment keeps alive per road network:
    it owns a :class:`RoutingEngine` per named cost-table slice, one shared
    result cache, and the live-update path.  Construct it with a single
    combiner for a one-table service, or via :meth:`from_time_slices` for
    departure-time scenarios.

    The service is **thread-safe** and snapshot-consistent: any number of
    threads (e.g. a :class:`~repro.service.frontend.ThreadedFrontend` pool)
    may call :meth:`route` / :meth:`route_many` / :meth:`apply_cost_update`
    concurrently.  Each slice carries a writer-preferring
    :class:`~repro.service.sync.ReadWriteLock` — requests hold the read
    side, cost updates the write side — so a request reads the cost-table
    version once, computes against exactly that table, and caches/tags
    under that version even when an update arrives mid-flight (the update
    waits for in-flight readers, then strands their cache entries with one
    version bump).  The result cache and the stats counters take their own
    internal locks; hold order is always slice lock → cache/stats lock,
    and those inner locks are leaves, so the service cannot deadlock
    against itself.

    Version bumps invalidate cached answers; a request may also age its
    answer out by wall clock (:meth:`route`'s ``cache_ttl_seconds``).  Every
    answer a completed search produces is cached.

    **Resilience** (see PERFORMANCE.md "Resilient serving"): a request may
    carry a deadline (:meth:`route`'s ``deadline_seconds``, ``deadline_ms``
    on the wire).  The engine's anytime machinery becomes a cooperative
    time limit, and an overrunning search degrades down a ladder — best
    anytime pivot, then the deterministic ``expected_time`` fallback, then
    a stale-but-version-tagged cache entry — instead of blocking a worker.
    A per-strategy :class:`~repro.service.faults.CircuitBreaker` trips on
    five consecutive deadline misses and fast-fails that strategy onto the
    fallback rungs for one second, probing half-open afterwards.  ``clock``
    is the monotonic time source for deadlines, TTLs and breakers —
    injectable so every one of those behaviours tests deterministically.

    **Single-flight coalescing** (``coalesce_in_flight=True``): N identical
    in-flight requests — same cache key, so same slice, strategy, query,
    kwargs *and* cost version — run one search; the first to miss leads,
    the rest wait and receive the leader's answer object tagged
    ``coalesced`` (counted under ``stats().coalesced``, not hits/misses:
    ``hits + misses + coalesced`` equals the served-lookup count).  A
    follower carrying a deadline waits only within its remaining budget
    and degrades on its own ladder if the leader is too slow.  Off by
    default: without concurrent identical traffic it is pure overhead,
    and the exact ``hits + misses == lookups`` contract predates it.
    """

    def __init__(
        self,
        network: RoadNetwork,
        combiner: CostCombiner,
        *,
        slice_name: str = DEFAULT_SLICE,
        schedule: ScenarioSchedule | None = None,
        max_cache_entries: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        coalesce_in_flight: bool = False,
    ) -> None:
        self.network = network
        self.default_slice = slice_name
        self.schedule = schedule
        self._clock = clock
        self._engines: dict[str, RoutingEngine] = {}
        self._slice_locks: dict[str, ReadWriteLock] = {}
        self._cache = ResultCache(max_entries=max_cache_entries, clock=clock)
        # The degradation ladder's last rung: the freshest answer ever
        # admitted per (slice, strategy, query, kwargs) *regardless of cost
        # version*, stored together with the version it was computed under.
        # No TTL — "stale but tagged" is the whole point of the rung.
        self._stale = ResultCache(max_entries=max_cache_entries, clock=clock)
        self._breakers: dict[str, CircuitBreaker] = {}
        # Single-flight coalescing: cache key -> the in-flight search for
        # it.  Opt-in because it changes the accounting contract (a
        # coalesced request counts under ``coalesced``, not hits/misses).
        self.coalesce_in_flight = bool(coalesce_in_flight)
        self._flights: dict[tuple, _SingleFlight] = {}
        self._flights_lock = threading.Lock()
        self._counters = _ServiceCounters()
        # What is left beside the counters: the breaker map and the feed
        # position.  A leaf lock like the counters' own.
        self._stats_lock = threading.Lock()
        self._last_update_sequence: int | None = None
        self._learning_stats_provider: Callable[[], Any] | None = None
        # Time-varying networks: the profile this service was compiled from
        # (None for plain services) and the scheduled-incident controller,
        # whose clock shares the departure-time axis (seconds, wrapping
        # daily for slice resolution).  It reaches a table only through
        # :meth:`_swap` (lock order: see :mod:`repro.service.incidents`).
        self.temporal_profile: TemporalCostProfile | None = None
        self._incidents = IncidentController(self._incident_targets, self._swap)
        self.add_slice(slice_name, combiner)

    @classmethod
    def from_time_slices(
        cls,
        network: RoadNetwork,
        slice_tables: Mapping[str, EdgeCostTable],
        *,
        schedule: ScenarioSchedule | None = None,
        **options: Any,
    ) -> "RoutingService":
        """Build a scenario service from named per-slice cost tables.

        ``slice_tables`` usually comes from
        :func:`~repro.service.scenarios.time_sliced_cost_tables`; each table
        is served under a :class:`ConvolutionModel`.  The default slice is
        the first table; ``schedule`` defaults to
        :meth:`ScenarioSchedule.default` and must name only known slices.
        ``options`` are the constructor's serving options
        (``max_cache_entries`` … ``coalesce_in_flight``), forwarded as
        given: their defaults and their validation live there, once.
        """
        if not slice_tables:
            raise ValueError("need at least one slice table")
        if schedule is None:
            schedule = ScenarioSchedule.default()
        first = next(iter(slice_tables))
        service = cls(
            network,
            ConvolutionModel(slice_tables[first]),
            slice_name=first,
            schedule=schedule,
            **options,
        )
        for name, table in slice_tables.items():
            if name != first:
                service.add_slice(name, ConvolutionModel(table))
        missing = set(schedule.slice_names) - set(service.slice_names)
        if missing:
            raise ValueError(
                f"schedule names slices with no cost table: {sorted(missing)}"
            )
        return service

    @classmethod
    def from_temporal_profile(
        cls,
        network: RoadNetwork,
        profile: TemporalCostProfile,
        **options: Any,
    ) -> "RoutingService":
        """Build a service from a :class:`TemporalCostProfile`.

        The profile compiles down to the exact primitives
        :meth:`from_time_slices` already serves — one cost table and one
        expanded schedule entry per regime (anchor slices, interpolation
        bins, signal-plan overlays) — so caching, locking, incidents and
        snapshots work unchanged.  A degenerate profile (no interpolation,
        no plans) serves the very anchor tables and schedule it was built
        from, bit for bit.  The profile is kept on ``temporal_profile`` so
        snapshots can carry its spec and incidents can resolve their
        time windows to regime slices.  ``options`` are the constructor's
        serving options, forwarded as given.
        """
        if not isinstance(profile, TemporalCostProfile):
            raise TypeError(
                f"profile must be a TemporalCostProfile, got {type(profile).__name__}"
            )
        service = cls.from_time_slices(
            network,
            profile.tables(),
            schedule=profile.expanded_schedule(),
            **options,
        )
        service.temporal_profile = profile
        return service

    def __repr__(self) -> str:
        return (
            f"RoutingService(slices={list(self._engines)}, "
            f"default={self.default_slice!r}, cached={len(self._cache)})"
        )

    # ------------------------------------------------------------------
    # Slices
    # ------------------------------------------------------------------

    @property
    def slice_names(self) -> tuple[str, ...]:
        """Every named slice, default first."""
        return tuple(self._engines)

    def add_slice(self, name: str, combiner: CostCombiner) -> RoutingEngine:
        """Register a named cost-table slice (its own engine and caches)."""
        if not isinstance(name, str) or not name:
            raise ValueError("slice name must be a non-empty string")
        if name in self._engines:
            raise ValueError(f"slice {name!r} is already registered")
        engine = RoutingEngine(self.network, combiner)
        # The lock is published before the engine: a concurrent request can
        # only reach a slice it can resolve, and resolving requires the
        # engine entry — by then the lock exists.
        self._slice_locks[name] = ReadWriteLock()
        self._engines[name] = engine
        return engine

    def engine(self, slice_name: str | None = None) -> RoutingEngine:
        """The engine serving ``slice_name`` (default slice for ``None``)."""
        name = self._resolve_slice(slice_name)
        return self._engines[name]

    def _resolve_slice(self, slice_name: str | None) -> str:
        name = self.default_slice if slice_name is None else slice_name
        if name not in self._engines:
            raise KeyError(
                f"unknown slice {name!r}; available: {', '.join(self._engines)}"
            )
        return name

    def cost_version(self, slice_name: str | None = None) -> int:
        """The serving cost-table version of one slice."""
        return self.engine(slice_name).cost_version

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def route(
        self,
        query: RoutingQuery,
        *,
        strategy: str = "pbr",
        slice_name: str | None = None,
        time_limit_seconds: float | None = None,
        cache_ttl_seconds: float | None = None,
        deadline_seconds: float | None = None,
        **kwargs: Any,
    ) -> ServedResult:
        """Answer one query, served from cache when possible.

        Cache hits return the very answer object computed on the miss —
        bit-equal by construction.  Requests with a wall-clock limit bypass
        the cache entirely (their answers depend on machine load, not only
        on the query), as do requests whose kwargs cannot be canonicalised
        into a key.  ``cache_ttl_seconds`` gives this request's answer its
        own expiry instead of the service default.

        ``deadline_seconds`` (``deadline_ms / 1000`` on the wire) is the
        request's remaining time budget.  Unlike ``time_limit_seconds`` it
        does not bypass the cache — a fresh hit is the fastest possible
        answer — and an overrunning search *degrades* down the ladder
        instead of simply returning an incomplete answer: best anytime
        pivot (``fallback_strategy="anytime"``), then the deterministic
        ``expected_time`` route, then a stale previous-version cache entry,
        and only then :class:`DeadlineExceededError`.  A non-positive
        deadline means "already expired" (queue wait ate it) and goes
        straight to the stale rung.  Enforcement is cooperative: the search
        checks the clock once per label expansion, so an overrun is bounded
        by one expansion quantum.  A request *without* a deadline is the
        same ladder with nothing to expire: its search always counts as
        complete, no breaker is consulted, and a follower waits for its
        leader unbounded — so the rungs below the first are unreachable.

        The whole lookup-compute-cache sequence holds the slice's read
        lock: concurrent requests proceed together, while a concurrent
        :meth:`apply_cost_update` waits — so the version read here tags
        exactly the cost table the answer was computed from.

        Every request walks one pipeline, in this method: lookup (a fresh
        hit returns first) → coalesce (join or lead the in-flight search
        for the key) → search → admit.  The accounting lives in the one
        ``except`` / ``finally`` around it, not at its exits: exactly one
        recorded request per call; a counted miss stays counted when any
        rung serves an answer (the fresh cache really did not have it) and
        is refunded when the request fails outright; a flight this request
        led but never completed is abandoned, releasing its followers.
        """
        name, ttl, time_limit_seconds, deadline_at, extras = self._prologue(
            strategy, slice_name, time_limit_seconds, cache_ttl_seconds, deadline_seconds, **kwargs
        )
        engine = self._engines[name]
        begin = time.perf_counter()
        key: tuple | None = None
        flight: _SingleFlight | None = None
        breaker: CircuitBreaker | None = None
        # miss_counted: this request's fresh-cache miss is on the books.  A
        # follower refunds it at join time instead (it never searches) and
        # must not have it refunded again on its own ladder afterwards.
        miss_counted = False
        try:
            with self._slice_locks[name].read_locked():
                while True:
                    version, key, cached = self._lookup(
                        name, strategy, query, extras, self._cache.get
                    )
                    if cached is not None:
                        # Rung 0: a fresh hit beats any deadline.
                        return ServedResult(cached[0], True, version, name, strategy)
                    miss_counted = key is not None
                    if deadline_at is not None:
                        breaker = self._breaker(strategy)
                    if key is None or not self.coalesce_in_flight:
                        break
                    joined, is_leader = self._join_flight(key)
                    if is_leader:
                        flight = joined
                        break
                    # Follower: this request will never search — the leader's
                    # one search serves us all — so the lookup above was never
                    # real miss traffic.  Waiting here holds only this thread's
                    # read lock, which the leader does not need to finish.  A
                    # deadline bounds the wait to the budget that is left.
                    self._cache.refund_miss()
                    miss_counted = False
                    wait_for = None if deadline_at is None else deadline_at - self._clock()
                    if (
                        (wait_for is None or wait_for > 0)
                        and joined.done.wait(wait_for)
                        and joined.outcome == "ok"
                        and (joined.result is not None or deadline_at is None)
                    ):
                        self._counters._bump("coalesced")
                        return ServedResult(
                            joined.result, False, version, name, strategy,
                            coalesced=True,
                        )
                    if deadline_at is not None:
                        # A deadline follower whose wait timed out (or whose
                        # leader abandoned, or completed with no shareable
                        # answer) walks its own ladder with whatever budget
                        # is left — it never blocks past its deadline.
                        break
                    # The leader abandoned (errored or degraded): retry from
                    # the cache; one retrying follower becomes the new leader.
                remaining = None if deadline_at is None else deadline_at - self._clock()
                if remaining is not None and remaining <= 0:
                    # The deadline expired before any search could start
                    # (typically queue wait) — that is a deadline miss too, but
                    # not the strategy's failure: the breaker stays untouched.
                    self._counters._bump("deadline_misses")
                    return self._serve_stale(name, strategy, key, deadline_seconds)
                if breaker is None or breaker.allow():
                    # Rung 1: the primary search.  Under a deadline,
                    # strategies that support a time limit get the remaining
                    # budget as a cooperative limit; ones that cannot run
                    # as-is and are judged by their (always-completed) stats
                    # afterwards.
                    limit = time_limit_seconds
                    if remaining is not None and engine.supports_time_limit(strategy):
                        limit = remaining if limit is None else min(remaining, limit)
                    try:
                        result = engine.route(
                            query, strategy=strategy, time_limit_seconds=limit, **kwargs
                        )
                    except BaseException:
                        # A search that raises (a bad request, a crash) is
                        # no verdict on the strategy's latency, but it must
                        # not keep a half-open probe slot from the next one.
                        if breaker is not None:
                            breaker.release_probe()
                        raise
                    if deadline_at is None or (result is not None and result.stats.completed):
                        # The search finished within its budget: a normal
                        # answer, cacheable (a completed bounded search is
                        # bit-identical to an unbounded one) and shareable
                        # with any followers waiting on this flight.
                        if breaker is not None:
                            breaker.record_success()
                        if flight is not None:
                            # Release followers before the cache insert — they
                            # need the answer object, not the cache entry.
                            self._finish_flight(key, flight, outcome="ok", result=result)
                        if key is not None and result is not None:
                            self._admit(key, result, ttl)
                        return ServedResult(result, False, version, name, strategy)
                    # The deadline bit: count the miss, feed the breaker.
                    breaker.record_failure()
                    self._counters._bump("deadline_misses")
                    if result is not None and result.found:
                        # Rung 1 answer: the anytime pivot — never cached (it
                        # depends on how far the search got, not on the query)
                        # and never fanned out (followers have their own
                        # deadlines and ladders).
                        return self._degraded(result, version, name, strategy, "anytime")
                # Rung 2: the deterministic fallback (skipped when it *is* the
                # requested strategy — it just ran above).  Open breaker lands
                # here directly: fast, bounded, good enough until the probe
                # says the primary recovered.
                if strategy != "expected_time":
                    fallback = engine.route(query, strategy="expected_time")
                    if fallback is not None and fallback.found:
                        return self._degraded(
                            fallback, version, name, strategy, "expected_time"
                        )
                    if fallback is not None:
                        # Definitive: even the deterministic fallback cannot
                        # reach the target — no rung below can either.
                        raise NoRouteError(
                            f"no route from {query.source} to {query.target} "
                            f"exists on slice {name!r}"
                        )
                return self._serve_stale(name, strategy, key, deadline_seconds)
        except BaseException:
            # No rung served an answer, so the lookup above was never cache
            # traffic: refund its miss.  The request itself still counts.
            if miss_counted:
                self._cache.refund_miss()
            raise
        finally:
            self._counters.record_request(strategy, time.perf_counter() - begin)
            if flight is not None and not flight.done.is_set():
                self._finish_flight(key, flight, outcome="abandoned")

    def _degraded(
        self,
        answer: ServiceAnswer,
        version: int,
        name: str,
        strategy: str,
        rung: str,
    ) -> ServedResult:
        """Count and label one degraded answer (``rung`` names what served it)."""
        from_cache = rung == "stale_cache"  # it *is* a cached answer — an old one
        self._counters._bump("served_degraded")
        if from_cache:
            self._counters._bump("served_stale")
        return ServedResult(
            answer, from_cache, version, name, strategy,
            degraded=True, fallback_strategy=rung,
        )

    def _serve_stale(
        self,
        name: str,
        strategy: str,
        key: tuple | None,
        deadline_seconds: float,
    ) -> ServedResult:
        """Rung 3: a stale-but-tagged entry, or :class:`DeadlineExceededError`.

        The served document carries the *old* cost version the answer was
        computed under — stale is explicit, never silent.
        """
        stale = None if key is None else self._stale.get(key[:-1])
        if stale is None:
            raise DeadlineExceededError(
                f"deadline of {deadline_seconds * 1000.0:.1f} ms expired with "
                f"no answer on any degradation rung (strategy {strategy!r})"
            )
        answer, stale_version = stale
        return self._degraded(answer, stale_version, name, strategy, "stale_cache")

    def route_at(
        self,
        query: RoutingQuery,
        departure_time_seconds: float,
        *,
        strategy: str = "pbr",
        time_limit_seconds: float | None = None,
        cache_ttl_seconds: float | None = None,
        deadline_seconds: float | None = None,
        **kwargs: Any,
    ) -> ServedResult:
        """Answer one query for a given departure time.

        The schedule picks the cost-table slice (peak / off-peak / night …)
        whose distributions describe traffic at that time of day; the
        request then serves exactly like :meth:`route` on that slice,
        including its per-slice cache entries, heuristic reuse and the
        deadline degradation ladder.
        """
        if self.schedule is None:
            raise ValueError(
                "route_at needs a ScenarioSchedule; construct the service "
                "with schedule=... or use from_time_slices"
            )
        return self.route(
            query,
            strategy=strategy,
            slice_name=self.schedule.slice_at(departure_time_seconds),
            time_limit_seconds=time_limit_seconds,
            cache_ttl_seconds=cache_ttl_seconds,
            deadline_seconds=deadline_seconds,
            **kwargs,
        )

    def depart_when(
        self,
        source: int,
        target: int,
        departure_times: Iterable[float],
        *,
        budget: int | None = None,
        arrive_by_seconds: float | None = None,
        time_limit_seconds: float | None = None,
        cache_ttl_seconds: float | None = None,
    ) -> ServedResult:
        """Answer "when should I leave?" over a window of departure times.

        Exactly one of ``budget`` (same budget at every departure) or
        ``arrive_by_seconds`` (each departure's budget is the time left
        until the deadline) must be given.  Departures are grouped by the
        schedule's temporal regime — each group is answered by *one*
        shared multi-budget search against that regime's cost table (a
        normal cached, version-tagged :meth:`route` call with
        ``strategy="depart_when"``) — and the per-regime fragments merge
        into one :class:`~repro.routing.DepartWhenResult`.  The served
        metadata (``slice_name``, ``cost_version``) describes the regime
        that produced the winning departure; ``cache_hit`` is true only
        when every regime fragment came from cache.

        Departures at or past ``arrive_by_seconds`` are reported as
        infeasible (budget 0, ``None`` result); if *every* departure is
        infeasible the request raises ``ValueError``.
        """
        if self.schedule is None:
            raise ValueError(
                "depart_when needs a ScenarioSchedule; construct the service "
                "with schedule=... or use from_time_slices"
            )
        departures = normalize_departures(departure_times)
        groups: dict[str, list[float]] = {}
        for departure in departures:
            groups.setdefault(self.schedule.slice_at(departure), []).append(
                departure
            )
        parts: list[DepartWhenResult] = []
        served_parts: list[tuple[str, ServedResult]] = []
        for name, group in groups.items():
            name = self._resolve_slice(name)
            try:
                _, _, group_query = depart_when_search(
                    source,
                    target,
                    tuple(group),
                    budget,
                    arrive_by_seconds,
                    self._engines[name].resolution,
                )
            except NoFeasibleDeparture as error:
                # The whole regime is past the deadline: synthesise the
                # all-infeasible fragment locally, no search to run.
                infeasible = error
                parts.append(
                    DepartWhenResult(
                        query=RoutingQuery(source, target, 1),
                        departures=tuple(group),
                        budgets=(0,) * len(group),
                        results=(None,) * len(group),
                        arrive_by_seconds=float(arrive_by_seconds),
                    )
                )
                continue
            served = self.route(
                group_query,
                strategy="depart_when",
                slice_name=name,
                time_limit_seconds=time_limit_seconds,
                cache_ttl_seconds=cache_ttl_seconds,
                departure_times=tuple(group),
                arrive_by_seconds=(
                    None if arrive_by_seconds is None else float(arrive_by_seconds)
                ),
            )
            assert isinstance(served.result, DepartWhenResult)
            parts.append(served.result)
            served_parts.append((name, served))
        if not served_parts:
            raise infeasible
        merged = DepartWhenResult.merge(parts)
        # Tag the answer with the regime that produced the winning
        # departure (first searched regime when nothing routes anywhere).
        tag_name, tag_served = served_parts[0]
        best_departure = merged.best_departure
        if best_departure is not None:
            for name, served in served_parts:
                if best_departure in served.result.departures:
                    tag_name, tag_served = name, served
                    break
        return ServedResult(
            result=merged,
            cache_hit=all(s.cache_hit for _, s in served_parts),
            cost_version=tag_served.cost_version,
            slice_name=tag_name,
            strategy="depart_when",
            degraded=any(s.degraded for _, s in served_parts),
            fallback_strategy=tag_served.fallback_strategy,
            coalesced=any(s.coalesced for _, s in served_parts),
        )

    def route_many(
        self,
        queries: Iterable[RoutingQuery],
        *,
        strategy: str = "pbr",
        slice_name: str | None = None,
        time_limit_seconds: float | None = None,
        cache_ttl_seconds: float | None = None,
        deadline_seconds: float | None = None,
        **kwargs: Any,
    ) -> ServedBatch:
        """Serve a batch: answer hits from cache, route only the misses.

        The miss subset goes through :meth:`RoutingEngine.route_many`
        (keeping its target grouping); results come back in input order,
        and every freshly computed cacheable answer is inserted for the
        next request.  Like :meth:`route`, the whole batch holds the
        slice's read lock, so one ``cost_version`` tags every member — a
        mid-batch update cannot split the batch across two tables.

        ``deadline_seconds`` bounds the whole batch: the remaining budget
        at dispatch time is split evenly across the miss members as their
        cooperative time limit.  A member whose search overran keeps its
        anytime pivot (or ``None``); only completed members enter the
        cache, and the batch document carries ``degraded: true``.  Batches
        do not walk the single-query degradation ladder — partial answers
        plus the flag are the batch-shaped degradation.
        """
        name, ttl, time_limit_seconds, deadline_at, extras = self._prologue(
            strategy, slice_name, time_limit_seconds, cache_ttl_seconds, deadline_seconds, **kwargs
        )
        engine = self._engines[name]
        query_list = list(queries)
        begin = time.perf_counter()
        degraded = False
        stats = SearchStats.aggregate(())
        with self._slice_locks[name].read_locked():
            version = engine.cost_version
            results: list[ServiceAnswer | None] = [None] * len(query_list)
            keys: list[Any | None] = [None] * len(query_list)
            miss_indices: list[int] = []
            for index, query in enumerate(query_list):
                _, keys[index], cached = self._lookup(
                    name, strategy, query, extras, self._cache.get
                )
                if cached is not None:
                    results[index] = cached[0]
                else:
                    miss_indices.append(index)
            remaining: float | None = None
            if miss_indices and deadline_at is not None:
                remaining = deadline_at - self._clock()
            if remaining is not None and remaining <= 0:
                # Expired before any search began: serve the hits,
                # leave every miss unanswered, flag the batch.
                self._counters._bump("deadline_misses")
                if extras is not None:
                    self._cache.refund_miss(len(miss_indices))
                degraded = True
            elif miss_indices:
                limit = time_limit_seconds
                if remaining is not None and engine.supports_time_limit(strategy):
                    per_member = remaining / len(miss_indices)
                    limit = per_member if limit is None else min(limit, per_member)
                try:
                    sub_batch = engine.route_many(
                        [query_list[index] for index in miss_indices],
                        strategy=strategy,
                        time_limit_seconds=limit,
                        **kwargs,
                    )
                except BaseException:
                    # The caller receives nothing, so none of this batch's
                    # lookups — hit or miss — were real cache traffic.  (The
                    # extras are per batch: every member was looked up, or none.)
                    if extras is not None:
                        self._cache.refund_miss(len(miss_indices))
                        self._cache.refund_hit(len(query_list) - len(miss_indices))
                    self._counters.record_request(strategy, time.perf_counter() - begin)
                    raise
                for index, result in zip(miss_indices, sub_batch):
                    results[index] = result
                    if result is None:
                        continue
                    if deadline_at is not None and not result.stats.completed:
                        # Overran its share of the budget: keep the pivot
                        # for the caller, never cache it.
                        degraded = True
                        continue
                    if keys[index] is not None:
                        self._admit(keys[index], result, ttl)
                if degraded:
                    self._counters._bump("deadline_misses")
                    self._counters._bump("served_degraded")
                stats = sub_batch.stats
            self._counters.record_request(strategy, time.perf_counter() - begin)
            return ServedBatch(
                batch=BatchResult(results=tuple(results), stats=stats),
                cache_hits=len(query_list) - len(miss_indices),
                cache_misses=len(miss_indices),
                cost_version=version,
                slice_name=name,
                strategy=strategy,
                degraded=degraded,
            )

    # ------------------------------------------------------------------
    # Live cost updates
    # ------------------------------------------------------------------

    @property
    def feed_position(self) -> int | None:
        """The highest :attr:`CostUpdate.sequence` applied (``None``: none yet)."""
        with self._stats_lock:
            return self._last_update_sequence

    def apply_cost_update(
        self,
        update: CostUpdate | Mapping[int, DiscreteDistribution],
        *,
        slice_name: str | None = None,
    ) -> int:
        """Hot-swap per-edge histograms into one slice's cost table.

        The whole batch lands under a *single* version bump
        (:meth:`EdgeCostTable.apply_deltas`), which strands every cached
        answer for that slice — new lookups carry the new version and miss
        onto fresh searches, while stale entries age out of the LRU without
        any scan.  Answers already produced remain valid as of the
        ``cost_version`` they are tagged with.  An explicit ``slice_name``
        overrides the update's own target.  Returns the new version.

        A *sequence-numbered* :class:`CostUpdate` also advances the
        service's feed position: an update whose sequence is at or below
        the highest already applied is skipped (the current version is
        returned untouched), which makes replaying a whole feed over a
        restored snapshot idempotent — the blue/green handover protocol.
        Unnumbered updates always apply.
        """
        mapping = update.costs if isinstance(update, CostUpdate) else update
        sequence = update.sequence if isinstance(update, CostUpdate) else None
        return self._swap(
            self._update_target(update, slice_name), lambda table: mapping, sequence=sequence
        )

    def _swap(
        self,
        name: str,
        deltas_from: Callable[[EdgeCostTable], Mapping[int, DiscreteDistribution]],
        *,
        sequence: int | None = None,
    ) -> int:
        """The one place a live cost table changes; returns the new version.

        Takes the write side of the slice lock — waiting for in-flight
        requests (whose answers stay correct under the version they already
        read), with the lock's writer preference keeping a busy request
        stream from starving the feed — lets ``deltas_from`` read the table
        as it is at swap time, installs what it returns under one version
        bump, and counts the swap.  Feed updates, incident activation (its
        callback captures the preimage) and incident clearing all come
        through here.

        ``sequence`` is a numbered feed event's position.  The check and
        the advance live under the same lock so concurrent replays cannot
        double-apply: an event at or below the feed position is skipped
        (the current version comes back, nothing is counted).
        """
        table = self._engines[name].combiner.costs
        with self._slice_locks[name].write_locked():
            if sequence is not None:
                with self._stats_lock:
                    last = self._last_update_sequence
                if last is not None and sequence <= last:
                    # Already applied (snapshot taken at or after this
                    # event): the replay is a no-op, not a double bump.
                    return table.version
            version = table.apply_deltas(deltas_from(table))
            if sequence is not None:
                # Advance the feed position only once the batch really
                # landed — a rejected batch must stay replayable.
                with self._stats_lock:
                    self._last_update_sequence = sequence
        self._counters._bump("updates_applied")
        return version

    def _update_target(
        self,
        update: CostUpdate | Mapping[int, DiscreteDistribution],
        slice_name: str | None,
    ) -> str:
        """The one resolution rule for where an update lands.

        An explicit ``slice_name`` wins; otherwise a :class:`CostUpdate`'s
        own target; otherwise the default slice.
        """
        if slice_name is None and isinstance(update, CostUpdate):
            slice_name = update.slice_name
        return self._resolve_slice(slice_name)

    # ------------------------------------------------------------------
    # Scheduled incidents (:mod:`repro.service.incidents` holds the state)
    # ------------------------------------------------------------------

    @property
    def incident_clock(self) -> float:
        """The service's current incident time (seconds, monotone)."""
        return self._incidents.clock

    def _incident_targets(self, incident: ScheduledIncident) -> tuple[str, ...]:
        """Resolve (and validate) which slices an incident lands on.

        Explicit ``slices`` win; otherwise a scheduled service fans the
        incident across every slice whose time-of-day interval intersects
        the incident window (a temporal-profile service's schedule is its
        expanded one, so that is every regime), and an unscheduled service
        targets its default slice.  An edge id the network
        does not have is refused here too (the incident itself only
        guarantees non-negative integers), as ``apply_deltas`` would at
        activation — by which time it is too late to refuse the request.
        """
        unknown = [e for e in incident.affected_edge_ids if e >= self.network.num_edges]
        if unknown:
            raise IndexError(
                f"incident {incident.incident_id!r} names unknown edge ids {unknown}"
            )
        names = incident.slices
        if names is None:
            names = (self.default_slice,) if self.schedule is None else (
                self.schedule.slices_in_window(incident.start_time, incident.end_time)
            )
        return tuple(self._resolve_slice(name) for name in names)

    def schedule_incident(self, incident: ScheduledIncident) -> None:
        """Register an incident to activate when the clock reaches it.

        Nothing changes until :meth:`advance_clock` passes the incident's
        ``start_time``; an incident whose window is already entirely in
        the past (``end_time`` at or before the current clock) is
        rejected, as is one naming a slice or an edge this service does
        not have.  Incident ids are unique across pending *and* active.
        """
        self._incidents.schedule(incident)

    def advance_clock(self, now_seconds: float) -> list[dict[str, Any]]:
        """Move the incident clock forward, activating and clearing.

        The clock is monotone (moving it backwards raises).  Deactivations
        run first — an active incident whose ``end_time`` is at or before
        ``now_seconds`` has its captured pre-incident costs re-applied —
        then activations: a pending incident whose window contains the new
        clock captures each target slice's current per-edge costs
        (the preimage) and applies its effective costs atomically under
        that slice's write lock, bumping the slice version exactly like
        :meth:`apply_cost_update`.  A pending incident whose whole window
        was jumped over expires without ever touching a table.  Returns
        the ordered list of lifecycle events.
        """
        return self._incidents.advance(now_seconds)

    def incidents(self) -> dict[str, Any]:
        """The incident scheduler's observable state (JSON-ready)."""
        return self._incidents.to_dict()

    # ------------------------------------------------------------------
    # Snapshot / restore (:mod:`repro.service.snapshots` holds the format)
    # ------------------------------------------------------------------

    def snapshot(self, *, include_cache: bool = False) -> dict[str, Any]:
        """The service's durable state as one JSON-ready document.

        Captures every slice's cost table *with its exact version*
        (:meth:`EdgeCostTable.to_dict`), the update-feed position
        (:attr:`feed_position`, the highest sequence applied), the incident
        scheduler's state, and — with ``include_cache`` — a dump of the
        live result-cache entries.  Each table is read under its slice's
        read lock, so per-slice state is coherent; cross-slice coherence
        against a concurrent feed is the caller's to arrange (blue/green
        snapshots are taken with the feed quiesced or replayed over the
        restored copy, which the sequence skip makes idempotent).

        The document is plain JSON: ``json.dumps`` it to persist, and hand
        ``json.loads`` of that text to :meth:`restore`, which checks the
        envelope.
        """
        slices: dict[str, Any] = {}
        for name, engine in self._engines.items():
            with self._slice_locks[name].read_locked():
                slices[name] = {"cost_table": engine.combiner.costs.to_dict()}
        profile = self.temporal_profile
        document: dict[str, Any] = {
            "kind": "service_snapshot",
            "format_version": SERVICE_SNAPSHOT_FORMAT,
            "default_slice": self.default_slice,
            "schedule": None if self.schedule is None else self.schedule.to_dict(),
            "profile": None if profile is None else profile.to_dict(),
            "temporal": self._incidents.to_dict(durable=True),
            "feed_position": self.feed_position,
            "slices": slices,
        }
        if include_cache:
            document["cache"] = [
                {"key": _encode_key_part(key), "result": answer.to_dict()}
                for key, (answer, _) in self._cache.items()
            ]
        return document

    def restore(self, document: Mapping[str, Any]) -> None:
        """Adopt a :meth:`snapshot` document's state: decode, then commit.

        The service must be *shaped* like the one that snapshotted — same
        network, same slice names, same default slice and schedule
        (construct the successor exactly like the predecessor, then
        restore).  The whole document is decoded and validated first
        (:func:`~repro.service.snapshots.decode_snapshot`); a document
        rejected there — whichever section is at fault — leaves this
        service exactly as it was.  The commit cannot reject anything:
        each slice's cost table is swapped in under the slice's write lock
        with its dumped version, the feed position and incident state are
        adopted, both caches are cleared, and any cache dump is
        re-installed — so a restored successor answers byte-for-byte like
        the predecessor did at snapshot time.  Replaying the update feed
        afterwards brings it current: events at or below the feed position
        are skipped (see :meth:`apply_cost_update`), later ones apply once.
        """
        state = decode_snapshot(
            document,
            tables={name: engine.combiner.costs for name, engine in self._engines.items()},
            default_slice=self.default_slice,
            schedule=self.schedule,
            profile=self.temporal_profile,
            decode_incidents=self._incidents.decode,
        )
        for name, cell in state.cells.items():
            with self._slice_locks[name].write_locked():
                self._engines[name].combiner.costs.publish(cell)
        with self._stats_lock:
            self._last_update_sequence = state.feed_position
        self._incidents.adopt(state.incidents)
        # Entries cached before the restore were keyed under this service's
        # own version history, which the restore just replaced.
        self._cache.clear()
        self._stale.clear()
        for key, answer in state.cache:
            # Admitted as if freshly searched: the entry gets its encoded
            # result, and the stale rung is warmed too.
            self._admit(key, answer, None)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot of the service's serving counters.

        The cache counters arrive as one atomic snapshot
        (:meth:`ResultCache.counters`), the incident gauges as another and
        the request/latency counters as a third, so each group is
        internally consistent even while worker threads keep serving.
        """
        hits, misses, evictions, expirations, entries = self._cache.counters()
        # The incident gauges strictly before the stats locks (the scheduler
        # holds them in that order; taking them inverted could deadlock).
        gauges = self._incidents.gauges()
        with self._stats_lock:
            breakers = {name: breaker.state for name, breaker in self._breakers.items()}
            breaker_trips = sum(breaker.trips for breaker in self._breakers.values())
        return ServiceStats(
            **self._counters.read(),
            **gauges,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=evictions,
            cache_expirations=expirations,
            cache_entries=entries,
            breaker_trips=breaker_trips,
            breakers=breakers,
        )

    def clear_cache(self) -> None:
        """Drop every cached answer (counters survive; engines untouched)."""
        self._cache.clear()

    def attach_learning(self, stats_provider: Callable[[], Any]) -> None:
        """Register a learning loop's stats surface with this service.

        ``stats_provider`` is a zero-argument callable returning a snapshot
        object with a ``to_dict()`` method (e.g.
        ``repro.learning.LearningPipeline.stats`` — the pipeline registers
        itself at construction).  Once attached, the ``learning_stats``
        wire op answers from it; the service itself never imports
        :mod:`repro.learning`, so the coupling stays one-way.
        """
        if not callable(stats_provider):
            raise TypeError("stats_provider must be callable")
        self._learning_stats_provider = stats_provider

    def learning_stats(self) -> Any:
        """The attached learning loop's current stats snapshot.

        Raises ``LookupError`` when no learning pipeline is attached.
        """
        provider = self._learning_stats_provider
        if provider is None:
            raise LookupError("no learning pipeline attached to this service")
        return provider()

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------

    def handle_request(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one JSON-ready request document.

        The ``op`` field selects a handler from :attr:`_WIRE_OPS` — that
        table *is* the list of operations: the dispatch, this docstring and
        the unknown-op message all read it.  See the handlers (``_op_*``),
        the test suite and ``examples/serving.py`` for the exact
        shapes.  Routing requests may carry ``deadline_ms``, the
        degradation-ladder time budget (:meth:`route`'s
        ``deadline_seconds`` in milliseconds).  Success responses carry
        ``"ok": true`` plus the corresponding kind-tagged document;
        malformed or failing requests come back as
        ``{"ok": false, "error": ..., "error_kind": ...}`` instead of
        raising — a service answers every request.  ``error_kind`` is one
        of the stable codes documented in :mod:`repro.service.errors`.
        """
        try:
            if not isinstance(request, Mapping):  # the client's mistake, not ours
                raise TypeError("request must be an object")
            op = request.get("op")
            # Only strings can name an op; the guard also keeps an
            # unhashable ``op`` ([] / {}) an "unknown op", not a lookup error.
            handler = self._WIRE_OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ValueError(f"unknown op {op!r}; expected {'/'.join(self._WIRE_OPS)}")
            return {"ok": True, **handler(self, request)}
        except Exception as exc:
            # The always-answer contract: *any* failure — malformed
            # documents, strategy validation, even a crashed pool worker —
            # comes back as a document, never as an escaped exception that
            # takes the serving loop down with it.  KeyboardInterrupt and
            # friends are deliberately NOT caught: an operator's ^C must
            # stop the loop, not become an error document.
            return error_document(exc)

    def handle_json(self, line: str) -> str:
        """:meth:`handle_request` over JSON text (one request per call)."""
        try:
            request = decode_request(line)
        except (ValueError, TypeError) as exc:
            return json.dumps(error_document(exc))
        hit = self.probe_hit(request)
        if hit is not None:
            return hit[1]
        return json.dumps(self.handle_request(request))

    def probe_hit(self, request: Any) -> tuple[dict[str, Any], str] | None:
        """A ``route`` request's fresh cache hit, answered without blocking.

        :meth:`route`'s prologue and lookup stage with the slice read lock
        only *tried*.  A hit is counted as :meth:`route` counts one and comes
        back as ``(envelope, line)``: the response document minus its
        ``result``, and ``json.dumps(handle_request(request))`` byte for byte
        — ``json.dumps`` nests a dict's encoding unchanged, so the envelope's
        ``null`` result is replaced by the JSON :meth:`_admit` stored.
        Anything else (another op, an uncacheable or invalid request, a
        miss, a writer holding or awaiting the lock) is ``None`` with no
        counter moved: the full pipeline serves and counts it.
        """
        try:
            if not isinstance(request, Mapping) or request.get("op") != "route":
                return None
            query, common = self._wire_route_args(request)
            strategy = common["strategy"]
            name, _, _, _, extras = self._prologue(slice_name=request.get("slice"), **common)
            begin = time.perf_counter()
            lock = self._slice_locks[name]
            if not lock.try_acquire_read():
                return None
            try:
                version, _, cached = self._lookup(
                    name, strategy, query, extras, self._cache.get_hit
                )
            finally:
                lock.release_read()
        except Exception:
            return None  # the full pipeline answers it, error document and all
        if cached is None:
            return None
        self._counters.record_request(strategy, time.perf_counter() - begin)
        envelope = {"ok": True, **ServedResult(None, True, version, name, strategy).to_dict()}
        return envelope, json.dumps(envelope)[: -len("null}")] + cached[1] + "}"

    def _wire_route_args(
        self, request: Mapping[str, Any]
    ) -> tuple[RoutingQuery, dict[str, Any]]:
        """The query and keyword arguments ``route`` and ``route_at`` share."""
        return RoutingQuery.from_dict(request["query"]), {
            "strategy": request.get("strategy", "pbr"),
            "time_limit_seconds": request.get("time_limit_seconds"),
            "cache_ttl_seconds": request.get("cache_ttl_seconds"),
            "deadline_seconds": self._deadline_from_wire(request.get("deadline_ms")),
            **self._wire_kwargs(request),
        }

    def _op_route(self, request: Mapping[str, Any]) -> dict[str, Any]:
        query, common = self._wire_route_args(request)
        return self.route(query, slice_name=request.get("slice"), **common).to_dict()

    def _op_route_at(self, request: Mapping[str, Any]) -> dict[str, Any]:
        query, common = self._wire_route_args(request)
        if request.get("slice") is not None:
            raise ValueError(
                "route_at selects the slice from the schedule; pin a slice "
                "explicitly with op='route' instead of passing 'slice'"
            )
        return self.route_at(query, request["departure_time_seconds"], **common).to_dict()

    def _op_route_many(self, request: Mapping[str, Any]) -> dict[str, Any]:
        # Batches are serial; ``workers`` is still validated (on every
        # request, hit or miss) and then ignored, so old clients keep working.
        if request.get("workers") is not None:
            require_integer(
                request["workers"], "workers must be a positive integer", low=1
            )
        return self.route_many(
            [RoutingQuery.from_dict(item) for item in request["queries"]],
            strategy=request.get("strategy", "pbr"),
            slice_name=request.get("slice"),
            time_limit_seconds=request.get("time_limit_seconds"),
            cache_ttl_seconds=request.get("cache_ttl_seconds"),
            deadline_seconds=self._deadline_from_wire(request.get("deadline_ms")),
            **self._wire_kwargs(request),
        ).to_dict()

    def _op_depart_when(self, request: Mapping[str, Any]) -> dict[str, Any]:
        if request.get("kwargs"):
            raise ValueError(
                "op 'depart_when' takes no kwargs; departure_times, "
                "budget and arrive_by_seconds are top-level fields"
            )
        if request.get("deadline_ms") is not None:
            # Rejected, not dropped: nothing below reads a deadline, so
            # accepting the field would buy the client an unbounded search.
            raise ValueError(
                "op 'depart_when' does not support deadline_ms; bound the "
                "search with time_limit_seconds instead"
            )
        return self.depart_when(
            request["source"],
            request["target"],
            request["departure_times"],
            budget=request.get("budget"),
            arrive_by_seconds=request.get("arrive_by_seconds"),
            time_limit_seconds=request.get("time_limit_seconds"),
            cache_ttl_seconds=request.get("cache_ttl_seconds"),
        ).to_dict()

    def _op_apply_update(self, request: Mapping[str, Any]) -> dict[str, Any]:
        update = CostUpdate.from_dict(request["update"])
        target = self._update_target(update, request.get("slice"))
        version = self.apply_cost_update(update, slice_name=target)
        return {
            "kind": "update_applied",
            "slice": target,
            "cost_version": version,
            "num_edges": len(update),
        }

    def _op_schedule_incident(self, request: Mapping[str, Any]) -> dict[str, Any]:
        incident = ScheduledIncident.from_dict(request["incident"])
        self.schedule_incident(incident)
        return {
            "kind": "incident_scheduled",
            "incident_id": incident.incident_id,
            "clock": self.incident_clock,
        }

    def _op_advance_clock(self, request: Mapping[str, Any]) -> dict[str, Any]:
        events = self.advance_clock(request["now_seconds"])
        return {
            "kind": "clock_advanced",
            "clock": self.incident_clock,
            "events": events,
        }

    def _op_snapshot(self, request: Mapping[str, Any]) -> dict[str, Any]:
        include_cache = request.get("include_cache", False)
        if not isinstance(include_cache, bool):
            raise ValueError(f"include_cache must be a boolean, got {include_cache!r}")
        return self.snapshot(include_cache=include_cache)

    #: The wire protocol's operations, written once: ``op`` name → handler
    #: returning the success document (``"ok": true`` is added by
    #: :meth:`handle_request`).  Insertion order is the order the
    #: unknown-op message lists them in.
    _WIRE_OPS: dict[str, Callable[["RoutingService", Mapping[str, Any]], dict[str, Any]]] = {
        "route": _op_route,
        "route_at": _op_route_at,
        "route_many": _op_route_many,
        "depart_when": _op_depart_when,
        "apply_update": _op_apply_update,
        "schedule_incident": _op_schedule_incident,
        "advance_clock": _op_advance_clock,
        "incidents": lambda self, request: {"kind": "incidents", **self.incidents()},
        "stats": lambda self, request: self.stats().to_dict(),
        "learning_stats": lambda self, request: self.learning_stats().to_dict(),
        "snapshot": _op_snapshot,
    }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    #: Request fields that must never be smuggled in through ``kwargs`` —
    #: they have explicit top-level slots, and letting the spread win would
    #: silently reroute or un-cache a request labelled otherwise.
    _RESERVED_WIRE_KWARGS = frozenset(
        {"strategy", "time_limit_seconds", "cache_ttl_seconds", "slice",
         "slice_name", "workers", "query", "queries",
         "departure_time_seconds", "deadline_ms", "deadline_seconds"}
    )

    def _wire_kwargs(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """The request's strategy kwargs, with reserved fields rejected."""
        kwargs = dict(request.get("kwargs", {}))
        reserved = self._RESERVED_WIRE_KWARGS.intersection(kwargs)
        if reserved:
            raise ValueError(
                "kwargs may not override reserved request fields: "
                f"{sorted(reserved)}; set them at the top level"
            )
        return kwargs

    @staticmethod
    def _deadline_from_wire(raw: Any) -> float | None:
        """``deadline_ms`` → seconds, validated *before* the division.

        Checked here because ``True / 1000.0`` is a perfectly ordinary
        float — by the time :meth:`_deadline_at` saw it, a boolean
        payload would have become a legal-looking deadline.
        """
        if raw is None:
            return None
        return (
            require_number(raw, "deadline_ms must be a number of milliseconds", finite=False)
            / 1000.0
        )

    def _prologue(
        self,
        strategy: str,
        slice_name: str | None,
        time_limit_seconds: float | None,
        cache_ttl_seconds: float | None,
        deadline_seconds: float | None,
        **kwargs: Any,
    ) -> tuple[str, float | None, float | None, float | None, tuple | None]:
        """Every check a request passes before its lookup, raising before
        any counting: ``(slice, ttl, time limit, deadline instant, extras)``.

        The strategy is resolved here: an unknown name (wire input is
        untrusted) must raise, not leave a permanent entry in the
        per-strategy latency map — that map stays bounded by the registry.
        ``extras`` (the frozen kwargs, a key component) is ``None`` when the
        request is uncacheable: under a wall-clock limit, or with kwargs
        that cannot be frozen.
        """
        name = self._resolve_slice(slice_name)
        self._engines[name].strategy(strategy)
        ttl = check_ttl_seconds(cache_ttl_seconds, name="cache_ttl_seconds")
        if time_limit_seconds is not None:
            time_limit_seconds = check_time_limit(time_limit_seconds)
        deadline_at = self._deadline_at(deadline_seconds)
        try:
            extras = None if time_limit_seconds is not None else freeze_kwargs(kwargs)
        except TypeError:
            extras = None
        return name, ttl, time_limit_seconds, deadline_at, extras

    def _lookup(
        self,
        name: str,
        strategy: str,
        query: RoutingQuery,
        extras: tuple | None,
        get: Callable[[tuple], Any],
    ) -> tuple[int, tuple | None, tuple[ServiceAnswer, str] | None]:
        """The lookup stage, slice read lock held: ``(version, cache key,
        (answer, its JSON) or None)``, the key ``None`` when uncacheable.
        ``get`` is the cache read, which decides what is counted."""
        version = self._engines[name].cost_version
        if extras is None:
            return version, None, None
        key = (name, strategy, query.source, query.target, query.budget, extras, version)
        return version, key, get(key)

    def _deadline_at(self, deadline_seconds: float | None) -> float | None:
        """The service-clock instant a request's deadline expires at.

        ``None`` stays ``None`` (no deadline).  Non-positive deadlines are
        *valid* — a frontend that subtracts queue wait can legitimately
        hand the service an already-expired budget, which routes straight
        to the stale rung.  Only non-numbers and NaN are rejected.
        """
        if deadline_seconds is None:
            return None
        return self._clock() + require_number(
            deadline_seconds, "deadline must be a number of seconds", finite=False
        )

    def _join_flight(self, key: tuple) -> tuple[_SingleFlight, bool]:
        """Join (or open) the in-flight search for ``key``.

        Returns ``(flight, is_leader)``: the leader runs the search and
        must finish the flight on *every* exit path; followers wait on
        ``flight.done``.
        """
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _SingleFlight()
                return flight, True
            return flight, False

    def _finish_flight(
        self,
        key: tuple,
        flight: _SingleFlight,
        *,
        outcome: str,
        result: ServiceAnswer | None = None,
    ) -> None:
        """Settle one flight and release its followers (leader-only).

        The flight is unpublished *before* ``done`` is set, so a request
        arriving after the wake-up can only open a fresh flight — it can
        never join a settled one and wait forever.
        """
        with self._flights_lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.outcome = outcome
        flight.result = result
        flight.done.set()

    def _breaker(self, strategy: str) -> CircuitBreaker:
        """The per-strategy circuit breaker, created on first use.

        The map is bounded by the strategy registry: :meth:`route`
        validates the name against the engine before any breaker exists.
        """
        with self._stats_lock:
            breaker = self._breakers.get(strategy)
            if breaker is None:
                breaker = self._breakers[strategy] = CircuitBreaker(clock=self._clock)
            return breaker

    def _admit(
        self, key: tuple, result: ServiceAnswer, request_ttl: float | None
    ) -> None:
        """Cache ``result``.

        The answer also refreshes the degradation ladder's stale store,
        under the version-*less* key — exactly the cache key minus its
        trailing version component, so the store always holds the most
        recently admitted answer for the request shape across every
        cost-table version — together with the version it was computed
        under.  The cache entry is ``(result, its JSON)``, encoded once here
        for :meth:`probe_hit`: the text dies with its entry.
        """
        self._cache.put(key, (result, json.dumps(result.to_dict())), ttl_seconds=request_ttl)
        self._stale.put(key[:-1], (result, key[-1]))
