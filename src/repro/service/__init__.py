"""The serving layer: versioned result caching over the routing engine.

:class:`RoutingService` wraps :class:`~repro.routing.RoutingEngine` with a
bounded, cost-table-version-keyed LRU result cache (thread-safe, with
per-entry TTLs), live cost-table hot-swap (:class:`CostUpdate` /
:meth:`RoutingService.apply_cost_update`, snapshot-consistent against
in-flight requests via per-slice read-write locks), departure-time
scenarios (named time-of-day cost-table slices behind a
:class:`ScenarioSchedule`) and a JSON request/response wire protocol with
:class:`ServiceStats` observability.
:class:`ThreadedFrontend` drives one service from a worker pool over a
request queue — the concurrent deployment shape.

The resilience layer rides on top: request deadlines degrade down a
ladder instead of blocking (``deadline_ms`` on the wire, with
:class:`DeadlineExceededError` / :class:`NoRouteError` and stable
``error_kind`` wire codes), a per-strategy :class:`CircuitBreaker` stops
pathological strategies from eating worker time,
:meth:`RoutingService.snapshot` / :meth:`~RoutingService.restore` give
blue/green handover with bit-identical answers, and
:class:`FaultInjector` + :class:`RetryPolicy` are the deterministic
harness that proves all of it under injected crashes, stalls, poisoned
feeds and clock skew.

The scale-out layer (:mod:`repro.service.scaleout`) adds the pieces a
high-QPS deployment needs: :class:`AsyncFrontend` (asyncio wire frontend
— searches on a thread-pool executor, connections as coroutines, the
same queue-wait deadline charging as the threaded path), single-flight
request coalescing on the service itself (``coalesce_in_flight=True``:
N identical in-flight misses run one search, counted under
``stats().coalesced``), and demand-driven cache warming
(:class:`DemandMatrix` + :class:`CacheWarmer`: the hottest OD pairs are
replayed after each cost hot-swap so a version bump does not crater the
hit rate).

The time-varying layer makes the temporal axis first class:
:class:`TemporalCostProfile` compiles per-edge time-of-day cost profiles
(anchor slices, interpolated transition bands, :class:`TimePlan` signal
delays) down to the same slice/schedule primitives the service already
serves; :class:`ScheduledIncident` + :meth:`RoutingService.advance_clock`
activate closures and capacity drops on a clock and revert them
bit-identically; and :meth:`RoutingService.depart_when` answers "when
should I leave?" over a departure window with one shared multi-budget
search per temporal regime.  See PERFORMANCE.md ("Serving layer",
"Concurrent serving", "Resilient serving", "Scale-out serving" and
"Time-varying networks") for the design.
"""

from .cache import ResultCache, freeze_kwargs
from .errors import (
    DeadlineExceededError,
    FrontendClosedError,
    NoRouteError,
    error_kind,
)
from .faults import CircuitBreaker, FaultInjector, InjectedFault, RetryPolicy
from .frontend import FrontendStats, ThreadedFrontend, charge_queue_wait
from .scaleout import (
    AsyncFrontend,
    CacheWarmer,
    DemandEntry,
    DemandMatrix,
    WarmerStats,
)
from .scenarios import (
    DAY_SECONDS,
    DEFAULT_SLICE_WEIGHTS,
    ScenarioSchedule,
    TemporalCostProfile,
    TimePlan,
    TimeSlice,
    time_sliced_cost_tables,
)
from .service import (
    ACCEPTED_SNAPSHOT_FORMATS,
    DEFAULT_SLICE,
    SERVICE_SNAPSHOT_FORMAT,
    RoutingService,
    ServedBatch,
    ServedResult,
    ServiceStats,
    StrategyLatency,
)
from .sync import ReadWriteLock
from .updates import CLOSURE_TICKS, CostUpdate, ScheduledIncident

__all__ = [
    "ACCEPTED_SNAPSHOT_FORMATS",
    "AsyncFrontend",
    "CLOSURE_TICKS",
    "CacheWarmer",
    "CircuitBreaker",
    "CostUpdate",
    "DAY_SECONDS",
    "DEFAULT_SLICE",
    "DEFAULT_SLICE_WEIGHTS",
    "DeadlineExceededError",
    "DemandEntry",
    "DemandMatrix",
    "FaultInjector",
    "FrontendClosedError",
    "FrontendStats",
    "InjectedFault",
    "NoRouteError",
    "ReadWriteLock",
    "ResultCache",
    "RoutingService",
    "SERVICE_SNAPSHOT_FORMAT",
    "ScenarioSchedule",
    "ScheduledIncident",
    "ServedBatch",
    "ServedResult",
    "ServiceStats",
    "StrategyLatency",
    "TemporalCostProfile",
    "ThreadedFrontend",
    "TimePlan",
    "TimeSlice",
    "WarmerStats",
    "charge_queue_wait",
    "error_kind",
    "freeze_kwargs",
    "time_sliced_cost_tables",
]
