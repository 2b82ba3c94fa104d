"""The :class:`RoutingEngine` facade — one entry point for all routing.

The paper frames stochastic routing as a single query interface
parameterised by budget, time limit and cost model.  Before this module,
every caller hand-wired the label search, the baseline functions, a cost
combiner, budget-in-ticks conversion and heuristic-cache management
together.  The engine centralises that wiring the way production
trip-dispatch stacks do:

* it **owns** the network, the combiner, the pruning and search-core
  settings, and reads the shared
  :class:`~repro.routing.heuristics.OptimisticHeuristic` state, so repeated
  and batched queries amortise the reverse-Dijkstra and cached-CDF costs;
* :meth:`RoutingEngine.route` answers one query under any registered
  **strategy** (``"pbr"``, ``"anytime"``, ``"expected_time"``, ``"oracle"``,
  ``"multi_budget"``, ``"kbest"``, ``"depart_when"`` out of the box);
* :meth:`RoutingEngine.route_many` serves batch workloads, grouping
  queries by target so the heuristic LRU stays hot, and returns a
  :class:`BatchResult` with aggregated :class:`SearchStats`;
* :meth:`RoutingEngine.route_stream` yields improving anytime pivots over
  an ascending sweep of wall-clock limits;
* :meth:`RoutingEngine.route_multi_budget` answers one source/target pair
  for a whole budget vector in a single label search, and
  :meth:`RoutingEngine.route_kbest` surfaces the top-k non-dominated routes
  at the target instead of just the argmax.

A strategy is a plain function over the engine, registered with the
:func:`register_strategy` decorator; new workloads plug in without
touching the engine:

    >>> @register_strategy("my_strategy")
    ... def my_strategy(engine, query, *, time_limit_seconds):
    ...     ...

See PERFORMANCE.md ("Engine API") for the cache-reuse contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..scalars import require_integer
from .baselines import exhaustive_best_path, expected_time_path
from .budget import PruningConfig, search_kbest, search_vector
from .heuristics import OptimisticHeuristic
from .query import (
    DepartWhenResult,
    KBestResult,
    MultiBudgetResult,
    RoutingQuery,
    RoutingResult,
    SearchStats,
    check_time_limit,
    depart_when_search,
    normalize_budgets,
    normalize_departures,
    result_from_dict,
)

__all__ = [
    "BatchResult",
    "RoutingEngine",
    "available_strategies",
    "register_strategy",
]

#: Any answer a strategy may produce.  ``None`` means the strategy declined
#: to answer (e.g. its wall-clock limit expired before it had anything) —
#: distinct from a ``RoutingResult`` with ``found == False``, which is a
#: definitive "no route exists".
StrategyAnswer = (
    RoutingResult | MultiBudgetResult | KBestResult | DepartWhenResult | None
)

#: ``(engine, query, *, time_limit_seconds, **options) -> StrategyAnswer``.
Strategy = Callable[..., StrategyAnswer]


# ----------------------------------------------------------------------
# Strategy registry
# ----------------------------------------------------------------------

#: name -> (strategy function, whether it honours ``time_limit_seconds``).
_STRATEGIES: dict[str, tuple[Strategy, bool]] = {}


def register_strategy(name: str, *, time_limit: bool = False):
    """Decorator registering a strategy function under ``name``.

    A strategy answers ``query`` with ``engine``'s shared state:
    ``strategy(engine, query, *, time_limit_seconds, **options)``, where
    ``options`` are its own keyword arguments, passed through
    :meth:`RoutingEngine.route`.  Most strategies return a
    :class:`RoutingResult`; richer ones a :class:`MultiBudgetResult`,
    :class:`KBestResult` or :class:`DepartWhenResult` (any answer exposing
    ``found``, ``stats`` and ``to_dict``).  Returning ``None`` means "no
    answer" (e.g. a time limit expired before the strategy had anything)
    and is reported distinctly from a found-nothing result by
    :class:`BatchResult`.

    ``time_limit`` declares that the strategy honours
    ``time_limit_seconds`` (which arrives checked, or ``None``).  A
    strategy that cannot bound its latency has a limit rejected instead of
    silently ignored — a service must not promise latency it cannot keep.

    The registry is process-wide: any module can add a strategy and every
    :class:`RoutingEngine` can serve it immediately.  Names are unique —
    re-registering an existing name raises rather than silently shadowing
    a strategy another caller may depend on.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("strategy name must be a non-empty string")

    def decorator(function: Strategy) -> Strategy:
        if isinstance(function, type) or not callable(function):
            raise TypeError("@register_strategy expects a strategy function")
        if name in _STRATEGIES:
            raise ValueError(f"routing strategy {name!r} is already registered")
        _STRATEGIES[name] = (function, time_limit)
        return function

    return decorator


def available_strategies() -> tuple[str, ...]:
    """Sorted names of every registered routing strategy."""
    return tuple(sorted(_STRATEGIES))


def _registered(name: str) -> tuple[Strategy, bool]:
    """The strategy registered as ``name`` and its time-limit flag."""
    entry = _STRATEGIES.get(name)
    if entry is None:
        raise KeyError(
            f"unknown routing strategy {name!r}; available: "
            f"{', '.join(available_strategies())}"
        )
    return entry


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------


@register_strategy("pbr", time_limit=True)
def pbr(
    engine: "RoutingEngine", query: RoutingQuery, *, time_limit_seconds: float | None
) -> RoutingResult:
    """The paper's algorithm: best-first PBR search with all prunings.

    Optionally anytime — with ``time_limit_seconds`` the search returns the
    pivot path when the wall clock expires.  Always returns a result: the
    optimal path when the search ran to completion (``stats.completed``),
    the pivot path when the limit expired, and an empty path when the
    target is unreachable.  The one-element budget vector of
    :func:`~repro.routing.budget.search_vector`.
    """
    answer = search_vector(engine, query, (query.budget,), time_limit_seconds)
    return replace(answer.results[0], stats=answer.stats)


@register_strategy("anytime", time_limit=True)
def anytime(
    engine: "RoutingEngine", query: RoutingQuery, *, time_limit_seconds: float | None
) -> RoutingResult:
    """PBR under a mandatory wall-clock budget (pivot path on expiry).

    Identical search to ``"pbr"``; the separate strategy makes the
    bounded-latency contract explicit — a missing limit is a caller bug,
    not an accidental unbounded search.
    """
    if time_limit_seconds is None:
        raise ValueError("the 'anytime' strategy requires time_limit_seconds")
    return pbr(engine, query, time_limit_seconds=time_limit_seconds)


@register_strategy("multi_budget", time_limit=True)
def multi_budget(
    engine: "RoutingEngine",
    query: RoutingQuery,
    *,
    time_limit_seconds: float | None,
    budgets: Iterable[int] | None = None,
) -> MultiBudgetResult:
    """One source/target pair answered for a whole budget vector.

    A single label search serves every budget (see
    :func:`~repro.routing.budget.search_vector`) instead of re-running
    ``"pbr"`` once per budget.  Pass the vector as ``budgets=``;
    ``query.budget`` must be its maximum (use
    :meth:`RoutingEngine.route_multi_budget` to construct both together).
    """
    if budgets is None:
        raise ValueError(
            "the 'multi_budget' strategy requires budgets=<tick vector>"
        )
    budget_vector = normalize_budgets(budgets)
    if budget_vector[-1] != query.budget:
        raise ValueError(
            "query.budget must equal max(budgets); use "
            "RoutingEngine.route_multi_budget to build both consistently"
        )
    return search_vector(engine, query, budget_vector, time_limit_seconds)


@register_strategy("kbest", time_limit=True)
def kbest(
    engine: "RoutingEngine",
    query: RoutingQuery,
    *,
    time_limit_seconds: float | None,
    k: int | None = None,
) -> KBestResult:
    """Top-k non-dominated routes at the target (``k=...`` required).

    Same label search as ``"pbr"`` with the pivot pruning relaxed to the
    k-th best arrival, so the whole top of the target's Pareto frontier
    survives — alternatives a dispatcher can offer, not just the argmax
    (see :func:`~repro.routing.budget.search_kbest`).
    """
    if k is None:
        raise ValueError("the 'kbest' strategy requires k=<positive int>")
    return search_kbest(
        engine,
        query,
        require_integer(k, "k must be a positive integer", low=1),
        time_limit_seconds,
    )


@register_strategy("depart_when", time_limit=True)
def depart_when(
    engine: "RoutingEngine",
    query: RoutingQuery,
    *,
    time_limit_seconds: float | None,
    departure_times: Iterable[float] | None = None,
    arrive_by_seconds: float | None = None,
) -> DepartWhenResult:
    """Best budget-reliability over a departure window ("leave when?").

    Pass the candidate departures as ``departure_times=<seconds vector>``.
    Two modes:

    - **arrive-by** (``arrive_by_seconds=``): each departure's budget is
      the wall-clock window left until the deadline, floored onto the
      grid.  A later departure is just a smaller budget against the same
      cost table, so *one* shared multi-budget label search answers the
      whole window (``query.budget`` must equal the largest feasible
      budget; use :meth:`RoutingEngine.route_depart_when` to build both
      consistently).  Departures at or past the deadline are reported
      infeasible, not errors.
    - **fixed-budget** (no ``arrive_by_seconds``): every departure shares
      ``query.budget`` — the "any time in this window, same trip length"
      question.  Against one table all entries coincide; the mode earns
      its keep at the service layer, where each temporal regime in the
      window contributes its own table.
    """
    if departure_times is None:
        raise ValueError(
            "the 'depart_when' strategy requires "
            "departure_times=<seconds vector>"
        )
    departures = normalize_departures(departure_times)
    budgets, feasible, search = depart_when_search(
        query.source,
        query.target,
        departures,
        query.budget if arrive_by_seconds is None else None,
        arrive_by_seconds,
        engine.resolution,
    )
    if search.budget != query.budget:
        raise ValueError(
            "query.budget must equal the largest feasible departure "
            "budget; use RoutingEngine.route_depart_when to build both "
            "consistently"
        )
    multi = search_vector(engine, query, feasible, time_limit_seconds)
    results = tuple(
        multi.best_for(budget) if budget >= 1 else None for budget in budgets
    )
    return DepartWhenResult(
        query=query,
        departures=departures,
        budgets=budgets,
        results=results,
        arrive_by_seconds=(
            None if arrive_by_seconds is None else float(arrive_by_seconds)
        ),
        stats=multi.stats,
    )


@register_strategy("expected_time")
def expected_time(
    engine: "RoutingEngine", query: RoutingQuery, *, time_limit_seconds: float | None
) -> RoutingResult:
    """Baseline: deterministic shortest path over average travel times."""
    return expected_time_path(engine.network, engine.combiner, query)


@register_strategy("oracle")
def oracle(
    engine: "RoutingEngine",
    query: RoutingQuery,
    *,
    time_limit_seconds: float | None,
    max_edges: int = 12,
) -> RoutingResult:
    """Baseline: exhaustive enumeration of simple paths (small graphs only)."""
    return exhaustive_best_path(
        engine.network,
        engine.combiner,
        query,
        max_edges=require_integer(max_edges, "max_edges must be a positive integer", low=1),
    )


# ----------------------------------------------------------------------
# Batch results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Answers to one :meth:`RoutingEngine.route_many` call.

    ``results`` preserves the input query order; ``stats`` aggregates every
    member search (see :meth:`SearchStats.aggregate`).  A member is one of
    three distinct outcomes, and the counters keep them apart — a batch
    consumer must not read "no route exists" out of a query its strategy
    simply never answered:

    * a found answer (``result.found``) — counted by :attr:`num_found`;
    * a definitive miss (``result is not None and not result.found``, e.g.
      an unreachable target) — counted by :attr:`num_no_route`;
    * ``None`` — the strategy declined to answer (typically its wall-clock
      limit expired first) — counted by :attr:`num_unanswered`.
    """

    results: tuple[RoutingResult | MultiBudgetResult | KBestResult | None, ...]
    stats: SearchStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[StrategyAnswer]:
        return iter(self.results)

    def __getitem__(self, index: int) -> StrategyAnswer:
        return self.results[index]

    @property
    def num_found(self) -> int:
        """Members with a route."""
        return sum(
            1 for result in self.results if result is not None and result.found
        )

    @property
    def num_no_route(self) -> int:
        """Members whose strategy answered definitively: no route exists."""
        return sum(
            1 for result in self.results if result is not None and not result.found
        )

    @property
    def num_unanswered(self) -> int:
        """Members whose strategy returned no answer (e.g. time limit)."""
        return sum(1 for result in self.results if result is None)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of the whole batch.

        Unanswered members serialise as ``null`` so the wire format keeps
        the found / no-route / unanswered distinction intact.
        """
        return {
            "kind": "batch",
            "results": [
                None if result is None else result.to_dict()
                for result in self.results
            ],
            "stats": self.stats.to_dict(),
            "num_found": self.num_found,
            "num_no_route": self.num_no_route,
            "num_unanswered": self.num_unanswered,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], network: RoadNetwork) -> "BatchResult":
        """Rebuild a batch against ``network``.

        ``null`` members come back as ``None`` (the outcome counters are
        derived properties, so the round trip preserves them for free).
        """
        return cls(
            results=tuple(
                None if item is None else result_from_dict(item, network)
                for item in data["results"]
            ),
            stats=SearchStats.from_dict(data.get("stats", {})),
        )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------


class RoutingEngine:
    """Unified entry point for PBR, anytime, baseline and batch routing.

    One engine per (network, combiner) pair; it is what a routing service
    instantiates once and serves all traffic through.  Every strategy reads
    the engine's settings and the cost table's per-version
    optimistic-heuristic LRU, so heavy traffic to popular destinations pays
    the per-target setup cost once.
    """

    def __init__(
        self,
        network: RoadNetwork,
        combiner: CostCombiner,
        *,
        pruning: PruningConfig | None = None,
        backend: str = "auto",
        landmarks: int | None = None,
        clip_distributions: bool = True,
    ) -> None:
        if backend not in ("auto", "scalar", "columnar"):
            raise ValueError(
                f"backend must be 'auto', 'scalar' or 'columnar', got {backend!r}"
            )
        if landmarks is not None and landmarks < 1:
            raise ValueError("landmarks must be >= 1 when given")
        self.network = network
        self.combiner = combiner
        self.pruning = pruning or PruningConfig()
        #: Search-core selection for budget vectors (``pbr``,
        #: ``multi_budget``, ``depart_when``; ``kbest`` always runs the
        #: scalar loop).  ``"scalar"`` is the label-at-a-time reference
        #: core; ``"columnar"`` forces the generation-at-a-time numpy core
        #: (raises when the combiner cannot support it); ``"auto"`` picks
        #: columnar only on networks large enough for the batched kernels
        #: to pay for their setup, so small worlds (and every golden
        #: fixture) keep the scalar core's exploration order bit for bit.
        #: See PERFORMANCE.md "Columnar search core".
        self.backend = backend
        #: When set, the columnar core derives its lower bounds from a
        #: ``k``-landmark ALT table (built once per cost-table version and
        #: shared across *all* targets) instead of the per-target reverse
        #: Dijkstra.  Weaker bounds, no per-target setup cost.
        self.landmarks = landmarks
        #: Reference knob for the clip-boundary equivalence suite: ``False``
        #: disables folding so searches run on full, unfolded distributions.
        self.clip_distributions = clip_distributions

    def __repr__(self) -> str:
        return (
            f"RoutingEngine(network={self.network!r}, "
            f"combiner={type(self.combiner).__name__})"
        )

    # ------------------------------------------------------------------
    # Query construction
    # ------------------------------------------------------------------

    @property
    def resolution(self) -> float:
        """Seconds per distribution grid tick (the cost table's resolution)."""
        return self.combiner.costs.resolution

    @property
    def cost_version(self) -> int:
        """The engine's cost table's mutation version.

        The serving layer keys its result cache on this value, so any
        ``set_cost`` / ``apply_deltas`` edit invalidates every cached answer
        by construction (new keys simply never match old entries) — no
        scanning, no registration protocol.

        Concurrency: the underlying table publishes its histograms and its
        version together in one atomic cell, so a version
        read here is a coherent snapshot tag — a request that reads it once
        up front, computes, and caches under it can never tag an answer
        with a version the costs it read did not belong to.  (Keeping the
        *whole computation* at that snapshot is the serving layer's job: it
        serialises ``apply_deltas`` against in-flight requests.)
        """
        return self.combiner.costs.version

    def query_from_seconds(
        self, source: int, target: int, budget_seconds: float
    ) -> RoutingQuery:
        """Build a query from a seconds budget on this engine's grid."""
        return RoutingQuery.from_seconds(
            source, target, budget_seconds, resolution=self.resolution
        )

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------

    def supports_time_limit(self, name: str) -> bool:
        """Whether strategy ``name`` honours ``time_limit_seconds``.

        The serving layer's degradation ladder keys off this: a strategy
        that can bound its own latency is run with the request's remaining
        deadline as a cooperative limit, while one that cannot is run as-is
        and only judged afterwards.  Unknown names raise ``KeyError``,
        exactly like :meth:`route`.
        """
        return _registered(name)[1]

    def heuristic_for(self, target: int) -> OptimisticHeuristic:
        """The shared optimistic heuristic for ``target`` (LRU-cached)."""
        return OptimisticHeuristic.shared(self.network, self.combiner.costs, target)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(
        self,
        query: RoutingQuery,
        *,
        strategy: str = "pbr",
        time_limit_seconds: float | None = None,
        **kwargs: Any,
    ) -> StrategyAnswer:
        """Answer one query under ``strategy``.

        ``time_limit_seconds`` bounds the wall clock for strategies that
        support it (``"pbr"`` optionally, ``"anytime"`` mandatorily);
        strategy-specific options (e.g. the oracle's ``max_edges``, the
        multi-budget vector ``budgets``, the k-best ``k``) pass through
        ``kwargs``.  ``None`` means the strategy declined to answer — a
        different outcome than a result with ``found == False``.  The limit
        is checked here, once, for every strategy.
        """
        function, bounded = _registered(strategy)
        if time_limit_seconds is not None:
            if not bounded:
                raise ValueError(
                    f"strategy {strategy!r} does not support time_limit_seconds"
                )
            time_limit_seconds = check_time_limit(time_limit_seconds)
        return function(self, query, time_limit_seconds=time_limit_seconds, **kwargs)

    def route_multi_budget(
        self, source: int, target: int, budgets: Iterable[int]
    ) -> MultiBudgetResult:
        """Answer one source/target pair for a whole budget vector.

        The ``"multi_budget"`` strategy: one label search serves every
        budget (:func:`~repro.routing.budget.search_vector` states the
        contract).  ``budgets`` may arrive unsorted or with duplicates — it
        is normalised exactly like a single :attr:`RoutingQuery.budget`.
        """
        budget_vector = normalize_budgets(budgets)
        query = RoutingQuery(source, target, budget_vector[-1])
        return self.route(query, strategy="multi_budget", budgets=budget_vector)

    def route_kbest(self, query: RoutingQuery, k: int) -> KBestResult:
        """The top-``k`` non-dominated routes for ``query``, best first."""
        return self.route(query, strategy="kbest", k=k)

    def route_depart_when(
        self,
        source: int,
        target: int,
        departure_times: Iterable[float],
        *,
        budget: int | None = None,
        arrive_by_seconds: float | None = None,
    ) -> DepartWhenResult:
        """Best budget-reliability over a departure window, in one search.

        Exactly one of ``budget`` (every departure gets the same tick
        budget) or ``arrive_by_seconds`` (each departure's budget is the
        remaining wall-clock window, floored onto the grid) must be given.
        One shared multi-budget label search answers every feasible
        departure; departures at or past the deadline come back infeasible
        (budget 0, ``None`` result).  Raises when *no* departure is
        feasible — an empty search would answer nothing.
        """
        departures = normalize_departures(departure_times)
        _, _, query = depart_when_search(
            source, target, departures, budget, arrive_by_seconds, self.resolution
        )
        return self.route(
            query,
            strategy="depart_when",
            departure_times=departures,
            arrive_by_seconds=arrive_by_seconds,
        )

    def route_many(
        self,
        queries: Iterable[RoutingQuery],
        *,
        strategy: str = "pbr",
        time_limit_seconds: float | None = None,
        **kwargs: Any,
    ) -> BatchResult:
        """Answer a batch of queries, amortising shared caches across them.

        Queries are *processed* grouped by target — consecutive same-target
        searches hit the optimistic-heuristic LRU even when the batch spans
        more distinct targets than the LRU holds — but ``results`` preserves
        the input order.  ``time_limit_seconds`` applies per query, so a
        batch's worst-case latency is ``len(queries) * time_limit_seconds``;
        strategy-specific ``kwargs`` (e.g. the oracle's ``max_edges``) apply
        to every member, exactly as in :meth:`route`.  An empty batch
        returns zero results and zeroed aggregate stats.
        """
        query_list = list(queries)
        order = sorted(range(len(query_list)), key=lambda i: query_list[i].target)
        routed = {
            index: self.route(
                query_list[index],
                strategy=strategy,
                time_limit_seconds=time_limit_seconds,
                **kwargs,
            )
            for index in order
        }
        results = tuple(routed[index] for index in range(len(query_list)))
        return BatchResult(
            results=results,
            stats=SearchStats.aggregate(
                result.stats for result in results if result is not None
            ),
        )

    def route_stream(
        self,
        query: RoutingQuery,
        time_limits: Sequence[float],
    ) -> Iterator[RoutingResult]:
        """Yield improving anytime pivots over ascending wall-clock limits.

        Each yielded result is what a caller granting at most that limit
        would have received; because each run is an independent
        deterministic search, later (larger) limits never yield a worse
        pivot.  ``time_limits`` must be strictly increasing and positive —
        a non-increasing sweep would re-spend wall clock for answers the
        stream already delivered, so it is rejected (at the call site, not
        on first iteration) as a caller bug.  The target's shared
        optimistic heuristic is warmed once, before the first limit's clock
        starts, so no step of the sweep pays for the reverse Dijkstra and
        the stream measures search time.
        """
        limits = [check_time_limit(limit) for limit in time_limits]
        if any(b <= a for a, b in zip(limits, limits[1:])):
            raise ValueError(
                "route_stream time limits must be strictly increasing; "
                "sort/deduplicate the sweep before streaming"
            )

        def stream() -> Iterator[RoutingResult]:
            self.heuristic_for(query.target)
            for limit in limits:
                yield pbr(self, query, time_limit_seconds=limit)

        return stream()
