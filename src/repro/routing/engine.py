"""The :class:`RoutingEngine` facade — one entry point for all routing.

The paper frames stochastic routing as a single query interface
parameterised by budget, time limit and cost model.  Before this module,
every caller hand-wired the label search, the baseline functions, a cost
combiner, budget-in-ticks conversion and heuristic-cache management
together.  The engine centralises that wiring the way production
trip-dispatch stacks do:

* it **owns** the network, the combiner and the shared
  :class:`~repro.routing.heuristics.OptimisticHeuristic` state, so repeated
  and batched queries amortise the reverse-Dijkstra and cached-CDF costs;
* :meth:`RoutingEngine.route` answers one query under any registered
  **strategy** (``"pbr"``, ``"anytime"``, ``"expected_time"``, ``"oracle"``,
  ``"multi_budget"``, ``"kbest"`` out of the box);
* :meth:`RoutingEngine.route_many` serves batch workloads, grouping
  queries by target so the heuristic LRU stays hot, and returns a
  :class:`BatchResult` with aggregated :class:`SearchStats`;
* :meth:`RoutingEngine.route_stream` yields improving anytime pivots over
  an ascending sweep of wall-clock limits, sharing one heuristic across
  the whole sweep;
* :meth:`RoutingEngine.route_multi_budget` answers one source/target pair
  for a whole budget vector in a single label search, and
  :meth:`RoutingEngine.route_kbest` surfaces the top-k non-dominated routes
  at the target instead of just the argmax.

New workloads plug in through the :func:`register_strategy` decorator
without touching the engine:

    >>> @register_strategy("my_strategy")
    ... class MyStrategy(RoutingStrategy):
    ...     def route(self, engine, query, *, time_limit_seconds=None):
    ...         ...

See PERFORMANCE.md ("Engine API") for the cache-reuse contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..scalars import require_integer
from .baselines import exhaustive_best_path, expected_time_path
from .budget import PruningConfig, _BudgetSearch
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
    "RoutingStrategy",
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


# ----------------------------------------------------------------------
# Strategy registry
# ----------------------------------------------------------------------


class RoutingStrategy(abc.ABC):
    """One way of answering a :class:`RoutingQuery` through the engine.

    Strategies are stateless policy objects: the engine hands them itself
    (network, combiner, shared search and heuristic state) plus the query.
    Register implementations with :func:`register_strategy`.
    """

    #: Registry name; assigned by :func:`register_strategy`.
    name: str = "<unregistered>"

    #: Whether the strategy honours ``time_limit_seconds``.  Strategies that
    #: cannot bound their latency reject a limit instead of silently
    #: ignoring it — a service must not promise latency it cannot keep.
    supports_time_limit: bool = False

    @abc.abstractmethod
    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        **kwargs: Any,
    ) -> StrategyAnswer:
        """Answer ``query`` using ``engine``'s shared state.

        Most strategies return a :class:`RoutingResult`; richer strategies
        may return :class:`MultiBudgetResult` / :class:`KBestResult` (any
        answer type exposing ``found``, ``stats`` and ``to_dict``).
        Returning ``None`` means "no answer" (e.g. a time limit expired
        before the strategy had anything) and is reported distinctly from a
        found-nothing result by :class:`BatchResult`.  ``time_limit_seconds``
        arrives checked (:meth:`RoutingEngine.route`).
        """


_STRATEGIES: dict[str, type[RoutingStrategy]] = {}


def register_strategy(name: str):
    """Class decorator registering a :class:`RoutingStrategy` under ``name``.

    The registry is process-wide: any module can add a strategy and every
    :class:`RoutingEngine` can serve it immediately.  Names are unique —
    re-registering an existing name raises rather than silently shadowing
    a strategy another caller may depend on.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("strategy name must be a non-empty string")

    def decorator(cls: type[RoutingStrategy]) -> type[RoutingStrategy]:
        if not (isinstance(cls, type) and issubclass(cls, RoutingStrategy)):
            raise TypeError("@register_strategy expects a RoutingStrategy subclass")
        if name in _STRATEGIES:
            raise ValueError(f"routing strategy {name!r} is already registered")
        cls.name = name
        _STRATEGIES[name] = cls
        return cls

    return decorator


def available_strategies() -> tuple[str, ...]:
    """Sorted names of every registered routing strategy."""
    return tuple(sorted(_STRATEGIES))


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------


@register_strategy("pbr")
class PBRStrategy(RoutingStrategy):
    """The paper's algorithm: best-first PBR search with all prunings.

    Optionally anytime — with ``time_limit_seconds`` the search returns the
    pivot path when the wall clock expires.
    """

    supports_time_limit = True

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> RoutingResult:
        return engine._search.route(
            query, time_limit_seconds=time_limit_seconds, heuristic=heuristic
        )


@register_strategy("anytime")
class AnytimeStrategy(PBRStrategy):
    """PBR under a mandatory wall-clock budget (pivot path on expiry).

    Identical search to ``"pbr"``; the separate strategy makes the
    bounded-latency contract explicit — a missing limit is a caller bug,
    not an accidental unbounded search.
    """

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> RoutingResult:
        if time_limit_seconds is None:
            raise ValueError("the 'anytime' strategy requires time_limit_seconds")
        return super().route(
            engine,
            query,
            time_limit_seconds=time_limit_seconds,
            heuristic=heuristic,
        )


@register_strategy("multi_budget")
class MultiBudgetStrategy(RoutingStrategy):
    """One source/target pair answered for a whole budget vector.

    A single label search serves every budget — the per-vertex Pareto
    frontiers, the optimistic heuristic and every convolution are shared —
    instead of re-running ``"pbr"`` once per budget.  Pass the vector as
    ``budgets=``; ``query.budget`` must be its maximum (use
    :meth:`RoutingEngine.route_multi_budget` to construct both together).
    """

    supports_time_limit = True

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        budgets: Iterable[int] | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> MultiBudgetResult:
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
        return engine._search.route_multi_budget(
            query, budget_vector, time_limit_seconds=time_limit_seconds, heuristic=heuristic
        )


@register_strategy("kbest")
class KBestStrategy(RoutingStrategy):
    """Top-k non-dominated routes at the target (``k=...`` required).

    Same label search as ``"pbr"`` with the pivot pruning relaxed to the
    k-th best arrival, so the whole top of the target's Pareto frontier
    survives — alternatives a dispatcher can offer, not just the argmax.
    """

    supports_time_limit = True

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        k: int | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> KBestResult:
        if k is None:
            raise ValueError("the 'kbest' strategy requires k=<positive int>")
        return engine._search.route_kbest(
            query,
            require_integer(k, "k must be a positive integer", low=1),
            time_limit_seconds=time_limit_seconds,
            heuristic=heuristic,
        )


@register_strategy("depart_when")
class DepartWhenStrategy(RoutingStrategy):
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

    supports_time_limit = True

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        departure_times: Iterable[float] | None = None,
        arrive_by_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> DepartWhenResult:
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
        multi = engine._search.route_multi_budget(
            query,
            feasible,
            time_limit_seconds=time_limit_seconds,
            heuristic=heuristic,
        )
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
class ExpectedTimeStrategy(RoutingStrategy):
    """Baseline: deterministic shortest path over average travel times."""

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
    ) -> RoutingResult:
        return expected_time_path(engine.network, engine.combiner, query)


@register_strategy("oracle")
class OracleStrategy(RoutingStrategy):
    """Baseline: exhaustive enumeration of simple paths (small graphs only)."""

    def route(
        self,
        engine: "RoutingEngine",
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        max_edges: int = 12,
    ) -> RoutingResult:
        return exhaustive_best_path(
            engine.network, engine.combiner, query, max_edges=max_edges
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
    instantiates once and serves all traffic through.  All strategies share
    the engine's search state and the cost table's per-version
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
    ) -> None:
        self.network = network
        self.combiner = combiner
        self.pruning = pruning or PruningConfig()
        # ``backend`` (``"auto"`` / ``"scalar"`` / ``"columnar"``) and the
        # optional ALT landmark count are forwarded to the search; see
        # :class:`~repro.routing.budget._BudgetSearch` and PERFORMANCE.md
        # "Columnar search core".
        self._search = _BudgetSearch(
            network,
            combiner,
            pruning=self.pruning,
            backend=backend,
            landmarks=landmarks,
        )
        self._strategies: dict[str, RoutingStrategy] = {}

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

    def query(self, source: int, target: int, budget: int) -> RoutingQuery:
        """Build a validated tick-budget query."""
        return RoutingQuery(source, target, budget)

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

    def strategy(self, name: str) -> RoutingStrategy:
        """The (per-engine cached) strategy instance registered as ``name``.

        Safe under concurrent callers: two threads racing the first lookup
        may both construct an instance, but ``setdefault`` publishes exactly
        one and strategies are stateless policy objects, so the loser's
        instance is simply garbage.
        """
        instance = self._strategies.get(name)
        if instance is None:
            cls = _STRATEGIES.get(name)
            if cls is None:
                raise KeyError(
                    f"unknown routing strategy {name!r}; available: "
                    f"{', '.join(available_strategies())}"
                )
            instance = self._strategies.setdefault(name, cls())
        return instance

    def supports_time_limit(self, name: str) -> bool:
        """Whether strategy ``name`` honours ``time_limit_seconds``.

        The serving layer's degradation ladder keys off this: a strategy
        that can bound its own latency is run with the request's remaining
        deadline as a cooperative limit, while one that cannot is run as-is
        and only judged afterwards.  Unknown names raise, exactly like
        :meth:`strategy`.
        """
        return self.strategy(name).supports_time_limit

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
        instance = self.strategy(strategy)
        if time_limit_seconds is not None:
            if not instance.supports_time_limit:
                raise ValueError(
                    f"strategy {strategy!r} does not support time_limit_seconds"
                )
            time_limit_seconds = check_time_limit(time_limit_seconds)
        return instance.route(self, query, time_limit_seconds=time_limit_seconds, **kwargs)

    def route_multi_budget(
        self,
        source: int,
        target: int,
        budgets: Iterable[int],
        *,
        time_limit_seconds: float | None = None,
    ) -> MultiBudgetResult:
        """Answer one source/target pair for a whole budget vector.

        One label search serves every budget (the Pareto frontier work is
        shared instead of re-run per budget); per-budget answers match
        independent ``"pbr"`` runs.  ``budgets`` may arrive unsorted or with
        duplicates — it is normalised exactly like a single
        :attr:`RoutingQuery.budget`.
        """
        budget_vector = normalize_budgets(budgets)
        query = RoutingQuery(source, target, budget_vector[-1])
        return self.route(
            query,
            strategy="multi_budget",
            budgets=budget_vector,
            time_limit_seconds=time_limit_seconds,
        )

    def route_kbest(
        self,
        query: RoutingQuery,
        k: int,
        *,
        time_limit_seconds: float | None = None,
    ) -> KBestResult:
        """The top-``k`` non-dominated routes for ``query``, best first."""
        return self.route(
            query, strategy="kbest", k=k, time_limit_seconds=time_limit_seconds
        )

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
        on first iteration) as a caller bug.  One optimistic heuristic is
        built up front and shared by every run so the stream measures
        search time, not repeated reverse Dijkstras.
        """
        limits = [check_time_limit(limit) for limit in time_limits]
        if any(b <= a for a, b in zip(limits, limits[1:])):
            raise ValueError(
                "route_stream time limits must be strictly increasing; "
                "sort/deduplicate the sweep before streaming"
            )

        def stream() -> Iterator[RoutingResult]:
            heuristic = self.heuristic_for(query.target)
            for limit in limits:
                yield self._search.route(
                    query, time_limit_seconds=limit, heuristic=heuristic
                )

        return stream()
