"""Routing query/result value types and search statistics.

Everything a routing service exchanges with callers lives here: the
immutable :class:`RoutingQuery` (with explicit seconds-to-ticks conversion
through :meth:`RoutingQuery.from_seconds`), the :class:`SearchStats`
observability counters, and the answer types — :class:`RoutingResult` for
one query, :class:`MultiBudgetResult` for one source/target pair answered
over a whole budget vector, and :class:`KBestResult` for the top-k
non-dominated routes.  All are JSON-serialisable via ``to_dict`` /
``from_dict`` (each payload carries a ``kind`` tag;
:func:`result_from_dict` dispatches on it) so
:class:`~repro.routing.engine.RoutingEngine` responses are wire-ready.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator, Mapping

from ..histograms import DOMINANCE_TOL, DiscreteDistribution
from ..network import Edge, RoadNetwork

__all__ = [
    "MAX_BUDGET_TICKS",
    "RoutingQuery",
    "SearchStats",
    "RoutingResult",
    "MultiBudgetResult",
    "KBestResult",
    "DepartWhenResult",
    "budget_ticks_for_departure",
    "departure_budgets",
    "normalize_budgets",
    "normalize_departures",
    "result_from_dict",
]

#: Upper bound on a query budget in grid ticks.  Distribution CDF reads clamp
#: to probability 1 beyond the support, so a budget of, say, ``3.6e9`` (a
#: caller passing epoch seconds or milliseconds by mistake) would silently
#: answer "certain arrival" for every path.  Budgets beyond this bound are a
#: unit error, not a routing problem, and are rejected at construction.
MAX_BUDGET_TICKS = 10**9


def _as_grid_int(value: Any, name: str) -> int:
    """Validate one query field as a plain grid integer.

    Rejects bools (``True`` is an ``int`` subtype) and non-integral values —
    a float budget is almost always a seconds value that belongs in
    :meth:`RoutingQuery.from_seconds` instead of silently truncating.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        message = f"{name} must be an integer, got {value!r}"
        if name == "budget":
            message += (
                "; budgets in seconds go through "
                "RoutingQuery.from_seconds(..., resolution=...)"
            )
        raise TypeError(message)
    return int(value)


@dataclass(frozen=True)
class RoutingQuery:
    """Probabilistic budget routing query.

    Find the path from ``source`` to ``target`` maximising
    ``P(travel time <= budget)``; ``budget`` is in distribution grid ticks.
    """

    source: int
    target: int
    budget: int

    def __post_init__(self) -> None:
        # Normalise (e.g. numpy integers) to plain ints so queries hash,
        # compare and serialise uniformly.
        object.__setattr__(self, "source", _as_grid_int(self.source, "source"))
        object.__setattr__(self, "target", _as_grid_int(self.target, "target"))
        object.__setattr__(self, "budget", _as_grid_int(self.budget, "budget"))
        if self.source == self.target:
            raise ValueError("source and target must differ")
        if self.budget < 1:
            raise ValueError("budget must be >= 1 tick")
        if self.budget > MAX_BUDGET_TICKS:
            raise ValueError(
                f"budget of {self.budget} ticks exceeds the distribution grid "
                f"bound ({MAX_BUDGET_TICKS}); CDF reads would clamp to 1.0. "
                "Was a seconds/milliseconds value passed where ticks were "
                "expected?  Use RoutingQuery.from_seconds for unit-aware "
                "construction."
            )

    @classmethod
    def from_seconds(
        cls,
        source: int,
        target: int,
        budget_seconds: float,
        *,
        resolution: float,
    ) -> "RoutingQuery":
        """Build a query from a wall-clock budget in seconds.

        ``resolution`` is the distribution grid's tick size in seconds (the
        :class:`~repro.core.costs.EdgeCostTable` resolution).  The budget is
        floored onto the grid — ``P(cost <= budget)`` must never credit time
        beyond the stated deadline — and sub-tick budgets are rejected
        rather than rounded up to a full tick the caller never granted.
        """
        if not (isinstance(resolution, numbers.Real) and math.isfinite(resolution)):
            raise ValueError(f"resolution must be a finite number, got {resolution!r}")
        if resolution <= 0:
            raise ValueError("resolution must be positive seconds per tick")
        if not (
            isinstance(budget_seconds, numbers.Real) and math.isfinite(budget_seconds)
        ):
            raise ValueError(
                f"budget_seconds must be a finite number, got {budget_seconds!r}"
            )
        if budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        # The 1e-9 relative slack absorbs float division noise so exact
        # multiples of the resolution land on their own tick.
        ticks = int(math.floor(budget_seconds / float(resolution) * (1 + 1e-9)))
        if ticks < 1:
            raise ValueError(
                f"budget of {budget_seconds} s is below one grid tick "
                f"({resolution} s); the query cannot be represented on the "
                "distribution grid"
            )
        return cls(source, target, ticks)

    def to_dict(self) -> dict[str, int]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        return {"source": self.source, "target": self.target, "budget": self.budget}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoutingQuery":
        return cls(
            source=data["source"], target=data["target"], budget=data["budget"]
        )


def normalize_budgets(budgets: Iterable[Any]) -> tuple[int, ...]:
    """Validate a budget vector into an ascending, de-duplicated tick tuple.

    Every member passes the same integer/grid validation as
    :attr:`RoutingQuery.budget`; duplicates are collapsed because a
    multi-budget search answers each distinct budget exactly once.
    """
    values = [_as_grid_int(value, "budget") for value in budgets]
    if not values:
        raise ValueError("budgets must contain at least one tick budget")
    for value in values:
        if value < 1:
            raise ValueError("every budget must be >= 1 tick")
        if value > MAX_BUDGET_TICKS:
            raise ValueError(
                f"budget of {value} ticks exceeds the distribution grid bound "
                f"({MAX_BUDGET_TICKS}); see RoutingQuery.from_seconds for "
                "unit-aware construction"
            )
    return tuple(sorted(set(values)))


def normalize_departures(departure_times: Iterable[Any]) -> tuple[float, ...]:
    """Validate a departure window into an ascending, de-duplicated tuple.

    Departure times are wall-clock seconds (service-clock or seconds of
    day — the caller's axis); every member must be a finite real number.
    """
    if isinstance(departure_times, (str, bytes)):
        raise TypeError("departure_times must be a sequence of seconds values")
    values = []
    for value in departure_times:
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ValueError(
                f"departure times must be finite numbers, got {value!r}"
            )
        values.append(float(value))
    if not values:
        raise ValueError("departure_times must contain at least one time")
    return tuple(sorted(set(values)))


def budget_ticks_for_departure(
    departure_seconds: float, arrive_by_seconds: float, resolution: float
) -> int:
    """Tick budget for leaving at ``departure_seconds`` to arrive by
    ``arrive_by_seconds``.

    The remaining wall-clock window is floored onto the distribution grid
    with the same ``(1 + 1e-9)`` slack as :meth:`RoutingQuery.from_seconds`
    (``P(cost <= budget)`` must never credit time beyond the deadline).
    Returns 0 when the departure leaves no representable budget — the
    departure is infeasible, not an error.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive seconds per tick")
    window = float(arrive_by_seconds) - float(departure_seconds)
    if window <= 0:
        return 0
    ticks = int(math.floor(window / float(resolution) * (1 + 1e-9)))
    return max(0, ticks)


def departure_budgets(
    departures: Iterable[float], arrive_by_seconds: Any, resolution: float
) -> tuple[int, ...]:
    """Per-departure tick budgets toward one arrive-by deadline (0 = infeasible).

    The single place the deadline is validated: engine, strategy and service
    all derive their budget vectors here, so a non-finite, boolean or
    non-numeric ``arrive_by_seconds`` is the same ``ValueError`` (a wire
    ``bad_request``) on every entry point.
    """
    if (
        isinstance(arrive_by_seconds, bool)
        or not isinstance(arrive_by_seconds, numbers.Real)
        or not math.isfinite(arrive_by_seconds)
    ):
        raise ValueError(
            f"arrive_by_seconds must be a finite number, got {arrive_by_seconds!r}"
        )
    return tuple(
        budget_ticks_for_departure(departure, arrive_by_seconds, resolution)
        for departure in departures
    )


@dataclass
class SearchStats:
    """Observability counters for one PBR search (or one aggregated batch).

    ``pruned_by_bound`` counts individual labels rejected by the bound/pivot
    prunings; ``bound_terminations`` counts whole-search early exits (the
    best-first queue head could no longer beat the pivot, so the search is
    provably done).  The two are kept apart because they aggregate
    differently: summed across a batch, per-label prunes measure pruning
    *rates*, while terminations count at most one per member search.
    """

    labels_generated: int = 0
    labels_expanded: int = 0
    pruned_by_bound: int = 0
    pruned_by_dominance: int = 0
    pruned_unreachable: int = 0
    pivot_updates: int = 0
    bound_terminations: int = 0
    runtime_seconds: float = 0.0
    completed: bool = True

    @property
    def pruned_total(self) -> int:
        return self.pruned_by_bound + self.pruned_by_dominance + self.pruned_unreachable

    @classmethod
    def aggregate(cls, stats: Iterable["SearchStats"]) -> "SearchStats":
        """Sum counters/runtimes across searches (batch observability).

        ``completed`` is the conjunction: a batch only counts as complete
        when every member search ran to completion.  An empty iterable
        aggregates to zeroed counters with ``completed=True``.
        """
        total = cls()
        for item in stats:
            total.labels_generated += item.labels_generated
            total.labels_expanded += item.labels_expanded
            total.pruned_by_bound += item.pruned_by_bound
            total.pruned_by_dominance += item.pruned_by_dominance
            total.pruned_unreachable += item.pruned_unreachable
            total.pivot_updates += item.pivot_updates
            total.bound_terminations += item.bound_terminations
            total.runtime_seconds += item.runtime_seconds
            total.completed = total.completed and item.completed
        return total

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["pruned_total"] = self.pruned_total
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchStats":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass(frozen=True)
class RoutingResult:
    """Answer to one query.

    ``probability`` is the model's (combiner's) ``P(cost <= budget)`` for the
    returned path — the quantity PBR maximises.  ``path`` is empty only when
    the target is unreachable.
    """

    query: RoutingQuery
    path: tuple[Edge, ...]
    distribution: DiscreteDistribution | None
    probability: float
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return len(self.path) > 0

    @property
    def num_edges(self) -> int:
        return len(self.path)

    def path_vertices(self) -> list[int]:
        """Vertex sequence of the returned path."""
        if not self.path:
            return []
        return [self.path[0].source, *(edge.target for edge in self.path)]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation.

        Edges serialise as ids (the network is shared context, not payload);
        :meth:`from_dict` resolves them back against a network.  The cost
        distribution serialises as ``{offset, probs}``.
        """
        return {
            "kind": "route",
            "query": self.query.to_dict(),
            "path": [edge.id for edge in self.path],
            "path_vertices": self.path_vertices(),
            "distribution": (
                None if self.distribution is None else self.distribution.to_payload()
            ),
            "probability": float(self.probability),
            "found": self.found,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "RoutingResult":
        """Rebuild a result against ``network`` (edge ids -> edges)."""
        dist_data = data.get("distribution")
        distribution = (
            None
            if dist_data is None
            else DiscreteDistribution(
                dist_data["offset"], dist_data["probs"], normalize=False
            )
        )
        return cls(
            query=RoutingQuery.from_dict(data["query"]),
            path=tuple(network.edge(edge_id) for edge_id in data["path"]),
            distribution=distribution,
            probability=float(data["probability"]),
            stats=SearchStats.from_dict(data.get("stats", {})),
        )


@dataclass(frozen=True)
class MultiBudgetResult:
    """One source/target pair answered for a whole budget vector.

    A single label search produces every entry: ``results[i]`` is the best
    route for ``budgets[i]`` (its member query carries that budget), and the
    Pareto frontier work is shared across the vector instead of re-run per
    budget.  ``stats`` describes the one shared search; member results carry
    empty per-route stats.
    """

    query: RoutingQuery
    budgets: tuple[int, ...]
    results: tuple[RoutingResult, ...]
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        if len(self.budgets) != len(self.results):
            raise ValueError("budgets and results must align one-to-one")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly ascending")

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RoutingResult]:
        return iter(self.results)

    @property
    def found(self) -> bool:
        """True when at least one budget has a route."""
        return any(result.found for result in self.results)

    @property
    def probabilities(self) -> tuple[float, ...]:
        """Per-budget arrival probabilities, aligned with ``budgets``."""
        return tuple(result.probability for result in self.results)

    def items(self) -> Iterator[tuple[int, RoutingResult]]:
        """``(budget, result)`` pairs in ascending budget order."""
        return zip(self.budgets, self.results)

    def best_for(self, budget: int) -> RoutingResult:
        """The answer for one exact member budget (KeyError otherwise)."""
        for b, result in zip(self.budgets, self.results):
            if b == budget:
                return result
        raise KeyError(f"budget {budget} is not part of this result's vector")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see :func:`result_from_dict`)."""
        return {
            "kind": "multi_budget",
            "query": self.query.to_dict(),
            "budgets": list(self.budgets),
            "results": [result.to_dict() for result in self.results],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "MultiBudgetResult":
        return cls(
            query=RoutingQuery.from_dict(data["query"]),
            budgets=tuple(int(b) for b in data["budgets"]),
            results=tuple(
                RoutingResult.from_dict(item, network) for item in data["results"]
            ),
            stats=SearchStats.from_dict(data.get("stats", {})),
        )


@dataclass(frozen=True)
class KBestResult:
    """The top-k non-dominated routes at the target, best first.

    ``routes`` holds up to ``k`` complete routes whose arrival distributions
    form an antichain under weak stochastic dominance, ordered by descending
    ``P(cost <= budget)``.  Fewer than ``k`` entries means the target's
    frontier is genuinely smaller.  ``stats`` describes the one shared
    search; member results carry empty per-route stats.
    """

    query: RoutingQuery
    k: int
    routes: tuple[RoutingResult, ...]
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.routes) > self.k:
            raise ValueError("a k-best answer cannot hold more than k routes")

    def __len__(self) -> int:
        return len(self.routes)

    def __iter__(self) -> Iterator[RoutingResult]:
        return iter(self.routes)

    @property
    def found(self) -> bool:
        return bool(self.routes) and self.routes[0].found

    @property
    def best(self) -> RoutingResult | None:
        """The argmax route (what a plain ``pbr`` query would return)."""
        return self.routes[0] if self.routes else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see :func:`result_from_dict`)."""
        return {
            "kind": "kbest",
            "query": self.query.to_dict(),
            "k": self.k,
            "routes": [route.to_dict() for route in self.routes],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "KBestResult":
        return cls(
            query=RoutingQuery.from_dict(data["query"]),
            k=int(data["k"]),
            routes=tuple(
                RoutingResult.from_dict(item, network) for item in data["routes"]
            ),
            stats=SearchStats.from_dict(data.get("stats", {})),
        )


@dataclass(frozen=True)
class DepartWhenResult:
    """Best budget-reliability over a departure window ("leave when?").

    One entry per candidate departure time: ``results[i]`` is the best
    route when leaving at ``departures[i]`` with ``budgets[i]`` ticks of
    budget (0 budget marks an infeasible departure — at or past the
    arrival deadline — and pairs with a ``None`` result).  All feasible
    entries are answered by **one** shared label search
    (:meth:`~repro.routing.engine.RoutingEngine.route_multi_budget` under
    the hood): in arrive-by mode a later departure is just a smaller
    budget against the same cost table, so the Pareto frontier work is
    shared across the whole window.  ``query`` carries the largest
    feasible budget; ``stats`` describes the one shared search.
    """

    query: RoutingQuery
    departures: tuple[float, ...]
    budgets: tuple[int, ...]
    results: tuple[RoutingResult | None, ...]
    arrive_by_seconds: float | None = None
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        if not self.departures:
            raise ValueError("a depart_when answer needs at least one departure")
        if not (len(self.departures) == len(self.budgets) == len(self.results)):
            raise ValueError("departures, budgets and results must align")
        if any(b <= a for a, b in zip(self.departures, self.departures[1:])):
            raise ValueError("departures must be strictly ascending")
        for budget, result in zip(self.budgets, self.results):
            if (budget == 0) != (result is None):
                raise ValueError(
                    "infeasible departures (budget 0) pair with None results"
                )

    def __len__(self) -> int:
        return len(self.departures)

    def items(self) -> Iterator[tuple[float, int, RoutingResult | None]]:
        """``(departure, budget, result)`` triples in departure order."""
        return zip(self.departures, self.budgets, self.results)

    @property
    def found(self) -> bool:
        """True when at least one departure has a route."""
        return any(r is not None and r.found for r in self.results)

    @property
    def probabilities(self) -> tuple[float, ...]:
        """Per-departure arrival probabilities (0.0 for infeasible ones)."""
        return tuple(
            0.0 if r is None else r.probability for r in self.results
        )

    @property
    def best_index(self) -> int | None:
        """Index of the best departure, or ``None`` when nothing routes.

        Highest arrival probability wins; ties go to the *latest* departure
        — leaving later for the same reliability strictly dominates under an
        arrive-by deadline (and is a harmless deterministic pick in
        fixed-budget mode).  Probabilities within ``DOMINANCE_TOL`` of the
        highest count as tied: convolution sums make a certain arrival come
        out as 1.0 or 1.0000000000000002, and that noise must not buy an
        earlier departure.
        """
        found = [
            index
            for index, result in enumerate(self.results)
            if result is not None and result.found
        ]
        if not found:
            return None
        top = max(self.results[index].probability for index in found)
        return max(
            index
            for index in found
            if self.results[index].probability >= top - DOMINANCE_TOL
        )

    @property
    def best(self) -> RoutingResult | None:
        """The best departure's route, or ``None`` when nothing routes."""
        index = self.best_index
        return None if index is None else self.results[index]

    @property
    def best_departure(self) -> float | None:
        """The best departure time in seconds, or ``None``."""
        index = self.best_index
        return None if index is None else self.departures[index]

    @classmethod
    def merge(cls, parts: "Iterable[DepartWhenResult]") -> "DepartWhenResult":
        """Combine window fragments answered separately into one result.

        The serving layer splits a window by temporal regime (each
        fragment searches its own cost table) and merges the fragments
        back; all parts must agree on source/target and arrive-by
        deadline, and their departure sets must not overlap.  The merged
        ``query`` carries the largest member budget; stats aggregate.
        """
        members = sorted(parts, key=lambda p: p.departures[0])
        if not members:
            raise ValueError("merge needs at least one part")
        first = members[0]
        pairs = {(p.query.source, p.query.target) for p in members}
        if len(pairs) > 1:
            raise ValueError("cannot merge answers for different OD pairs")
        if len({p.arrive_by_seconds for p in members}) > 1:
            raise ValueError("cannot merge answers with different deadlines")
        triples = [t for p in members for t in p.items()]
        triples.sort(key=lambda t: t[0])
        departures = tuple(t[0] for t in triples)
        if any(b <= a for a, b in zip(departures, departures[1:])):
            raise ValueError("merged parts must cover disjoint departures")
        query = max((p.query for p in members), key=lambda q: q.budget)
        return cls(
            query=query,
            departures=departures,
            budgets=tuple(t[1] for t in triples),
            results=tuple(t[2] for t in triples),
            arrive_by_seconds=first.arrive_by_seconds,
            stats=SearchStats.aggregate(p.stats for p in members),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see :func:`result_from_dict`)."""
        return {
            "kind": "depart_when",
            "query": self.query.to_dict(),
            "departures": list(self.departures),
            "budgets": list(self.budgets),
            "results": [
                None if r is None else r.to_dict() for r in self.results
            ],
            "arrive_by_seconds": self.arrive_by_seconds,
            "best_index": self.best_index,
            "best_departure": self.best_departure,
            "found": self.found,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], network: RoadNetwork
    ) -> "DepartWhenResult":
        arrive_by = data.get("arrive_by_seconds")
        return cls(
            query=RoutingQuery.from_dict(data["query"]),
            departures=tuple(float(t) for t in data["departures"]),
            budgets=tuple(int(b) for b in data["budgets"]),
            results=tuple(
                None if item is None else RoutingResult.from_dict(item, network)
                for item in data["results"]
            ),
            arrive_by_seconds=None if arrive_by is None else float(arrive_by),
            stats=SearchStats.from_dict(data.get("stats", {})),
        )


def result_from_dict(
    data: Mapping[str, Any], network: RoadNetwork
) -> "RoutingResult | MultiBudgetResult | KBestResult | DepartWhenResult | Any":
    """Rebuild any serialised routing answer by its ``kind`` tag.

    Payloads without a tag are treated as plain :class:`RoutingResult`
    documents (the pre-tag wire format).  ``"batch"`` documents come back
    as :class:`~repro.routing.engine.BatchResult` (imported lazily — the
    engine module imports this one at load time).
    """
    kind = data.get("kind", "route")
    if kind == "multi_budget":
        return MultiBudgetResult.from_dict(data, network)
    if kind == "kbest":
        return KBestResult.from_dict(data, network)
    if kind == "depart_when":
        return DepartWhenResult.from_dict(data, network)
    if kind == "route":
        return RoutingResult.from_dict(data, network)
    if kind == "batch":
        from .engine import BatchResult

        return BatchResult.from_dict(data, network)
    raise ValueError(f"unknown routing result kind {kind!r}")
