"""Probabilistic Budget Routing — the paper's base algorithm.

Given source, destination and a time budget ``t``, find the path maximising
``P(arrival within t)``.  Best-first search over labels (partial paths with
cost distributions computed by any :class:`~repro.core.models.CostCombiner`),
with the paper's four prunings, each independently switchable for ablation:

(a) **optimistic heuristic** — an A*-inspired lower bound on remaining cost
    from a reverse Dijkstra over minimum edge times; labels that cannot reach
    the destination are dropped immediately;
(b) **pivot path** — the most promising complete path found so far; any
    label whose upper-bound probability cannot beat the pivot is pruned, and
    the search terminates when the best queued label cannot beat it either;
(c) **distribution cost shifting** — the upper bound shifts the label's
    distribution by the optimistic remaining cost before evaluating the
    budget CDF, tightening (a)+(b) substantially;
(d) **stochastic dominance** — per-vertex Pareto frontiers; a label
    first-order dominated by a previously kept label at the same vertex is
    discarded.

The **anytime extension** is the ``time_limit_seconds`` parameter: when the
wall clock expires the search stops and returns the pivot path (the paper's
"acceptable maximum run-time x" input).

One loop, two pivot policies
----------------------------
:meth:`_BudgetSearch._run` is the only scalar search loop.  ``route``,
``route_multi_budget`` and ``route_kbest`` differ solely in pruning (b) —
what "cannot beat the pivot" means — so each hands the loop a small policy
object (:class:`_BudgetVectorPivots`, of which scalar PBR is the one-element
case, or :class:`_KBestPivots`) and assembles its result type from what the
policy collected.  Budget vectors (``route`` included) run on the columnar
core of :mod:`repro.routing.columnar` instead when the search's backend
picks it; ``route_kbest`` always runs here.

Hot-path design (see PERFORMANCE.md)
------------------------------------
Labels are slotted parent-chain nodes with **no** per-label visited set: the
simple-path check walks the parent chain once per *expanded* label (bounded
by the path length) instead of copying a frozenset for every *generated*
label — most generated labels are pruned without ever being expanded.  Label
admission performs exactly one heuristic-table probe and one cached-CDF read,
and the reverse-Dijkstra heuristic itself is shared across queries through
:meth:`OptimisticHeuristic.shared`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, replace
from typing import Sequence

from ..core.models import CostCombiner
from ..histograms import DiscreteDistribution, ParetoFrontier, weakly_dominates
from ..network import Edge, RoadNetwork
from .heuristics import OptimisticHeuristic
from .query import (
    KBestResult,
    MultiBudgetResult,
    RoutingQuery,
    RoutingResult,
    SearchStats,
)

__all__ = ["PruningConfig"]

#: Anytime deadline granularity: inside a single expansion the wall clock is
#: re-checked every this-many *generated* labels.  Checking only per heap pop
#: let one high-out-degree vertex blow ``time_limit_seconds`` by a whole
#: expansion's admissions; checking every label would put a ``perf_counter``
#: call on the admission fast path.  An expansion's combines run as one block
#: before its admissions, so the worst overrun is 256 admissions (~tens of
#: microseconds) plus one expansion block, far below any serving deadline.
_DEADLINE_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class PruningConfig:
    """Which prunings the search applies (all on = the paper's algorithm)."""

    use_heuristic: bool = True
    use_pivot: bool = True
    use_cost_shifting: bool = True
    use_dominance: bool = True

    def __post_init__(self) -> None:
        if self.use_cost_shifting and not self.use_heuristic:
            raise ValueError("cost shifting requires the optimistic heuristic")


#: The optimistically fastest route and its cost distribution.
_Fallback = tuple[tuple[Edge, ...], DiscreteDistribution]


class _Label:
    """A partial path: head vertex, cost distribution, parent chain.

    The vertices on the label's own path are recovered by walking the parent
    chain (plus the query source), so extending a label allocates nothing
    beyond the label object itself.
    """

    __slots__ = ("vertex", "distribution", "edge", "parent")

    def __init__(
        self,
        vertex: int,
        distribution: DiscreteDistribution,
        edge: Edge | None,
        parent: "_Label | None",
    ) -> None:
        self.vertex = vertex
        self.distribution = distribution
        self.edge = edge
        self.parent = parent

    def path(self) -> tuple[Edge, ...]:
        edges: list[Edge] = []
        node: _Label | None = self
        while node is not None and node.edge is not None:
            edges.append(node.edge)
            node = node.parent
        edges.reverse()
        return tuple(edges)


def _answer(
    query: RoutingQuery,
    label: _Label | None,
    probability: float,
    fallback: _Fallback | None,
) -> RoutingResult:
    """One result: the arrived ``label``, else the fallback route, else none."""
    if label is not None:
        return RoutingResult(query, label.path(), label.distribution, probability)
    if fallback is None:
        return RoutingResult(query, (), None, 0.0)
    path, dist = fallback
    return RoutingResult(query, path, dist, dist.prob_within(query.budget))


class _BudgetVectorPivots:
    """Pivot policy for an ascending budget vector — one pivot per budget.

    A label survives while it can still improve the answer of *some*
    budget.  Scalar PBR is the one-element vector: ``prunable`` then reduces
    to the paper's ``bound <= pivot`` test without a single extra CDF read.
    """

    def __init__(self, budgets: tuple[int, ...]) -> None:
        self.budgets = budgets
        #: Labels fold at the largest budget (see ``_BudgetSearch._clip``);
        #: the CDF below it — all any smaller budget reads — is untouched.
        self.clip_budget = budgets[-1]
        #: Best complete probability per budget (-1 = no positive-probability
        #: arrival yet), and the label that achieved it.
        self.pivots = [-1.0] * len(budgets)
        self.best: list[_Label | None] = [None] * len(budgets)
        #: Termination threshold ``pivots[0] == min(pivots)``: the heap is
        #: ordered on the max-budget bound, every remaining label's bound at
        #: budget i is <= that, so at or below the floor no budget's answer
        #: can improve.
        self.floor = -1.0

    def prunable(self, dist: DiscreteDistribution, shift: int, bound: float) -> bool:
        """Can no budget's answer still be beaten by this label?

        ``bound`` is the label's (positive) bound at the largest budget.
        """
        pivots = self.pivots
        if bound > pivots[-1]:
            return False
        budgets = self.budgets
        for i in range(len(budgets) - 2, -1, -1):
            bound = dist.prob_within(budgets[i] - shift)
            if bound <= 0.0:
                # CDF monotone: smaller budgets bound even lower.
                return True
            if bound > pivots[i]:
                return False
        return True

    def arrive(self, label: _Label) -> bool:
        """Record a complete path; True when some budget's pivot improved."""
        dist = label.distribution
        budgets = self.budgets
        pivots = self.pivots
        improved = False
        for i in range(len(budgets) - 1, -1, -1):
            probability = dist.prob_within(budgets[i])
            if probability <= 0.0:
                break
            if probability > pivots[i]:
                pivots[i] = probability
                self.best[i] = label
                improved = True
        self.floor = pivots[0]
        return improved

    def unanswered(self) -> bool:
        return any(label is None for label in self.best)


class _KBestPivots:
    """Pivot policy for the top-``k`` search: an antichain of arrivals.

    The pruning threshold (``floor``) is the k-th largest *distinct* arrival
    probability (-1 until k distinct values exist).  Distinct values are what
    makes the threshold monotone and the pruning sound: an eviction replaces
    frontier members with an equal-probability dominator (arrivals pop in
    non-increasing probability order, so a dominator can never have a
    strictly higher budget probability than its victims), which can shrink
    the member count below k but never removes a probability value — so at
    least k frontier members >= threshold always survive.
    """

    #: No folding: see :meth:`_BudgetSearch.route_kbest`.
    clip_budget = None

    def __init__(self, k: int, budget: int) -> None:
        self.k = k
        self.budget = budget
        #: Non-dominated complete arrivals: (label, probability) pairs.
        self.candidates: list[tuple[_Label, float]] = []
        self.floor = -1.0

    def prunable(self, dist: DiscreteDistribution, shift: int, bound: float) -> bool:
        """Can this label no longer crack the top k?"""
        return bound <= self.floor

    def arrive(self, label: _Label) -> bool:
        """Offer a complete path to the antichain; True when it was kept."""
        dist = label.distribution
        candidates = self.candidates
        if any(weakly_dominates(kept.distribution, dist) for kept, _ in candidates):
            return False
        candidates[:] = [
            (kept, p)
            for kept, p in candidates
            if not weakly_dominates(dist, kept.distribution)
        ]
        candidates.append((label, dist.prob_within(self.budget)))
        distinct = sorted({p for _, p in candidates}, reverse=True)
        if len(distinct) >= self.k:
            self.floor = distinct[self.k - 1]
        return True

    def unanswered(self) -> bool:
        return not self.candidates


class _BudgetSearch:
    """Best-first PBR search over any cost combiner (engine internal).

    The search explores simple paths (no vertex revisits within a label's
    own path) — with non-negative travel times a revisit can never increase
    the arrival probability.

    This class is the implementation behind the public
    :class:`~repro.routing.engine.RoutingEngine` facade; external callers
    should go through the engine, which owns the shared heuristic state and
    exposes the strategy registry, batch and streaming modes.
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
        #: Search-core selection for ``route`` and ``route_multi_budget``
        #: (``kbest`` always runs the scalar loop).
        #: ``"scalar"`` is the label-at-a-time reference core; ``"columnar"``
        #: forces the generation-at-a-time numpy core (raises when the
        #: combiner cannot support it); ``"auto"`` picks columnar only on
        #: networks large enough for the batched kernels to pay for their
        #: setup, so small worlds (and every golden fixture) keep the scalar
        #: core's exploration order bit for bit.
        self.backend = backend
        #: When set, the columnar core derives its lower bounds from a
        #: ``k``-landmark ALT table (built once per cost-table version and
        #: shared across *all* targets) instead of the per-target reverse
        #: Dijkstra.  Weaker bounds, no per-target setup cost.
        self.landmarks = landmarks
        #: Debug knob for the clip-boundary equivalence suite: ``False``
        #: disables `_clip` so searches run on full, unfolded distributions.
        self.clip_distributions = clip_distributions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _clip(
        self, dist: DiscreteDistribution, budget: int | None
    ) -> DiscreteDistribution:
        """Fold all mass beyond ``budget`` into one cell (``None`` = never fold).

        Exact for the objective *under convolution*: mass above the budget
        contributes nothing to ``P(cost <= budget)`` wherever it sits, and
        folding both operands of any dominance comparison at the same
        boundary preserves the CDF comparison below it.  Learned combiners
        extract features from the label distribution, so folding would
        corrupt their inputs — clipping is skipped unless the combiner
        declares ``exact_under_truncation``.
        """
        if (
            budget is None
            or not self.combiner.exact_under_truncation
            or not self.clip_distributions
        ):
            return dist
        max_support = budget + 2 - dist.offset
        if max_support < 1:
            # Entire support is beyond the budget; keep a single cell.
            return dist.truncate(1)
        return dist.truncate(max_support)

    def _columnar_applicable(self, query: RoutingQuery) -> bool:
        """Whether this budget-vector query (``query.budget`` is the vector's
        maximum) should run on the columnar core.

        The columnar core needs a combiner whose ``combine`` is a plain
        convolution (``vectorized_convolution``), a bounded budget window for
        its dense rows, and clipping enabled (the dense window *is* the
        clip).  Under ``"auto"`` it additionally requires a network large
        enough that the batched kernels beat the scalar loop's lower setup
        cost — which also keeps every small-world test and golden fixture on
        the scalar core's exact exploration order.
        """
        from .columnar import COLUMNAR_AUTO_MIN_EDGES, COLUMNAR_MAX_WINDOW

        if self.backend == "scalar":
            return False
        capable = (
            getattr(self.combiner, "vectorized_convolution", False)
            and self.clip_distributions
            and query.budget + 2 <= COLUMNAR_MAX_WINDOW
        )
        if self.backend == "columnar":
            if not capable:
                raise ValueError(
                    "backend='columnar' requires a vectorized-convolution "
                    "combiner, clipping enabled, and "
                    f"budget + 2 <= {COLUMNAR_MAX_WINDOW}"
                )
            return True
        return capable and self.network.num_edges >= COLUMNAR_AUTO_MIN_EDGES

    # ------------------------------------------------------------------
    # The one label-search loop
    # ------------------------------------------------------------------

    def _run(
        self,
        query: RoutingQuery,
        policy: "_BudgetVectorPivots | _KBestPivots",
        time_limit_seconds: float | None,
        heuristic: OptimisticHeuristic | None,
    ) -> tuple[SearchStats, _Fallback | None]:
        """Best-first label search; ``policy`` owns the pivot rule.

        The loop owns everything the three public searches share — heap,
        admission (deadline tick, heuristic probe, cost-shifted bound,
        dominance frontier), the pop/terminate/expand cycle and the
        simple-path walk — and asks ``policy`` only what "cannot beat the
        pivot" means (see :class:`_BudgetVectorPivots`, :class:`_KBestPivots`).
        Arrivals accumulate on ``policy``; the return value is the search's
        stats plus the optimistically fastest route when the policy was left
        without an answer (``None`` when not needed or no route exists).
        """
        start_time = time.perf_counter()
        stats = SearchStats()
        if heuristic is None:
            heuristic = OptimisticHeuristic.shared(
                self.network, self.combiner.costs, query.target
            )
        h_table = heuristic.table

        if query.source not in h_table:
            stats.runtime_seconds = time.perf_counter() - start_time
            return stats, None

        pruning = self.pruning
        use_heuristic = pruning.use_heuristic
        use_pivot = pruning.use_pivot
        use_cost_shifting = pruning.use_cost_shifting
        use_dominance = pruning.use_dominance
        budget = query.budget
        target = query.target
        clip_budget = policy.clip_budget
        prunable = policy.prunable

        frontiers: dict[int, ParetoFrontier] = {}
        counter = itertools.count()
        heap: list[tuple[float, int, _Label, int]] = []
        heappush = heapq.heappush
        deadline = (
            None
            if time_limit_seconds is None
            else start_time + time_limit_seconds
        )
        expired = False

        def consider(label: _Label) -> None:
            """Apply admission prunings and push the label."""
            nonlocal expired
            stats.labels_generated += 1
            if (
                deadline is not None
                and stats.labels_generated % _DEADLINE_CHECK_INTERVAL == 0
                and time.perf_counter() > deadline
            ):
                # Re-check the clock *inside* the expansion so one
                # high-out-degree vertex cannot blow the anytime deadline by
                # a whole expansion; the flag stops the enclosing edge loop.
                expired = True
                return
            vertex = label.vertex
            dist = label.distribution
            shift = 0
            if use_heuristic:
                remaining = h_table.get(vertex)
                if remaining is None:
                    stats.pruned_unreachable += 1
                    return
                if use_cost_shifting:
                    shift = int(remaining)
            bound = dist.prob_within(budget - shift)
            if bound <= 0.0 or (use_pivot and prunable(dist, shift, bound)):
                stats.pruned_by_bound += 1
                return
            if use_dominance and vertex != target:
                frontier = frontiers.get(vertex)
                if frontier is None:
                    frontier = ParetoFrontier()
                    frontiers[vertex] = frontier
                if not frontier.add(dist):
                    stats.pruned_by_dominance += 1
                    return
            heappush(heap, (-bound, next(counter), label, shift))

        for edge in self.network.out_edges(query.source):
            if expired:
                break
            if edge.target == query.source:
                continue
            dist = self._clip(self.combiner.edge_cost(edge), clip_budget)
            consider(_Label(edge.target, dist, edge, None))

        out_edges = self.network.out_edges
        combine_edges = self.combiner.combine_edges
        while heap:
            if expired or (
                deadline is not None and time.perf_counter() > deadline
            ):
                expired = True
                break
            neg_bound, _, label, shift = heapq.heappop(heap)
            bound = -neg_bound
            if use_pivot and bound <= policy.floor:
                # Best-first order: nothing left can beat the pivot(s).
                stats.bound_terminations += 1
                break
            if label.vertex == target:
                if policy.arrive(label):
                    stats.pivot_updates += 1
                continue
            if use_pivot and prunable(label.distribution, shift, bound):
                # Pivots may have moved since this label was queued.
                stats.pruned_by_bound += 1
                continue
            stats.labels_expanded += 1
            # Simple-path constraint: collect this label's path vertices by
            # one parent-chain walk (cost bounded by path length), shared by
            # every outgoing edge below.
            path_vertices = {query.source}
            node: _Label | None = label
            while node is not None:
                path_vertices.add(node.vertex)
                node = node.parent
            # One combiner call per expansion: learned combiners share one
            # feature matrix and one model pass across the block.
            edges = [e for e in out_edges(label.vertex) if e.target not in path_vertices]
            for edge, combined in zip(edges, combine_edges(label.distribution, edges)):
                if expired:
                    break
                combined = self._clip(combined, clip_budget)
                consider(_Label(edge.target, combined, edge, label))

        stats.completed = not expired
        stats.runtime_seconds = time.perf_counter() - start_time
        # No complete path beat probability 0 within the budget (or the
        # anytime limit fired before any arrival) — fall back to the
        # optimistically fastest path so callers always get a route.
        fallback = (
            self._fallback_route(query.source, query.target)
            if policy.unanswered()
            else None
        )
        return stats, fallback

    def _fallback_route(self, source: int, target: int) -> _Fallback | None:
        """The optimistically fastest path and its cost, or None if none."""
        from ..network.paths import shortest_path

        try:
            path = shortest_path(
                self.network,
                source,
                target,
                weight=lambda edge: float(self.combiner.costs.min_ticks(edge)),
            )
        except ValueError:
            return None
        from ..core.path_cost import path_cost

        return tuple(path), path_cost(self.combiner, path)

    def _budget_vector(
        self,
        query: RoutingQuery,
        budgets: tuple[int, ...],
        time_limit_seconds: float | None,
        heuristic: OptimisticHeuristic | None,
    ) -> tuple[SearchStats, tuple[RoutingResult, ...]]:
        """One search over an ascending budget vector, on either core.

        Returns the search's stats and one result per budget; member
        results carry empty stats.
        """
        if self._columnar_applicable(query):
            from .columnar import columnar_route

            return columnar_route(
                self,
                query,
                budgets,
                time_limit_seconds=time_limit_seconds,
                heuristic=heuristic,
            )
        policy = _BudgetVectorPivots(budgets)
        stats, fallback = self._run(query, policy, time_limit_seconds, heuristic)
        return stats, tuple(
            _answer(
                query if b == query.budget else RoutingQuery(query.source, query.target, b),
                label,
                p,
                fallback,
            )
            for b, label, p in zip(budgets, policy.best, policy.pivots)
        )

    # ------------------------------------------------------------------
    # Public searches: a pivot policy plus result assembly
    # ------------------------------------------------------------------

    def route(
        self,
        query: RoutingQuery,
        *,
        time_limit_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> RoutingResult:
        """Answer one query; ``time_limit_seconds`` enables anytime mode.

        Always returns a result: the optimal path when the search ran to
        completion (``stats.completed``), the pivot path when the anytime
        limit expired, and an empty path when the target is unreachable.

        ``heuristic`` lets callers inject a pre-built (shared) optimistic
        heuristic for the query target; by default one is taken from the
        cost table's :meth:`OptimisticHeuristic.shared` cache, so repeated
        queries to one destination pay for the reverse Dijkstra once.

        Depending on :attr:`backend`, the query is answered by the scalar
        label-at-a-time loop (as the one-element budget vector) or by the
        batched generation-at-a-time core in :mod:`repro.routing.columnar`
        (same probabilities to 2e-12; routes identical up to
        equal-probability ties).
        """
        stats, (result,) = self._budget_vector(
            query, (query.budget,), time_limit_seconds, heuristic
        )
        return replace(result, stats=stats)

    def route_multi_budget(
        self,
        query: RoutingQuery,
        budgets: Sequence[int],
        *,
        time_limit_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> MultiBudgetResult:
        """Answer one source/target pair for a whole budget vector at once.

        A single label search serves every budget: per-vertex Pareto
        frontiers (dominance is budget-independent), the optimistic
        heuristic and every convolution are shared, while the pivot pruning
        generalises to a per-budget pivot vector — a label survives when it
        can still improve the answer of *some* budget.  Per-budget answers
        match independent :meth:`route` runs (identical probabilities; routes
        identical up to equal-probability ties, which the two exploration
        orders may break differently).  The vector runs on whichever core
        :meth:`route` would pick for ``query`` (:meth:`route` *is* the
        one-element vector); the columnar core agrees with the scalar loop
        per budget to 2e-12.

        ``budgets`` must be ascending, unique, with ``budgets[-1] ==
        query.budget``; the ``multi_budget`` strategy checks that
        (:func:`~repro.routing.query.normalize_budgets`).
        """
        budgets = tuple(budgets)
        stats, results = self._budget_vector(
            query, budgets, time_limit_seconds, heuristic
        )
        return MultiBudgetResult(
            query=query, budgets=budgets, results=results, stats=stats
        )

    def route_kbest(
        self,
        query: RoutingQuery,
        k: int,
        *,
        time_limit_seconds: float | None = None,
        heuristic: OptimisticHeuristic | None = None,
    ) -> KBestResult:
        """The top-``k`` non-dominated routes at the target, best first.

        The search is the PBR best-first label search with one change: the
        pivot pruning threshold is the k-th best arrival probability among
        the current target frontier (instead of the single best), so every
        route that can still enter the top k stays alive.  Complete arrivals
        are kept as an antichain under weak stochastic dominance — a route
        whose arrival distribution is dominated offers no budget at which it
        would be the better choice, mirroring the interior dominance pruning.

        Unlike :meth:`route`, this search runs on *unclipped* distributions:
        folding mass beyond the budget is exact for the single-budget
        objective, but dominance on folded distributions only compares CDFs
        inside the window — a strictly stronger relation that would evict
        antichain members which are merely better *beyond* the queried
        budget, returning a different route set than the unclipped search
        (see tests/routing/test_clip_boundary.py).

        With ``k == 1`` the answer's single route carries the same maximal
        probability as :meth:`route`.  ``k >= 1`` is the ``kbest``
        strategy's check.
        """
        policy = _KBestPivots(k, query.budget)
        stats, fallback = self._run(query, policy, time_limit_seconds, heuristic)
        # Stable sort: equal probabilities stay in arrival order.
        ranked = sorted(policy.candidates, key=lambda kept: -kept[1])[:k]
        routes = tuple(_answer(query, label, p, None) for label, p in ranked)
        if not routes and fallback is not None:
            routes = (_answer(query, None, 0.0, fallback),)
        return KBestResult(query=query, k=k, routes=routes, stats=stats)
