"""Columnar generation-at-a-time PBR search core.

The scalar core in :mod:`repro.routing.budget` pops one label at a time from
a best-first heap; every convolution, CDF read and dominance check is a
separate Python call.  This module answers the same queries over an
ascending budget vector — ``route_multi_budget`` and ``depart_when``, with
single-budget ``route`` as the one-element vector, exactly as the scalar loop
treats it — by expanding **whole frontier generations at once**:

* every label is a dense pmf row on the absolute tick grid ``[0, W)`` with
  ``W = max(budgets) + 2`` — the window *is* the scalar core's ``_clip`` at
  ``clip_budget`` (head ticks exact, all mass at or beyond ``max(budgets) +
  1`` folded into the last cell), so every smaller budget's CDF read is
  untouched;
* a generation's children are produced by one batched shift-convolution of
  the parent block against the per-edge kernel block
  (:func:`repro.histograms.operations.batched_window_convolve`), chunked to
  bound peak memory;
* bound/pivot screening is a matrix CDF read, one column per budget: a label
  survives while some budget's bound is positive and beats that budget's
  pivot (``_BudgetVectorPivots.prunable``, vectorised); stochastic dominance
  against resident frontier rows is one batched matrix comparison per chunk
  (:func:`repro.histograms.dominance.cdf_dominance_matrix` over every vertex
  group's block) followed by a bitmask replay of
  :class:`~repro.histograms.ParetoFrontier.add` semantics sequentially per
  vertex group — budget-independent, so shared by the whole vector;
* labels live in an arena of parallel numpy arrays (vertex, parent index,
  edge id) instead of Python ``_Label`` chains — only the current
  generation's pmf rows are kept;
* the simple-path check is a lockstep vectorized walk up the parent chains;
* lower bounds come from the exact per-target
  :class:`~repro.routing.heuristics.OptimisticHeuristic` or, when the search
  was built with ``landmarks=k``, from a
  :class:`~repro.routing.landmarks.LandmarkTable` computed once per
  cost-table version and shared across **all** targets.

Because every pruning it applies is sound and it runs to exhaustion, the
columnar core returns the same maximal probability per budget as the scalar
core (to float accumulation order, < 2e-12) and the same route up to
equal-probability ties; `tests/routing/test_columnar_parity.py` locks this
over random worlds for every pruning combination.  ``kbest`` stays on the
scalar loop: its antichain needs unclipped dominance, and a window row is
clipped by construction.

The generation order differs from the scalar core's best-first order in one
beneficial way: a generation's target arrivals raise the pivot *before* its
interior labels are screened, so the columnar core prunes at least as hard
as the scalar core for the same pivot state.
"""

from __future__ import annotations

import time

import numpy as np

from ..histograms import DiscreteDistribution
from ..histograms.dominance import cdf_dominance_matrix
from ..histograms.operations import batched_window_convolve, trim_window_rows
from .budget import _fallback_route
from .heuristics import OptimisticHeuristic, vertex_indexing
from .query import RoutingQuery, RoutingResult, SearchStats

__all__ = [
    "columnar_route",
    "COLUMNAR_AUTO_MIN_EDGES",
    "COLUMNAR_MAX_WINDOW",
]

#: Under ``backend="auto"`` the columnar core only takes over on networks at
#: least this large; below it the scalar core's lower setup cost wins and —
#: just as importantly — every small-world test and golden fixture keeps the
#: scalar core's exact exploration order.
COLUMNAR_AUTO_MIN_EDGES = 2000

#: Upper bound on the dense window width ``budget + 2``.  Beyond this the
#: per-label rows stop fitting caches and the scalar core's sparse
#: distributions are the better representation.
COLUMNAR_MAX_WINDOW = 4096

#: Peak bytes for one expansion chunk's row block; the chunk row count is
#: derived from the window width.
_CHUNK_BYTES = 32 << 20

#: Best-bound labels dived per generation (see the incumbent-diving block
#: in :func:`columnar_route`).  Each dive costs one dot product plus any
#: not-yet-memoised suffix convolutions along its descent; a handful per
#: generation is enough to chase the scalar core's pivot trajectory.
_DIVES_PER_GENERATION = 4


class _Csr:
    """Compressed out-adjacency over a dense vertex indexing.

    Vertices are indexed by :func:`~repro.routing.heuristics.vertex_indexing`
    (the lower-bound vectors' indexing); per-vertex edge runs keep
    the network's ``out_edges`` order so the columnar core generates children
    in the same per-vertex order as the scalar loop.
    """

    __slots__ = (
        "index_of",
        "indptr",
        "edge_ids",
        "edge_target",
        "num_vertices",
    )

    def __init__(self, network) -> None:
        order, self.index_of = vertex_indexing(network)
        num = len(order)
        self.num_vertices = num
        indptr = np.zeros(num + 1, dtype=np.int64)
        edge_ids: list[int] = []
        edge_target: list[int] = []
        for i, vertex in enumerate(order):
            out = network.out_edges(vertex)
            indptr[i + 1] = indptr[i] + len(out)
            for edge in out:
                edge_ids.append(edge.id)
                edge_target.append(self.index_of[edge.target])
        self.indptr = indptr
        self.edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self.edge_target = np.asarray(edge_target, dtype=np.int64)


class _EdgeKernels:
    """All edge cost pmfs as one (offsets, probs, totals) block, by edge id."""

    __slots__ = ("offsets", "probs", "totals", "min_ticks")

    def __init__(self, network, combiner) -> None:
        dists = [combiner.edge_cost(edge) for edge in network.edges]
        support = max((d.support_size for d in dists), default=1)
        count = len(dists)
        self.offsets = np.fromiter(
            (d.offset for d in dists), dtype=np.int64, count=count
        )
        self.probs = np.zeros((count, support), dtype=np.float64)
        self.totals = np.empty(count, dtype=np.float64)
        for i, dist in enumerate(dists):
            self.probs[i, : dist.support_size] = dist.probs
            self.totals[i] = float(dist.cdf()[-1])
        #: Minimum possible ticks per edge — the weight the lower-bound
        #: tables are built on.
        self.min_ticks = self.offsets + np.argmax(self.probs > 0.0, axis=1)


def _csr_for(network) -> _Csr:
    """One CSR per topology version, on the network's holder."""
    return network.derived().get("csr", lambda: _Csr(network))


def _kernels_for(network, combiner) -> _EdgeKernels:
    """One kernel block per published cost-table cell, on the table's holder."""
    return combiner.costs.derived(network).get(
        "edge_kernels", lambda: _EdgeKernels(network, combiner)
    )


class _LabelArena:
    """Parallel (vertex, parent, edge) arrays with amortised doubling."""

    __slots__ = ("vertex", "parent", "edge", "count")

    def __init__(self) -> None:
        cap = 1024
        self.vertex = np.empty(cap, dtype=np.int64)
        self.parent = np.empty(cap, dtype=np.int64)
        self.edge = np.empty(cap, dtype=np.int64)
        self.count = 0

    def append(
        self, vertices: np.ndarray, parents: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        n = vertices.size
        need = self.count + n
        cap = self.vertex.size
        if need > cap:
            while cap < need:
                cap *= 2
            for name in ("vertex", "parent", "edge"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=np.int64)
                grown[: self.count] = old[: self.count]
                setattr(self, name, grown)
        ids = np.arange(self.count, need, dtype=np.int64)
        self.vertex[self.count : need] = vertices
        self.parent[self.count : need] = parents
        self.edge[self.count : need] = edges
        self.count = need
        return ids


class _FrontierStore:
    """Resident Pareto-frontier CDF rows for every vertex, in one matrix.

    Rows are allocated from a free list (evicted rows are reused), so live
    memory tracks the frontier size — the sum of per-vertex antichain sizes —
    rather than every label ever admitted.
    """

    __slots__ = ("matrix", "_free", "by_vertex")

    def __init__(self, width: int) -> None:
        cap = 256
        self.matrix = np.empty((cap, width), dtype=np.float64)
        self._free = list(range(cap - 1, -1, -1))
        self.by_vertex: dict[int, list[int]] = {}

    def allocate(self, vertex: int, count: int) -> list[int]:
        """Move ``count`` rows from the free list to ``vertex``'s residents
        and return them; the caller fills them once it has made every
        allocation (growing replaces ``matrix``)."""
        free = self._free
        while len(free) < count:
            cap = self.matrix.shape[0]
            grown = np.empty((cap * 2, self.matrix.shape[1]), dtype=np.float64)
            grown[:cap] = self.matrix
            self.matrix = grown
            free[:0] = range(cap * 2 - 1, cap - 1, -1)
        rows = free[len(free) - count :]
        del free[len(free) - count :]
        self.by_vertex.setdefault(vertex, []).extend(rows)
        return rows

    def evict(self, vertex: int, rows: list[int]) -> None:
        live = self.by_vertex[vertex]
        for i in rows:
            live.remove(i)
            self._free.append(i)


def _admit_chunk(
    store: _FrontierStore,
    cdf: np.ndarray,
    candidates: np.ndarray,
    vertices: np.ndarray,
) -> np.ndarray:
    """Admit one chunk's candidates into the frontier, ParetoFrontier-style.

    ``candidates`` index rows of ``cdf`` in generation order; ``vertices``
    holds each one's vertex.  Per vertex, the candidates replay
    :meth:`ParetoFrontier.add` in order: one is rejected when a *live* row —
    a resident, or an earlier candidate still kept — weakly dominates it, and
    an admitted one evicts every live row it weakly dominates.  Returns the
    admitted mask over ``candidates``; an admitted-then-evicted candidate
    stays admitted (it was already queued for expansion — exactly the scalar
    core's behaviour, where eviction never reaches the heap).  A copy of a
    row already kept is rejected by it (weak dominance is reflexive), and a
    copy of a rejected row re-tests the live state like any other candidate.

    Vertices are independent (each has its own frontier), so the screen runs
    for the whole chunk before any replay.  Each vertex group's block is its
    candidates, then its residents; groups are bucketed by block size
    rounded up to a power of two (padding at most doubles a side), and each
    bucket is one :func:`cdf_dominance_matrix` call over the columns
    ``[lo - 1, stop)``, which give the full-width verdicts:

    * ``lo`` is the chunk's earliest candidate support tick.  Below it every
      candidate CDF is exactly zero, so any row dominates a candidate there,
      and a candidate dominates a resident there iff the resident's CDF is
      within tolerance of zero — which, CDFs being monotone, column
      ``lo - 1`` alone decides;
    * past the last column where some row is short of its plateau (its last
      column), every row is constant, so column ``stop - 1`` speaks for the
      rest.

    The replay runs on Python ints, one bit per block position: the live set
    is a bitmask, a candidate is rejected when the mask of rows dominating it
    meets the live set, and an admitted one clears the rows it dominates.
    """
    count = candidates.size
    order = np.argsort(vertices, kind="stable")
    rows = candidates[order].tolist()
    verts = vertices[order].tolist()
    # (vertex, first sorted position, candidate count, resident rows).
    groups = []
    a = 0
    for b in range(1, count + 1):
        if b == count or verts[b] != verts[a]:
            groups.append((verts[a], a, b - a, store.by_vertex.get(verts[a]) or []))
            a = b

    # A group whose block is a single row needs no screen: that row
    # dominates only itself.  The others read their blocks by slot from one
    # source — the chunk's candidates in sorted order, then residents.
    masks: list[tuple[list[int], list[int]] | None] = [None] * len(groups)
    buckets: dict[int, list[tuple[int, int]]] = {}
    res_rows: list[int] = []
    for g, (_, _, size, residents) in enumerate(groups):
        if residents or size > 1:
            size += len(residents)
            span = 1 << (size - 1).bit_length()
            buckets.setdefault(span, []).append((g, len(res_rows)))
            res_rows += residents
    if buckets:
        source = cdf[rows]
        start = max(int(np.argmax((source > 0.0).any(axis=0))) - 1, 0)
        if res_rows:
            source = np.concatenate((source, store.matrix[res_rows]))
        short = np.flatnonzero((source != source[:, -1:]).any(axis=0))
        stop = int(short[-1]) + 2 if short.size else 1
        for size, members in buckets.items():
            slots: list[int] = []
            for g, r in members:
                _, a, nu, residents = groups[g]
                slots += range(a, a + nu)
                slots += range(count + r, count + r + len(residents))
                slots += [a] * (size - nu - len(residents))
            block = source[slots, start:stop].reshape(len(members), size, -1)
            dom = cdf_dominance_matrix(block, block)
            for (g, _), col, row in zip(
                members, _bit_rows(dom.transpose(0, 2, 1)), _bit_rows(dom)
            ):
                masks[g] = (col, row)

    lone = ([1], [1])
    admitted: list[int] = []
    dst: list[int] = []
    src: list[int] = []
    for (vertex, a, nu, residents), screen in zip(groups, masks):
        dominated_by, dominates = screen or lone
        everyone = (1 << len(residents)) - 1
        live = everyone << nu
        kept: list[int] = []
        for u in range(nu):
            if dominated_by[u] & live:
                continue
            evicted = dominates[u] & live
            if evicted:
                live ^= evicted
                if evicted & ((1 << nu) - 1):
                    kept = [w for w in kept if not evicted >> w & 1]
            live |= 1 << u
            kept.append(u)
            admitted.append(a + u)
        if live >> nu != everyone:
            store.evict(
                vertex, [r for i, r in enumerate(residents) if not live >> (nu + i) & 1]
            )
        if kept:
            dst += store.allocate(vertex, len(kept))
            src += [rows[a + u] for u in kept]
    if dst:
        store.matrix[dst] = cdf[src]
    mask = np.zeros(count, dtype=bool)
    mask[order[admitted]] = True
    return mask


def _bit_rows(bits: np.ndarray) -> list:
    """``bits[..., i, :]`` as Python ints, bit ``k`` read from column ``k``:
    one machine word per row up to 64 columns, the row's bytes beyond."""
    packed = np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little"))
    step = packed.shape[-1]
    if step in (1, 2, 4, 8):
        return packed.view(f"<u{step}")[..., 0].tolist()
    return [[int.from_bytes(row.tobytes(), "little") for row in part] for part in packed]


def columnar_route(
    engine,
    query: RoutingQuery,
    budgets: tuple[int, ...],
    time_limit_seconds: float | None,
) -> tuple[SearchStats, tuple[RoutingResult, ...]]:
    """Answer one query over an ascending budget vector, generation at a time.

    ``budgets[-1] == query.budget``; single-budget ``route`` is the
    one-element vector.  Returns the one search's stats and one result per
    budget — its own arrival chain, its own dive path, or the shared
    fallback route — with empty member stats, as the scalar loop's are.
    ``engine`` is the :class:`~repro.routing.engine.RoutingEngine` whose
    network, combiner, pruning and landmarks the search reads; dispatch
    (combiner capability, backend selection, window bounds) already
    happened in :func:`~repro.routing.budget.search_vector`.
    """
    start_time = time.perf_counter()
    stats = SearchStats()
    network = engine.network
    combiner = engine.combiner
    pruning = engine.pruning
    budget = query.budget
    width = budget + 2
    budget_cols = np.asarray(budgets, dtype=np.int64)
    member_queries = [
        query if b == budget else RoutingQuery(query.source, query.target, b)
        for b in budgets
    ]

    csr = _csr_for(network)
    kernels = _kernels_for(network, combiner)
    source_i = csr.index_of[query.source]
    target_i = csr.index_of[query.target]

    if engine.landmarks:
        from .landmarks import LandmarkTable

        table = LandmarkTable.shared(
            network, combiner.costs, k=engine.landmarks
        )
        bounds = table.bounds_to(query.target)
    else:
        bounds = OptimisticHeuristic.shared(
            network, combiner.costs, query.target
        ).bounds

    if not np.isfinite(bounds[source_i]):
        # Provably unreachable (exact heuristic: not settled by the reverse
        # Dijkstra; landmarks: a triangle-inequality unreachability proof).
        stats.completed = True
        stats.runtime_seconds = time.perf_counter() - start_time
        return stats, tuple(RoutingResult(m, (), None, 0.0) for m in member_queries)

    use_heuristic = pruning.use_heuristic
    use_pivot = pruning.use_pivot
    use_cost_shifting = pruning.use_cost_shifting
    use_dominance = pruning.use_dominance
    reachable = np.isfinite(bounds)
    shift = np.where(reachable, bounds, 0.0).astype(np.int64)

    deadline = (
        None if time_limit_seconds is None else start_time + time_limit_seconds
    )
    expired = False

    arena = _LabelArena()
    store = _FrontierStore(width) if use_dominance else None

    #: Best complete probability per budget (-1 = none yet), and what
    #: achieved it: an arrival ``(parent id, edge id, row)`` or a dive
    #: ``(label id, vertex, None)`` — the label's chain plus the descent.
    pivots = [-1.0] * len(budgets)
    answers: list[tuple | None] = [None] * len(budgets)
    pivot_pruned_in_gen = False

    def beats_pivots(label_bounds: np.ndarray) -> np.ndarray:
        """Labels with some budget whose positive bound beats its pivot —
        ``_BudgetVectorPivots.prunable``, negated and vectorised, largest
        budget first (one column-wise pass per budget; the one-element
        vector pays no reduction)."""
        beats = label_bounds[:, -1] > max(pivots[-1], 0.0)
        for i in range(len(pivots) - 1):
            beats |= label_bounds[:, i] > max(pivots[i], 0.0)
        return beats

    # ------------------------------------------------------------------
    # Incumbent seeding and diving (branch and bound).  The scalar
    # best-first loop establishes a pivot within a few pops by diving
    # toward the target; a breadth-first generation sweep would otherwise
    # run pivot-less until the target's generation, admitting every detour
    # along the way.  With the exact per-target heuristic the descent
    # successor of any vertex — an out-edge on a min-tick shortest-path
    # tree, ``h(v) == min_ticks(e) + h(w)`` (exact: tick weights are
    # integers, integer-sum float64 arithmetic is exact) — can be read
    # straight off the bound table, so:
    #
    # * the *seed* incumbent is the source's full descent path, a real
    #   optimistically-fastest route, screened against from generation 1;
    # * once per generation the best-bound label is *dived*: completed to
    #   the target along the descent and scored exactly via a dot product
    #   with the memoised suffix tail (one tail per budget, all cut from
    #   the same suffix row), raising the incumbents toward the optimum
    #   long before any arrival.
    #
    # Both are sound — the screen only ever discards labels that provably
    # cannot beat a real simple path (dives are rejected if the descent
    # revisits the label's prefix) — and when no arrival strictly beats
    # the incumbent, the result construction below returns the dive path
    # itself: the scalar core's answer, up to equal-probability ties.
    # ------------------------------------------------------------------
    dive_exact = not engine.landmarks
    min_ticks = kernels.min_ticks
    target_row = np.zeros(width)
    target_row[0] = 1.0
    #: v -> window pmf row of the descent-suffix cost v -> target, or None
    #: when the descent stalls (zero-tick cycle / no qualifying edge).
    suffix_rows: dict[int, np.ndarray | None] = {target_i: target_row}
    #: v -> (edge id, next vertex) along the descent; filled with rows.
    suffix_next: dict[int, tuple[int, int]] = {}
    #: v -> per-budget tails T with T[t] = P(suffix <= b - t), or None.
    suffix_tails: dict[int, list[np.ndarray] | None] = {}

    def suffix_row_for(v: int) -> np.ndarray | None:
        """Window pmf of the descent suffix from ``v``, memoised."""
        chain: list[tuple[int, int, int]] = []
        u = v
        while u not in suffix_rows:
            hu = bounds[u]
            nxt = -1
            for k in range(int(csr.indptr[u]), int(csr.indptr[u + 1])):
                e = int(csr.edge_ids[k])
                w = int(csr.edge_target[k])
                if bounds[w] + min_ticks[e] == hu:
                    nxt = k
                    break
            if nxt < 0 or len(chain) > csr.num_vertices:
                suffix_rows[u] = None
                break
            e = int(csr.edge_ids[nxt])
            w = int(csr.edge_target[nxt])
            chain.append((u, e, w))
            u = w
        # Resolve the chain bottom-up: each vertex's suffix is its descent
        # edge's kernel convolved with the successor's suffix row.
        for u, e, w in reversed(chain):
            succ = suffix_rows[w]
            if succ is None:
                suffix_rows[u] = None
                continue
            row = batched_window_convolve(
                succ[None, :],
                kernels.offsets[e : e + 1],
                kernels.probs[e : e + 1],
                kernels.totals[e : e + 1],
            )
            trim_window_rows(row)
            suffix_rows[u] = row[0]
            suffix_next[u] = (e, w)
        return suffix_rows.get(v)

    def tails_for(v: int) -> list[np.ndarray] | None:
        """Per budget b, T[t] = P(descent suffix from ``v`` <= b - t), memoised."""
        tails = suffix_tails.get(v, False)
        if tails is not False:
            return tails
        row = suffix_row_for(v)
        if row is None:
            suffix_tails[v] = None
            return None
        head_cdf = np.cumsum(row[: width - 1])
        tails = []
        for b in budgets:
            tail = np.zeros(width)
            tail[: b + 1] = head_cdf[b::-1]
            tails.append(tail)
        suffix_tails[v] = tails
        return tails

    def raise_pivots(scores: list[float], answer: tuple) -> None:
        """Make ``answer`` the incumbent of every budget whose pivot it beats."""
        for i, p in enumerate(scores):
            if p > pivots[i]:
                pivots[i] = p
                answers[i] = answer

    def dive_is_simple(label_id: int, v: int) -> bool:
        """Does the descent from ``v`` avoid the label's prefix vertices?"""
        prefix = {source_i}
        cursor = label_id
        while cursor >= 0:
            prefix.add(int(arena.vertex[cursor]))
            cursor = int(arena.parent[cursor])
        u = v
        while u != target_i:
            nxt = suffix_next.get(u)
            if nxt is None:
                return False
            u = nxt[1]
            if u in prefix:
                return False
        return True

    if dive_exact and source_i != target_i:
        tails = tails_for(source_i)
        if tails is not None:
            # Seed: P(full descent path <= b) — each tail at zero elapsed.
            raise_pivots([float(tail[0]) for tail in tails], (-1, source_i, None))

    def process_candidates(
        rows: np.ndarray,
        vertices: np.ndarray,
        parents: np.ndarray,
        edges: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Screen one candidate block; returns admitted (rows, vertices,
        ids, per-budget bounds).

        Mirrors the scalar ``consider`` pruning order — unreachable, bound,
        pivot, dominance — with target arrivals folded into the pivots
        before interior labels are screened against them.
        """
        nonlocal pivot_pruned_in_gen
        n = rows.shape[0]
        stats.labels_generated += n
        cdf = np.cumsum(rows, axis=1)
        alive = np.ones(n, dtype=bool)
        if use_heuristic:
            unreachable = ~reachable[vertices]
            stats.pruned_unreachable += int(unreachable.sum())
            alive &= ~unreachable
        if use_heuristic and use_cost_shifting:
            bound_cols = budget_cols - shift[vertices][:, None]
        else:
            bound_cols = np.broadcast_to(budget_cols, (n, budget_cols.size))
        # One CDF column per budget; the last is the largest budget's bound.
        bound = cdf[np.arange(n)[:, None], np.maximum(bound_cols, 0)]
        bound[bound_cols < 0] = 0.0
        fails = alive & (bound[:, -1] <= 0.0)
        stats.pruned_by_bound += int(fails.sum())
        alive &= ~fails
        # Target arrivals: fold into the pivots (descending largest-budget
        # probability, each budget top-down as ``_BudgetVectorPivots.arrive``
        # does, so pivot_updates counts improvements like the scalar pops
        # do), then screen the generation's interior labels against the
        # raised pivots — sound, and at least as much pruning as the scalar
        # order.
        at_target = vertices == target_i
        arrivals = np.flatnonzero(alive & at_target)
        if arrivals.size:
            probs = cdf[arrivals, budget]
            for j in arrivals[np.argsort(-probs, kind="stable")]:
                arrival = None
                for i in range(len(budgets) - 1, -1, -1):
                    p = float(cdf[j, budgets[i]])
                    if p <= 0.0:
                        break
                    if p > pivots[i]:
                        if arrival is None:
                            arrival = (int(parents[j]), int(edges[j]), rows[j].copy())
                        pivots[i] = p
                        answers[i] = arrival
                if arrival is not None:
                    stats.pivot_updates += 1
                elif use_pivot:
                    stats.pruned_by_bound += 1
            alive &= ~at_target
        if use_pivot:
            fails = alive & ~beats_pivots(bound)
            pruned = int(fails.sum())
            if pruned:
                stats.pruned_by_bound += pruned
                pivot_pruned_in_gen = True
                alive &= ~fails
        if use_dominance and alive.any():
            idx = np.flatnonzero(alive)
            kept = _admit_chunk(store, cdf, idx, vertices[idx])
            rejected = idx[~kept]
            stats.pruned_by_dominance += int(rejected.size)
            alive[rejected] = False
        sel = np.flatnonzero(alive)
        ids = arena.append(vertices[sel], parents[sel], edges[sel])
        return rows[sel], vertices[sel], ids, bound[sel]

    # ------------------------------------------------------------------
    # Seed generation: the source's out-edges.
    # ------------------------------------------------------------------
    s0, s1 = int(csr.indptr[source_i]), int(csr.indptr[source_i + 1])
    seed_edges = csr.edge_ids[s0:s1]
    seed_vertices = csr.edge_target[s0:s1]
    if seed_edges.size:
        seed_rows = np.stack(
            [
                combiner.edge_cost(network.edge(int(e))).window_row(width)
                for e in seed_edges
            ]
        )
        trim_window_rows(seed_rows)
        gen_rows, gen_vertices, gen_ids, gen_bounds = process_candidates(
            seed_rows,
            seed_vertices,
            np.full(seed_edges.size, -1, dtype=np.int64),
            seed_edges,
        )
    else:
        gen_rows = np.zeros((0, width))
        gen_vertices = np.zeros(0, dtype=np.int64)
        gen_ids = np.zeros(0, dtype=np.int64)
        gen_bounds = np.zeros((0, len(budgets)))

    chunk_rows = max(256, _CHUNK_BYTES // (width * 8))
    indptr = csr.indptr

    # ------------------------------------------------------------------
    # Generation loop.
    # ------------------------------------------------------------------
    while gen_ids.size:
        if deadline is not None and time.perf_counter() > deadline:
            expired = True
            break
        if dive_exact and use_pivot:
            # Dive: complete the generation's best-bound labels (by the
            # largest budget's bound) to the target along the min-tick
            # descent and score the resulting real path exactly at every
            # budget (dot of the label row against each memoised suffix
            # tail — the same ``np.dot`` per budget, never one gemv over
            # stacked tails, which may round differently).  A successful
            # dive raises the incumbents, which then re-screen this very
            # generation before its expensive expansion — the columnar
            # analogue of the scalar core's best-first pivot chase.
            top_bounds = gen_bounds[:, -1]
            num_dives = min(_DIVES_PER_GENERATION, int(top_bounds.size))
            top = np.argpartition(top_bounds, -num_dives)[-num_dives:]
            for j in top[np.argsort(-top_bounds[top], kind="stable")]:
                if top_bounds[j] <= pivots[0]:
                    # Pivots ascend with the budget (every incumbent scores
                    # at least as well at a larger budget), so no budget's
                    # bound here or below can beat its pivot.
                    break
                v = int(gen_vertices[j])
                tails = tails_for(v)
                if tails is None:
                    continue
                scores = [float(np.dot(gen_rows[j], tail)) for tail in tails]
                if any(map(float.__gt__, scores, pivots)) and dive_is_simple(
                    int(gen_ids[j]), v
                ):
                    raise_pivots(scores, (int(gen_ids[j]), v, None))
                    stats.pivot_updates += 1
            keep = beats_pivots(gen_bounds)
            if not keep.all():
                stats.pruned_by_bound += int((~keep).sum())
                gen_rows = gen_rows[keep]
                gen_vertices = gen_vertices[keep]
                gen_ids = gen_ids[keep]
                gen_bounds = gen_bounds[keep]
                if not gen_ids.size:
                    # The raised incumbent emptied the frontier: provably
                    # done, matching the scalar best-first early exit.
                    stats.bound_terminations += 1
                    break
        pivot_pruned_in_gen = False
        stats.labels_expanded += int(gen_ids.size)
        starts = indptr[gen_vertices]
        counts = indptr[gen_vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        parent_pos = np.repeat(
            np.arange(gen_vertices.size, dtype=np.int64), counts
        )
        run_starts = np.cumsum(counts) - counts
        edge_pos = (
            np.repeat(starts, counts)
            + np.arange(total, dtype=np.int64)
            - np.repeat(run_starts, counts)
        )
        child_edges = csr.edge_ids[edge_pos]
        child_vertices = csr.edge_target[edge_pos]

        next_rows: list[np.ndarray] = []
        next_vertices: list[np.ndarray] = []
        next_ids: list[np.ndarray] = []
        next_bounds: list[np.ndarray] = []
        for lo in range(0, total, chunk_rows):
            if deadline is not None and time.perf_counter() > deadline:
                expired = True
                break
            hi = min(lo + chunk_rows, total)
            c_vertices = child_vertices[lo:hi]
            c_edges = child_edges[lo:hi]
            c_parent_pos = parent_pos[lo:hi]
            c_parent_ids = gen_ids[c_parent_pos]
            # Simple-path constraint: lockstep walk up the parent chains.
            # Every label of a generation has the same depth, so all chains
            # reach the root together and the walk needs no per-row mask.
            conflict = c_vertices == source_i
            cursor = c_parent_ids
            while cursor[0] >= 0:
                conflict |= arena.vertex[cursor] == c_vertices
                cursor = arena.parent[cursor]
            keep = np.flatnonzero(~conflict)
            if keep.size == 0:
                continue
            parent_rows = gen_rows[c_parent_pos[keep]]
            kept_edges = c_edges[keep]
            child_block = batched_window_convolve(
                parent_rows,
                kernels.offsets[kept_edges],
                kernels.probs[kept_edges],
                kernels.totals[kept_edges],
            )
            trim_window_rows(child_block)
            admitted = process_candidates(
                child_block,
                c_vertices[keep],
                c_parent_ids[keep],
                kept_edges,
            )
            if admitted[2].size:
                next_rows.append(admitted[0])
                next_vertices.append(admitted[1])
                next_ids.append(admitted[2])
                next_bounds.append(admitted[3])
        if expired:
            break
        if next_ids:
            gen_rows = np.concatenate(next_rows)
            gen_vertices = np.concatenate(next_vertices)
            gen_ids = np.concatenate(next_ids)
            gen_bounds = np.concatenate(next_bounds)
        else:
            if use_pivot and pivot_pruned_in_gen:
                # The pivot screen emptied the remaining frontier: the search
                # is provably done, matching the scalar best-first exit.
                stats.bound_terminations += 1
            gen_ids = np.zeros(0, dtype=np.int64)

    if expired:
        stats.completed = False
    stats.runtime_seconds = time.perf_counter() - start_time

    def realise(answer: tuple) -> tuple[tuple, DiscreteDistribution, np.ndarray]:
        """Path, distribution and window row of one incumbent."""
        cursor, last, row = answer
        edge_ids = []
        while cursor >= 0:
            edge_ids.append(int(arena.edge[cursor]))
            cursor = int(arena.parent[cursor])
        edge_ids.reverse()
        if row is not None:
            edge_ids.append(last)
        else:
            # A dive path — the label's prefix chain continued by the
            # min-tick descent from vertex ``last``.  Its window row is
            # recomputed edge by edge so the returned distribution
            # reproduces the reported probability exactly (the screening
            # value was the mathematically equal dot product against the
            # suffix tail).
            while last != target_i:
                e, last = suffix_next[last]
                edge_ids.append(e)
            block = np.zeros((1, width))
            block[0, 0] = 1.0
            for e in edge_ids:
                block = batched_window_convolve(
                    block,
                    kernels.offsets[e : e + 1],
                    kernels.probs[e : e + 1],
                    kernels.totals[e : e + 1],
                )
                trim_window_rows(block)
            row = block[0]
        path = tuple(network.edge(e) for e in edge_ids)
        return path, DiscreteDistribution(0, row, normalize=False), row

    fallback = None
    if any(answer is None for answer in answers):
        fallback = _fallback_route(engine, query.source, query.target)
    realised: dict[int, tuple] = {}
    results = []
    for member, answer, probability in zip(member_queries, answers, pivots):
        if answer is None:
            if fallback is None:
                results.append(RoutingResult(member, (), None, 0.0))
            else:
                path, dist = fallback
                results.append(
                    RoutingResult(member, path, dist, dist.prob_within(member.budget))
                )
            continue
        if id(answer) not in realised:
            realised[id(answer)] = realise(answer)
        path, distribution, row = realised[id(answer)]
        if answer[2] is None:  # a dive: its own row, not the dot product
            probability = float(row[: member.budget + 1].sum())
        results.append(RoutingResult(member, path, distribution, probability))
    return stats, tuple(results)
