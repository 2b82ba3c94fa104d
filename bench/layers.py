"""The traced run: where one request's time goes, layer by layer.

Nothing here touches ``src/``: every number comes from timing a call into a
module's public functions from this file.  Two kinds of measurement:

*The ladder.*  A seeded sample of the workload's own wire documents is
replayed in-process down the serving stack, one rung at a time::

    TCP round trip > AsyncFrontend.handle_line > AsyncFrontend.submit
      > RoutingService.handle_request > RoutingService.route
      > RoutingEngine.route > OptimisticHeuristic.shared

with ``ThreadedFrontend.request`` and ``RoutingService.handle_json`` as side
rungs.  Each replay is a span (name, start, end, parent rung, request id);
a layer's self time is the median, over requests, of its rung minus the
rung below on the same request.  The raw rung medians are reported too, and
a negative difference shows instead of being clamped.  Between rungs the state the workload
depends on is restored: nothing for a hit workload, the result cache is
cleared for a warm-miss one, and the heuristic LRU as well for a cold one.

*Fixed probes.*  Seed-pinned inputs, the same in every traced run, timed
against single functions of each layer (histogram kernels, heuristic
build, landmark tables, the hybrid combiner's parts, ...).

Spans are kept in memory and written to ``bench/results/trace.jsonl`` when
the run ends.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import ConvolutionModel
from repro.experiments.config import get_preset
from repro.experiments.workloads import WorkloadGenerator
from repro.histograms import (
    DiscreteDistribution,
    ParetoFrontier,
    batched_window_convolve,
    cdf_dominance_matrix,
)
from repro.network.paths import reverse_dijkstra
from repro.routing import RoutingEngine, RoutingQuery
from repro.routing.heuristics import OptimisticHeuristic, clear_heuristic_cache
from repro.routing.landmarks import LandmarkTable
from repro.service import (
    AsyncFrontend,
    CostUpdate,
    ResultCache,
    RoutingService,
    ThreadedFrontend,
)

from . import loadgen
from .oracle import without_stats
from .server import MAX_CACHE_ENTRIES, NUM_WORKERS, warm_kernel
from .workloads import COLS, HUB_CELLS, SLACK, build_plan
from .worlds import HYBRID_PRESET, World, build_world

#: What the ladder restores between rungs, per workload.
LADDER_STATE = {
    "hit_replay": "hit",
    "update_churn": "hit",
    "warm_miss": "warm",
    "shared_frontier": "warm",
    "hybrid_search": "warm",
    "cold_miss": "cold",
}

#: A hit ladder finishes long before its time budget; this bounds it.
MAX_LADDER_REQUESTS = 400

# Span names, outermost rung first; the parent of each is the one before.
CHAIN = (
    "service.scaleout.tcp",
    "service.scaleout.handle_line",
    "service.scaleout.submit",
    "service.handle_request",
    "service.route",
    "routing.engine.route",
    "routing.heuristics.shared",
)
SIDE_RUNGS = {
    "service.frontend.request": "service.handle_request",
    "service.handle_json": "service.handle_request",
}

#: name -> (unit, better).  ``BENCHMARK.json`` lists exactly these.
PER_LAYER: dict[str, tuple[str, str]] = {
    # --- ladder rungs on the workload's own documents (medians) ---
    "service.scaleout.tcp_us": ("us", "lower"),
    "service.scaleout.handle_line_us": ("us", "lower"),
    "service.scaleout.submit_us": ("us", "lower"),
    "service.frontend.request_us": ("us", "lower"),
    "service.handle_json_us": ("us", "lower"),
    "service.handle_request_us": ("us", "lower"),
    "service.route_us": ("us", "lower"),
    "routing.engine.route_us": ("us", "lower"),
    "routing.heuristics.shared_us": ("us", "lower"),
    # --- self times: a rung minus the rung below ---
    "service.scaleout.socket_self_us": ("us", "lower"),
    "service.scaleout.codec_self_us": ("us", "lower"),
    "service.scaleout.executor_self_us": ("us", "lower"),
    "service.scaleout.tcp_overhead_us": ("us", "lower"),
    "service.frontend.queue_self_us": ("us", "lower"),
    "service.json_self_us": ("us", "lower"),
    "service.dispatch_self_us": ("us", "lower"),
    "service.route_self_us": ("us", "lower"),
    "routing.search_self_us": ("us", "lower"),
    # --- codec and counts on the workload's own documents ---
    "service.decode_us": ("us", "lower"),
    "service.encode_us": ("us", "lower"),
    "service.response_bytes": ("count", "lower"),
    "service.requests": ("count", "lower"),
    "service.hit_rate": ("ratio", "higher"),
    "service.coalesced": ("count", "higher"),
    "service.served_degraded": ("count", "lower"),
    "service.served_stale": ("count", "lower"),
    "service.deadline_misses": ("count", "lower"),
    "service.cache.evictions": ("count", "lower"),
    "service.frontend.failed": ("count", "lower"),
    "service.frontend.retries": ("count", "lower"),
    "routing.labels_generated": ("count", "lower"),
    "routing.pruned_by_dominance": ("count", "higher"),
    "routing.bound_terminations": ("count", "higher"),
    # --- fixed probes, scale world ---
    "service.scaleout.miss_scaling_2w": ("ratio", "higher"),
    "service.frontend.hit_rps_2w": ("1/s", "higher"),
    "service.apply_update_ms": ("ms", "lower"),
    "service.cache.get_hit_us": ("us", "lower"),
    "service.cache.put_us": ("us", "lower"),
    "routing.pbr_columnar_ms": ("ms", "lower"),
    "routing.pbr_scalar_ms": ("ms", "lower"),
    "routing.pbr_landmarks_ms": ("ms", "lower"),
    "routing.columnar.kernel_build_ms": ("ms", "lower"),
    "routing.columnar.first_route_s": ("s", "lower"),
    "routing.multi_budget_ms": ("ms", "lower"),
    "routing.depart_when_ms": ("ms", "lower"),
    "routing.kbest_ms": ("ms", "lower"),
    "routing.multi_budget_labels_generated": ("count", "lower"),
    "routing.heuristics.build_ms": ("ms", "lower"),
    "routing.heuristics.shared_hit_us": ("us", "lower"),
    "routing.landmarks.build_s": ("s", "lower"),
    "routing.landmarks.bounds_to_ms": ("ms", "lower"),
    "network.reverse_dijkstra_ms": ("ms", "lower"),
    "network.grid_build_s": ("s", "lower"),
    "core.costs.table_build_s": ("s", "lower"),
    "core.costs.apply_deltas_ms": ("ms", "lower"),
    "histograms.batched_window_convolve_us": ("us", "lower"),
    "histograms.cdf_dominance_matrix_us": ("us", "lower"),
    "histograms.convolve_us": ("us", "lower"),
    "histograms.frontier_add_us": ("us", "lower"),
    # --- fixed probes, hybrid world ---
    "core.hybrid.combine_us": ("us", "lower"),
    "core.convolution.combine_us": ("us", "lower"),
    "core.hybrid.estimation_fraction": ("ratio", "lower"),
    "core.features.extract_us": ("us", "lower"),
    "core.training.train_s": ("s", "lower"),
    "trajectories.corpus_build_s": ("s", "lower"),
    "ml.classifier.decide_us": ("us", "lower"),
    "ml.estimator.predict_us": ("us", "lower"),
    "ml.estimator.predict_batch_us_per_row": ("us", "lower"),
    # --- the traced run's own tax ---
    "bench.span_overhead_us": ("us", "lower"),
}


class Tracer:
    """In-memory spans for one workload's traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: str | None = None,
        request: int | None = None,
    ) -> None:
        self.spans.append(
            {"workload": self.workload, "name": name, "start": start,
             "end": end, "parent": parent, "request": request}
        )

    def time(self, name: str, call: Callable[[], Any], **where: Any) -> Any:
        """Run ``call`` inside a span; returns what it returned."""
        start = time.perf_counter()
        result = call()
        self.record(name, start, time.perf_counter(), **where)
        return result

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median duration of the spans called ``name``, times ``scale``."""
        return statistics.median(self.seconds(name)) * scale

    def median_gap(self, outer: str, inner: str, scale: float = 1.0) -> float:
        """Median over requests of ``outer``'s duration minus ``inner``'s.

        Pairing by request takes the spread *between* requests (a factor of
        four on a miss workload) out of the difference of two rungs.
        """
        by_request = {
            name: {
                s["request"]: s["end"] - s["start"]
                for s in self.spans
                if s["name"] == name
            }
            for name in (outer, inner)
        }
        shared = by_request[outer].keys() & by_request[inner].keys()
        return scale * statistics.median(
            by_request[outer][r] - by_request[inner][r] for r in shared
        )


def write_trace(path: Path, spans: Sequence[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


class LoopThread:
    """An event loop on its own thread, for the async frontend under test."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def run(self, coroutine: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(120)

    def close(self) -> None:
        async def settle() -> None:
            # Connection handlers end on their own once the client is gone;
            # stopping the loop under them would cancel them noisily.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            if others:
                await asyncio.wait(others, timeout=2)

        self.run(settle())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


async def _timed(call: Callable[[Any], Any], argument: Any) -> tuple[float, float, Any]:
    """Await ``call(argument)`` on the loop thread, timed on that thread."""
    start = time.perf_counter()
    result = await call(argument)
    return start, time.perf_counter(), result


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------


def ladder(
    tracer: Tracer, world: World, name: str, lines: Sequence[bytes],
    warm: Sequence[bytes], budget_s: float,
) -> tuple[dict[str, float], int, int]:
    """Replay ``lines`` down every rung; returns (metrics, attempted, failed)."""
    state = LADDER_STATE[name]
    service = RoutingService(
        world.network, world.combiner_for(world.costs),
        max_cache_entries=MAX_CACHE_ENTRIES,
    )
    engine = service.engine()
    warm_kernel(world, engine)
    loop = LoopThread()
    frontend = AsyncFrontend(service, num_workers=NUM_WORKERS, port=0)
    loop.run(frontend.start())
    threaded = ThreadedFrontend(service, num_workers=NUM_WORKERS).start()
    sock = loadgen.connect(frontend.addresses[0][1])
    reader = sock.makefile("rb")

    def restore() -> None:
        if state != "hit":
            service.clear_cache()
        if state == "cold":
            clear_heuristic_cache()

    attempted = failed = 0
    sizes: list[int] = []
    stats_rows: list[Any] = []
    try:
        for line in warm:
            service.handle_json(line.decode())
        if state == "hit":
            for line in dict.fromkeys(lines):
                service.handle_json(line.decode())
        deadline = time.perf_counter() + budget_s
        for request_id, line in enumerate(lines[:MAX_LADDER_REQUESTS]):
            if request_id >= 3 and time.perf_counter() > deadline:
                break
            text = line.decode().strip()
            request = json.loads(text)
            where = {"request": request_id}

            def tcp() -> bytes:
                sock.sendall(line)
                return reader.readline()

            documents = []
            restore()
            documents.append(json.loads(
                tracer.time(CHAIN[0], tcp, parent=None, **where)))
            restore()
            start, end, answer = loop.run(_timed(frontend.handle_line, text))
            tracer.record(CHAIN[1], start, end, parent=CHAIN[0], **where)
            documents.append(json.loads(answer))
            restore()
            start, end, answer = loop.run(_timed(frontend.submit, request))
            tracer.record(CHAIN[2], start, end, parent=CHAIN[1], **where)
            documents.append(answer)
            restore()
            documents.append(tracer.time(
                "service.frontend.request", lambda: threaded.request(request),
                parent=SIDE_RUNGS["service.frontend.request"], **where))
            restore()
            documents.append(json.loads(tracer.time(
                "service.handle_json", lambda: service.handle_json(text),
                parent=SIDE_RUNGS["service.handle_json"], **where)))
            restore()
            documents.append(tracer.time(
                CHAIN[3], lambda: service.handle_request(request),
                parent=CHAIN[2], **where))

            start = time.perf_counter()
            query = RoutingQuery.from_dict(json.loads(text)["query"])
            tracer.record("service.decode", start, time.perf_counter(), **where)
            strategy = request.get("strategy", "pbr")
            kwargs = request.get("kwargs", {})
            restore()
            served = tracer.time(
                CHAIN[4], lambda: service.route(query, strategy=strategy, **kwargs),
                parent=CHAIN[3], **where)
            encoded = tracer.time(
                "service.encode",
                lambda: json.dumps({"ok": True, **served.to_dict()}), **where)
            documents.append(json.loads(encoded))
            sizes.append(len(encoded))
            restore()
            result = tracer.time(
                CHAIN[5], lambda: engine.route(query, strategy=strategy, **kwargs),
                parent=CHAIN[4], **where)
            stats_rows.append(result.stats)
            restore()
            tracer.time(
                CHAIN[6],
                lambda: OptimisticHeuristic.shared(
                    world.network, engine.combiner.costs, query.target),
                parent=CHAIN[5], **where)

            # Every rung must have served the same answer as the bare engine.
            expected = without_stats(json.loads(json.dumps(result.to_dict())))
            attempted += len(documents)
            failed += sum(
                1 for d in documents
                if d.get("ok") is not True
                or without_stats(d.get("result")) != expected
            )
        stats = service.stats()
        frontend_stats = threaded.stats.read()
    finally:
        reader.close()
        sock.close()
        threaded.close()
        loop.run(frontend.close())
        loop.close()

    us = {rung: tracer.median(rung, 1e6) for rung in (*CHAIN, *SIDE_RUNGS)}
    route_us = us["service.route"]
    metrics = {
        **{f"{rung}_us": value for rung, value in us.items()},
        "service.scaleout.socket_self_us": tracer.median_gap(CHAIN[0], CHAIN[1], 1e6),
        "service.scaleout.codec_self_us": tracer.median_gap(CHAIN[1], CHAIN[2], 1e6),
        "service.scaleout.executor_self_us": tracer.median_gap(CHAIN[2], CHAIN[3], 1e6),
        "service.scaleout.tcp_overhead_us": tracer.median_gap(
            CHAIN[0], "service.handle_json", 1e6),
        "service.frontend.queue_self_us": tracer.median_gap(
            "service.frontend.request", CHAIN[3], 1e6),
        "service.json_self_us": tracer.median_gap("service.handle_json", CHAIN[3], 1e6),
        "service.dispatch_self_us": tracer.median_gap(CHAIN[3], CHAIN[4], 1e6),
        # A hit never reaches the engine: nothing runs below service.route.
        "service.route_self_us": (
            route_us if state == "hit" else tracer.median_gap(CHAIN[4], CHAIN[5], 1e6)
        ),
        "routing.search_self_us": tracer.median_gap(CHAIN[5], CHAIN[6], 1e6),
        "service.decode_us": tracer.median("service.decode", 1e6),
        "service.encode_us": tracer.median("service.encode", 1e6),
        "service.response_bytes": statistics.median(sizes),
        "service.requests": stats.requests,
        "service.hit_rate": stats.hit_rate,
        "service.coalesced": stats.coalesced,
        "service.served_degraded": stats.served_degraded,
        "service.served_stale": stats.served_stale,
        "service.deadline_misses": stats.deadline_misses,
        "service.cache.evictions": stats.cache_evictions,
        "service.frontend.failed": frontend_stats["delivery_failures"],
        "service.frontend.retries": frontend_stats["retries"],
        "routing.labels_generated": statistics.fmean(
            s.labels_generated for s in stats_rows),
        "routing.pruned_by_dominance": statistics.fmean(
            s.pruned_by_dominance for s in stats_rows),
        "routing.bound_terminations": statistics.fmean(
            s.bound_terminations for s in stats_rows),
    }
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Fixed probes
# ----------------------------------------------------------------------

#: (row, column) offsets from the first hub: warm trips of 27-45 cells.
WARM_OFFSETS = [(10, 20), (-15, 22), (30, 12), (5, -35), (-20, -7), (25, 20)]
#: Targets no workload uses as a hub, each with one 22-cell trip.
COLD_CELLS = [(60, 60), (100, 70), (70, 110)]


def _vertex(row: int, col: int) -> int:
    return row * COLS + col


def _repeat(tracer: Tracer, name: str, call: Callable[[], Any], reps: int) -> Any:
    result = None
    for _ in range(reps):
        result = tracer.time(name, call)
    return result


def scale_probes(tracer: Tracer, world: World) -> dict[str, float]:
    network, costs = world.network, world.costs
    out: dict[str, float] = dict(world.timings)
    hub = _vertex(*HUB_CELLS[0])
    engine = RoutingEngine(network, ConvolutionModel(costs))
    start = time.perf_counter()
    warm_kernel(world, engine)
    out["routing.columnar.first_route_s"] = time.perf_counter() - start

    # heuristics / network / landmarks
    cold = [_vertex(*cell) for cell in COLD_CELLS]
    for target in cold:
        tracer.time("routing.heuristics.build",
                    lambda: OptimisticHeuristic(network, costs, target))
        tracer.time("network.reverse_dijkstra",
                    lambda: reverse_dijkstra(network, target))
    floor = OptimisticHeuristic.shared(network, costs, hub)
    _repeat(tracer, "routing.heuristics.shared_hit",
            lambda: OptimisticHeuristic.shared(network, costs, hub), 200)
    table = tracer.time("routing.landmarks.build",
                        lambda: LandmarkTable(network, costs, k=8))
    for target in cold:
        tracer.time("routing.landmarks.bounds_to", lambda: table.bounds_to(target))
    out["routing.heuristics.build_ms"] = tracer.median("routing.heuristics.build", 1e3)
    out["network.reverse_dijkstra_ms"] = tracer.median("network.reverse_dijkstra", 1e3)
    out["routing.heuristics.shared_hit_us"] = tracer.median(
        "routing.heuristics.shared_hit", 1e6)
    out["routing.landmarks.build_s"] = tracer.median("routing.landmarks.build")
    out["routing.landmarks.bounds_to_ms"] = tracer.median(
        "routing.landmarks.bounds_to", 1e3)

    # pbr on both cores, warm hub
    row, col = HUB_CELLS[0]
    warm = [
        RoutingQuery(source, hub, floor.remaining_ticks(source) + SLACK)
        for source in (_vertex(row + dr, col + dc) for dr, dc in WARM_OFFSETS)
    ]
    scalar = RoutingEngine(network, ConvolutionModel(costs), backend="scalar")
    for query in warm:
        engine.route(query)  # first touch of this query's kernel blocks
        tracer.time("routing.pbr_columnar", lambda: engine.route(query))
    for query in warm:
        tracer.time("routing.pbr_scalar", lambda: scalar.route(query))
    out["routing.pbr_columnar_ms"] = tracer.median("routing.pbr_columnar", 1e3)
    out["routing.pbr_scalar_ms"] = tracer.median("routing.pbr_scalar", 1e3)

    # landmarks instead of per-target heuristics, on never-seen targets
    with_landmarks = RoutingEngine(network, ConvolutionModel(costs), landmarks=8)
    for (r, c), target in zip(COLD_CELLS, cold):
        source = _vertex(r + 10, c + 12)
        budget = OptimisticHeuristic(network, costs, target).remaining_ticks(source)
        query = RoutingQuery(source, target, budget + SLACK)
        tracer.time("routing.pbr_landmarks", lambda: with_landmarks.route(query))
    out["routing.pbr_landmarks_ms"] = tracer.median("routing.pbr_landmarks", 1e3)

    # the scalar shared-frontier loops
    labels = []
    for query in warm[:3]:
        h = query.budget - SLACK
        multi = tracer.time(
            "routing.multi_budget",
            lambda: engine.route_multi_budget(
                query.source, hub, [h + 2, h + 4, h + 6, h + 8]))
        labels.append(multi.stats.labels_generated)
        tracer.time(
            "routing.depart_when",
            lambda: engine.route_depart_when(
                query.source, hub, [float(d) for d in range(7)],
                arrive_by_seconds=float(h + 8)))
        tracer.time("routing.kbest", lambda: engine.route_kbest(query, 3))
    out["routing.multi_budget_ms"] = tracer.median("routing.multi_budget", 1e3)
    out["routing.depart_when_ms"] = tracer.median("routing.depart_when", 1e3)
    out["routing.kbest_ms"] = tracer.median("routing.kbest", 1e3)
    out["routing.multi_budget_labels_generated"] = statistics.fmean(labels)

    # executor scaling on misses: the same 12 warm misses, 1 worker then 2
    misses = [
        {"op": "route", "query": q.to_dict()} for q in warm
    ] + [
        {"op": "route", "query": {**q.to_dict(), "budget": q.budget + 1}}
        for q in warm
    ]
    rates = {}
    for workers in (1, 2):
        service = RoutingService(network, ConvolutionModel(costs))

        async def replay() -> float:
            async with AsyncFrontend(service, num_workers=workers) as frontend:
                start = time.perf_counter()
                await frontend.map_requests(misses, concurrency=2)
                return len(misses) / (time.perf_counter() - start)

        rates[workers] = asyncio.run(replay())
    out["service.scaleout.miss_scaling_2w"] = rates[2] / rates[1]

    # threaded frontend on hits, 8 outstanding
    service = RoutingService(network, ConvolutionModel(costs))
    hits = misses[: len(warm)]
    for request in hits:
        service.handle_request(request)
    with ThreadedFrontend(service, num_workers=NUM_WORKERS) as threaded:
        count, outstanding = 4000, []
        start = time.perf_counter()
        for i in range(count):
            outstanding.append(threaded.submit(hits[i % len(hits)]))
            if len(outstanding) == 8:
                outstanding.pop(0).result()
        for future in outstanding:
            future.result()
        out["service.frontend.hit_rps_2w"] = count / (time.perf_counter() - start)

    # the write path, on a copy so the probes above stay on version 0
    rng = np.random.default_rng(0)
    swapped = RoutingService(network, ConvolutionModel(costs.copy()))
    swap_engine = swapped.engine()
    swap_costs = swap_engine.combiner.costs
    probe = warm[0]
    swap_engine.route(probe)
    for _ in range(3):
        deltas = {
            int(edge): DiscreteDistribution(int(rng.integers(1, 4)), [0.5, 0.5])
            for edge in rng.choice(network.num_edges, size=500, replace=False)
        }
        tracer.time("core.costs.apply_deltas",
                    lambda: costs.copy().apply_deltas(deltas))
        tracer.time("service.apply_update",
                    lambda: swapped.apply_cost_update(CostUpdate(costs=deltas)))
        heuristic = OptimisticHeuristic.shared(network, swap_costs, hub)
        query = RoutingQuery(
            probe.source, hub, heuristic.remaining_ticks(probe.source) + SLACK)
        tracer.time("routing.columnar.first_after_bump",
                    lambda: swap_engine.route(query))
        _repeat(tracer, "routing.columnar.steady_after_bump",
                lambda: swap_engine.route(query), 3)
    out["core.costs.apply_deltas_ms"] = tracer.median("core.costs.apply_deltas", 1e3)
    out["service.apply_update_ms"] = tracer.median("service.apply_update", 1e3)
    out["routing.columnar.kernel_build_ms"] = (
        tracer.median("routing.columnar.first_after_bump", 1e3)
        - tracer.median("routing.columnar.steady_after_bump", 1e3)
    )

    # result cache
    cache = ResultCache(max_entries=4096)
    keys = [("default", "pbr", i, hub, 40, (), 0) for i in range(1000)]
    for key in keys:
        tracer.time("service.cache.put", lambda: cache.put(key, key))
    for key in keys:
        tracer.time("service.cache.get_hit", lambda: cache.get(key))
    out["service.cache.put_us"] = tracer.median("service.cache.put", 1e6)
    out["service.cache.get_hit_us"] = tracer.median("service.cache.get_hit", 1e6)
    return out


def histogram_probes(tracer: Tracer) -> dict[str, float]:
    rng = np.random.default_rng(0)
    rows, width, support = 512, 64, 3
    parents = rng.random((rows, width))
    parents /= parents.sum(axis=1, keepdims=True)
    kernels = rng.random((rows, support))
    kernels /= kernels.sum(axis=1, keepdims=True)
    offsets = rng.integers(1, 4, size=rows)
    totals = np.ones(rows)
    _repeat(tracer, "histograms.batched_window_convolve",
            lambda: batched_window_convolve(parents, offsets, kernels, totals), 50)
    cdfs = np.cumsum(parents[:64], axis=1)
    _repeat(tracer, "histograms.cdf_dominance_matrix",
            lambda: cdf_dominance_matrix(cdfs, cdfs), 50)
    left = DiscreteDistribution(10, parents[0, :32] / parents[0, :32].sum())
    right = DiscreteDistribution(2, kernels[0])
    _repeat(tracer, "histograms.convolve", lambda: left.convolve(right), 500)
    candidates = [
        DiscreteDistribution(int(rng.integers(5, 15)), row[:24] / row[:24].sum())
        for row in parents[:200]
    ]
    frontier = ParetoFrontier()
    for candidate in candidates:
        tracer.time("histograms.frontier_add", lambda: frontier.add(candidate))
    return {
        f"{name}_us": tracer.median(name, 1e6)
        for name in ("histograms.batched_window_convolve",
                     "histograms.cdf_dominance_matrix",
                     "histograms.convolve", "histograms.frontier_add")
    }


def hybrid_probes(tracer: Tracer, world: World) -> dict[str, float]:
    out: dict[str, float] = dict(world.timings)
    hybrid = world.combiner_for(world.costs)
    convolution = ConvolutionModel(world.costs)
    engine = RoutingEngine(world.network, convolution)
    generator = WorkloadGenerator(world.network, world.costs, budget_factor=1.5, seed=0)
    preset_bands = get_preset(HYBRID_PRESET).bands
    # (pre-path distribution, next edge) pairs along real routes
    pairs = []
    for queries in generator.generate(preset_bands, 4).values():
        for banded in queries:
            path = engine.route(banded.query).path
            if not path:
                continue
            pre = convolution.edge_cost(path[0])
            for edge in path[1:]:
                pairs.append((pre, edge))
                pre = convolution.combine(pre, edge)
    vectors = []
    for pre, edge in pairs:
        cost = hybrid.edge_cost(edge)
        tracer.time("core.hybrid.combine", lambda: hybrid.combine(pre, edge))
        tracer.time("core.convolution.combine", lambda: convolution.combine(pre, edge))
        vector = tracer.time("core.features.extract",
                             lambda: hybrid.features.extract(pre, edge, cost))
        vectors.append(vector)
        tracer.time("ml.classifier.decide",
                    lambda: hybrid.classifier.should_estimate(vector))
        tracer.time("ml.estimator.predict",
                    lambda: hybrid.estimator.predict_distribution(vector, pre, cost))
    batch = np.vstack([vectors[i % len(vectors)] for i in range(256)])
    _repeat(tracer, "ml.estimator.predict_batch",
            lambda: hybrid.estimator.predict_profiles(batch), 20)
    for name in ("core.hybrid.combine", "core.convolution.combine",
                 "core.features.extract", "ml.classifier.decide",
                 "ml.estimator.predict"):
        out[f"{name}_us"] = tracer.median(name, 1e6)
    out["ml.estimator.predict_batch_us_per_row"] = (
        tracer.median("ml.estimator.predict_batch", 1e6) / 256
    )
    out["core.hybrid.estimation_fraction"] = hybrid.stats.estimation_fraction
    return out


def span_overhead(tracer: Tracer) -> float:
    _repeat(tracer, "bench.span", lambda: None, 1000)
    return tracer.median("bench.span", 1e6)


def run_traced(
    name: str, seed: int, seconds: float, spans: list[dict[str, Any]]
) -> dict[str, Any]:
    """Trace one workload; returns its record and extends ``spans``."""
    tracer = Tracer(name)
    plan = build_plan(name, seed, seconds)
    scale, hybrid = build_world("scale"), build_world("hybrid")
    world = hybrid if plan.world == "hybrid" else scale
    metrics, attempted, failed = ladder(
        tracer, world, name, plan.lines, plan.warm, seconds
    )
    clear_heuristic_cache()
    metrics.update(scale_probes(tracer, scale))
    metrics.update(histogram_probes(tracer))
    metrics.update(hybrid_probes(tracer, hybrid))
    metrics["bench.span_overhead_us"] = span_overhead(tracer)
    missing = set(PER_LAYER) ^ set(metrics)
    if missing:
        raise AssertionError(f"per-layer metrics out of step: {sorted(missing)}")
    spans.extend(tracer.spans)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "ladder_requests": len(tracer.seconds(CHAIN[0])),
        "per_layer": {key: float(metrics[key]) for key in PER_LAYER},
    }
