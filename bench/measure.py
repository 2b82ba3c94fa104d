"""The untraced run: one workload, end to end over the TCP wire.

Three server processes are set up per run, because ``setup_s`` is reported
as the median of three set-ups.  The first builds while this process
generates the workload (one core each); the other two build side by side.
One of those is then measured.  The other, which has built the same world
and served only its warm phase, hosts the answer oracle afterwards, so this
process never builds a world itself and nothing but the server and the
generator runs during the measured window.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Any, Sequence

from . import loadgen
from .lifecycle import Server, ServerError
from .loadgen import Exchange, is_ok
from .oracle import mismatch
from .workloads import Plan, build_plan, encode, world_of

ORACLE_SAMPLE = 32
VERSION_TAG = re.compile(rb'"cost_version": (\d+)')


def warm(server: Server, plan: Plan) -> float:
    """Send the plan's warm requests; returns the seconds it took."""
    if not plan.warm:
        return 0.0
    exchanges, begin = loadgen.run_closed_loop(
        server.port, plan.warm, connections=2, window=1, seconds=None
    )
    bad = [e for e in exchanges if not is_ok(e.response)]
    if bad or len(exchanges) != len(plan.warm):
        raise RuntimeError(
            f"{plan.name}: warm phase failed on {len(bad)} of {len(plan.warm)} "
            f"requests: {bad[0].response if bad else 'connection lost'!r}"
        )
    return max(e.done for e in exchanges) - begin


def set_up(server: Server, plan: Plan) -> float:
    """Wait for READY, run the warm phase; returns spawn-to-warm seconds."""
    server.wait_ready()
    return server.ready_s + warm(server, plan)


def wire_request(port: int, document: dict[str, Any]) -> dict[str, Any]:
    exchanges, _ = loadgen.run_closed_loop(
        port, [encode(document)], connections=1, window=1, seconds=None
    )
    if exchanges[0].response is None:
        raise RuntimeError(f"no answer to {document.get('op')!r}")
    return json.loads(exchanges[0].response)


def drive(server: Server, plan: Plan, seconds: float) -> tuple[list[Exchange], list[Exchange], float]:
    """Run the measured window; returns (reads, update acks, begin)."""
    if plan.loop == "closed":
        reads, begin = loadgen.run_closed_loop(
            server.port,
            plan.lines,
            connections=plan.connections,
            window=plan.window,
            seconds=seconds,
        )
        return reads, [], begin
    assert plan.rate is not None
    schedule = [
        (i / plan.rate, i % plan.connections, line)
        for i, line in enumerate(plan.lines)
    ]
    # Writes go down connection 0, in due order among its reads.
    schedule += [(due, 0, line) for due, line in plan.updates]
    schedule.sort(key=lambda item: item[0])
    update_lines = {line for _, line in plan.updates}
    exchanges, begin = loadgen.run_open_loop_tcp(
        server.port, schedule, connections=plan.connections
    )
    # Requests never sent (the server went away) still count as attempted.
    sent = {e.index for e in exchanges}
    exchanges += [
        Exchange(index=i, start=begin + due, sent=begin + due, request=line)
        for i, (due, _, line) in enumerate(schedule)
        if i not in sent
    ]
    exchanges.sort(key=lambda e: e.index)
    reads = [e for e in exchanges if e.request not in update_lines]
    acks = [e for e in exchanges if e.request in update_lines]
    return reads, acks, begin


def evenly(items: Sequence[Any], count: int) -> list[Any]:
    """Up to ``count`` items spread evenly over ``items``."""
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(k * step)] for k in range(count)]


def oracle_sample(
    plan: Plan, reads: Sequence[Exchange], base_version: int
) -> list[tuple[Exchange, dict[str, Any], dict[str, Any], int]]:
    """``(exchange, request, response, epoch)`` for the answers to check.

    Good answers are grouped by (strategy, cost version served) and each
    group is sampled evenly, so all three strategies of ``shared_frontier``
    and every update epoch of ``update_churn`` are checked.  Each distinct
    request is checked once per group.
    """
    # 60,000 hits come back from a replay: read the version tag off the
    # raw line and parse only what is sampled.
    groups: dict[tuple[str, int], dict[bytes, Exchange]] = {}
    strategies: dict[bytes, str] = {}
    for exchange in reads:
        if not is_ok(exchange.response):
            continue
        line = exchange.request
        if line not in strategies:
            strategies[line] = json.loads(line).get("strategy", "pbr")
        tagged = VERSION_TAG.search(exchange.response)
        version = int(tagged.group(1)) if tagged else -1
        groups.setdefault((strategies[line], version), {}).setdefault(line, exchange)
    per_group = -(-ORACLE_SAMPLE // max(1, len(groups)))
    return [
        (exchange, json.loads(exchange.request), json.loads(exchange.response),
         version - base_version)
        for strategy, version in sorted(groups)
        for exchange in evenly(list(groups[strategy, version].values()), per_group)
    ]


def check_answers(
    plan: Plan,
    reads: Sequence[Exchange],
    acks: Sequence[Exchange],
    spare: Server,
    base_version: int,
    stats: dict[str, Any],
) -> tuple[int, list[str]]:
    """The oracle and the accounting identity; returns (wrong, reasons)."""
    reasons: list[str] = []
    sample = oracle_sample(plan, reads, base_version)
    updates = [json.loads(line) for _, line in plan.updates]
    # An answer's epoch is read off its own version tag; what the wire
    # order guarantees about that tag is checked here.
    acked = sorted(e.done for e in acks if is_ok(e.response))
    sent = sorted(e.sent for e in acks)
    for exchange, _, response, epoch in sample:
        at_least = sum(1 for t in acked if t <= exchange.sent)
        at_most = sum(1 for t in sent if t <= exchange.done)
        if not at_least <= epoch <= at_most:
            reasons.append(
                f"request {exchange.index}: epoch {epoch} outside "
                f"[{at_least}, {at_most}]"
            )
    in_range = [item for item in sample if 0 <= item[3] <= len(updates)]
    answers = spare.command(
        {
            "cmd": "oracle",
            "requests": [
                {"epoch": epoch, "doc": request}
                for _, request, _, epoch in in_range
            ],
            "updates": updates,
        }
    )["answers"]
    for (exchange, _, response, epoch), expected in zip(in_range, answers):
        why = mismatch(response, expected, expected_version=base_version + epoch)
        if why is not None:
            reasons.append(f"request {exchange.index}: {why}")
    for k, exchange in enumerate(acks):
        if is_ok(exchange.response):
            version = json.loads(exchange.response)["cost_version"]
            if version != base_version + k + 1:
                reasons.append(f"update {k}: acked version {version}")
    lookups = sum(1 for e in reads if e.response is not None) + len(plan.warm)
    counted = stats["cache_hits"] + stats["cache_misses"] + stats["coalesced"]
    if counted != lookups:
        reasons.append(f"hits + misses + coalesced = {counted}, lookups = {lookups}")
    return len(reasons), reasons


def run_untraced(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Measure one workload; returns its result record."""
    with ExitStack() as stack:
        world = world_of(name)
        # Server on one CPU, generator on another: left to the scheduler,
        # where the pair lands moves throughput by tens of percent per run.
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        server_cpu, own_cpu = (cpus[0], cpus[1]) if len(cpus) > 1 else (None, None)
        if own_cpu is not None:
            os.sched_setaffinity(0, {own_cpu})
            stack.callback(os.sched_setaffinity, 0, allowed)
        first = stack.enter_context(Server(world, server_cpu))
        plan = build_plan(name, seed, seconds)
        setups = [set_up(first, plan)]
        first.close()
        spare = stack.enter_context(Server(world, own_cpu))
        measured = stack.enter_context(Server(world, server_cpu))
        with ThreadPoolExecutor(max_workers=2) as pool:
            setups += pool.map(lambda s: set_up(s, plan), (spare, measured))
        base_version = measured.info["cost_version"]

        reads, acks, begin = drive(measured, plan, seconds)

        try:
            stats = wire_request(measured.port, {"op": "stats"})
            status = measured.command({"cmd": "status"})
            wrong, reasons = check_answers(
                plan, reads, acks, spare, base_version, stats
            )
        except (ServerError, OSError, RuntimeError) as exc:
            # A server that hung or died in the window: its requests are
            # already counted as failed; there is nothing left to ask it.
            stats, status = {}, {"frontend": {}}
            wrong, reasons = 1, [f"server unusable after the window: {exc}"]

    attempted = len(reads) + len(acks)
    good = [e for e in reads if is_ok(e.response)]
    failed = attempted - len(good) - sum(1 for e in acks if is_ok(e.response))
    latencies = sorted(e.latency_ms for e in good)
    within = sum(1 for ms in latencies if ms <= plan.limit_ms)
    ack_ms = [e.latency_ms for e in acks if is_ok(e.response)]
    rounds = loadgen.round_throughputs([e.done for e in good], begin)

    end_to_end = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(rounds) if rounds else None,
        "latency_p50_ms": loadgen.percentile(latencies, 50) if latencies else None,
        "latency_p95_ms": loadgen.supported_percentile(latencies, 95),
        "latency_p99_ms": loadgen.supported_percentile(latencies, 99),
        "slo_met_share": max(0, within - wrong) / len(reads) if reads else None,
        "failed_share": failed / attempted if attempted else None,
        "wrong_answers": wrong,
        "peak_rss_mb": status.get("rss_mb"),
        "update_ack_p50_ms": statistics.median(ack_ms) if ack_ms else None,
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sizes": plan.sizes,
        "limit_ms": plan.limit_ms,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "wrong_reasons": reasons[:10],
        "samples": len(latencies),
        "end_to_end": {
            k: None if v is None else float(v) for k, v in end_to_end.items()
        },
        "informational": {
            "setup_samples_s": setups,
            "round_throughputs_rps": rounds,
            "generator_lateness_p99_ms": (
                loadgen.percentile(sorted((e.sent - e.start) * 1e3 for e in reads), 99)
                if plan.loop == "open"
                else None
            ),
            **{
                f"service.{key}": stats.get(key)
                for key in ("requests", "hit_rate", "coalesced", "served_degraded",
                            "served_stale", "deadline_misses")
            },
            "service.cache.evictions": stats.get("cache_evictions"),
            "service.frontend.failed": status["frontend"].get("delivery_failures"),
            "service.frontend.retries": status["frontend"].get("retries"),
            "core.hybrid.estimation_fraction": status.get("estimation_fraction"),
        },
    }
