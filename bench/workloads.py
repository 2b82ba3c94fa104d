"""The six workloads: seeded request generation, nothing else.

``--seed`` drives only what is generated here (origins, Zipf draws, update
edge sets).  The server never sees the seed, only wire documents.  Budgets
are ``h(source) + slack`` with ``h`` the optimistic (minimum-tick) distance,
which the generator derives itself from the world's light form with its
own early-exit Dijkstra.

Requests are *stratified*: hub and trip-length band cycle with the request
index and only the origin inside the band is drawn at random.  Any prefix
of a request list (a run is cut off by the clock, not by a count) therefore
holds the same mix of work whatever the seed, which is what keeps
throughput comparable across seeds.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.experiments.config import get_preset
from repro.experiments.workloads import WorkloadGenerator

from . import worlds

ROWS, COLS = worlds.SCALE_GRID
#: Four well-separated hub targets.  A hub costs ~0.25 s of reverse Dijkstra
#: in every warm phase and again in the oracle, and set-up runs three times
#: per run, so the hit workloads (where the hub count changes nothing that
#: is measured) use the first two only.
HUB_CELLS = [(40, 40), (120, 120), (40, 120), (120, 40)]
BANDS = 4  # trip-length strata per range


@dataclass
class Plan:
    """Everything one run of one workload sends, in order."""

    name: str
    world: str
    loop: str  # "closed" | "open"
    connections: int
    #: Requests outstanding per connection (closed loop only).
    window: int
    #: Latency limit a response must meet to count towards ``slo_met_share``.
    limit_ms: float
    #: Sent during set-up (timed as part of ``setup_s``), closed loop 2 x 1.
    warm: list[bytes]
    #: The measured requests in send order.  The clock cuts the list off.
    lines: list[bytes]
    #: Open loop only: requests per second.
    rate: float | None = None
    #: Open loop only: ``(due offset in seconds, apply_update line)``.
    updates: list[tuple[float, bytes]] = field(default_factory=list)
    #: Final sizes, recorded in every result file.
    sizes: dict[str, Any] = field(default_factory=dict)


def encode(document: dict[str, Any]) -> bytes:
    return json.dumps(document).encode("utf-8") + b"\n"


def route_line(source: int, target: int, budget: int, **extra: Any) -> bytes:
    return encode(
        {
            "op": "route",
            "query": {"source": source, "target": target, "budget": budget},
            **extra,
        }
    )


# ----------------------------------------------------------------------
# The scale world's light form
# ----------------------------------------------------------------------


class ScaleMap:
    """Grid topology plus per-edge minimum ticks: enough to derive budgets."""

    def __init__(self) -> None:
        network = worlds.scale_network()
        ticks = worlds.scale_min_ticks(network)
        self.num_edges = network.num_edges
        #: ``incoming[v]`` lists ``(u, minimum ticks)`` of every edge u -> v.
        self.incoming: list[list[tuple[int, int]]] = [
            [] for _ in range(ROWS * COLS)
        ]
        for edge in network.edges:
            self.incoming[edge.target].append((edge.source, ticks[edge.id]))

    def floors(self, target: int, wanted: Iterable[int]) -> dict[int, int]:
        """``h(v)``: minimum ticks from each wanted vertex to ``target``.

        A reverse Dijkstra that stops as soon as every wanted vertex is
        settled, so a 30-cell trip does not pay for the whole grid.
        """
        remaining = set(wanted)
        settled: dict[int, int] = {}
        heap = [(0, target)]
        while heap and remaining:
            distance, vertex = heapq.heappop(heap)
            if vertex in settled:
                continue
            settled[vertex] = distance
            remaining.discard(vertex)
            for source, ticks in self.incoming[vertex]:
                if source not in settled:
                    heapq.heappush(heap, (distance + ticks, source))
        return settled


def cells_at(cell: tuple[int, int], low: int, high: int) -> list[int]:
    """Vertex ids whose Manhattan distance to ``cell`` lies in ``[low, high]``."""
    row, col = cell
    found = []
    for r in range(max(0, row - high), min(ROWS, row + high + 1)):
        span = high - abs(r - row)
        for c in range(max(0, col - span), min(COLS, col + span + 1)):
            if abs(r - row) + abs(c - col) >= low:
                found.append(r * COLS + c)
    return found


def band_edges(low: int, high: int) -> list[tuple[int, int]]:
    """``BANDS`` consecutive sub-ranges covering ``[low, high]`` cells."""
    cuts = np.linspace(low, high + 1, BANDS + 1).astype(int)
    return [(int(cuts[k]), int(cuts[k + 1]) - 1) for k in range(BANDS)]


def hub_trips(
    scale: ScaleMap,
    rng: np.random.Generator,
    hubs: Sequence[tuple[int, int]],
    cells: tuple[int, int],
    count: int,
) -> list[tuple[int, int, int]]:
    """``count`` distinct ``(source, hub, h)`` trips, stratified.

    Trip ``i`` goes to hub ``i % len(hubs)`` from length band
    ``(i // len(hubs)) % BANDS``; the origin is drawn without replacement.
    """
    pools: dict[tuple[int, int], list[int]] = {}
    floors: dict[int, dict[int, int]] = {}
    for h, hub in enumerate(hubs):
        wanted = cells_at(hub, *cells)
        floors[h] = scale.floors(hub[0] * COLS + hub[1], wanted)
        for b, (low, high) in enumerate(band_edges(*cells)):
            pool = cells_at(hub, low, high)
            rng.shuffle(pool)
            pools[h, b] = pool
    trips = []
    for i in range(count):
        h = i % len(hubs)
        source = pools[h, (i // len(hubs)) % BANDS].pop()
        trips.append((source, hubs[h][0] * COLS + hubs[h][1], floors[h][source]))
    return trips


def zipf_order(rng: np.random.Generator, shapes: int, count: int, s: float = 1.1) -> np.ndarray:
    """``count`` draws over ``shapes`` ranks with ``P(rank r) ~ r**-s``."""
    weights = 1.0 / np.arange(1, shapes + 1) ** s
    return rng.choice(shapes, size=count, p=weights / weights.sum())


# ----------------------------------------------------------------------
# Scale-world workloads
# ----------------------------------------------------------------------

SLACK = 5


def hit_replay(seed: int, scale: ScaleMap) -> Plan:
    rng = np.random.default_rng(seed)
    shapes, replay = 32, 160_000
    hubs = HUB_CELLS[:2]
    trips = hub_trips(scale, rng, hubs, (15, 30), shapes)
    distinct = [route_line(s, t, h + SLACK) for s, t, h in trips]
    order = zipf_order(rng, shapes, replay)
    return Plan(
        name="hit_replay",
        world="scale",
        loop="closed",
        connections=2,
        window=4,
        limit_ms=10.0,
        warm=distinct,
        lines=[distinct[k] for k in order],
        sizes={"shapes": shapes, "hubs": len(hubs), "cells": [15, 30],
               "zipf_s": 1.1, "replay_lines": replay},
    )


def warm_miss(seed: int, scale: ScaleMap) -> Plan:
    rng = np.random.default_rng(seed)
    count = 960
    trips = hub_trips(scale, rng, HUB_CELLS, (25, 45), count + len(HUB_CELLS))
    lines = [route_line(s, t, h + SLACK) for s, t, h in trips]
    return Plan(
        name="warm_miss",
        world="scale",
        loop="closed",
        connections=2,
        window=1,
        limit_ms=500.0,
        # One trip per hub builds that hub's heuristic; never asked again.
        warm=lines[: len(HUB_CELLS)],
        lines=lines[len(HUB_CELLS):],
        sizes={"requests": count, "hubs": len(HUB_CELLS), "cells": [25, 45]},
    )


def cold_miss(seed: int, scale: ScaleMap) -> Plan:
    rng = np.random.default_rng(seed)
    count, cells = 320, (15, 30)
    hubs = {r * COLS + c for r, c in HUB_CELLS}
    lines = []
    # Targets keep 30 cells clear of the border so every band is whole.
    targets: set[int] = set()
    while len(lines) < count:
        row = int(rng.integers(cells[1], ROWS - cells[1]))
        col = int(rng.integers(cells[1], COLS - cells[1]))
        target = row * COLS + col
        if target in targets or target in hubs:
            continue
        targets.add(target)
        low, high = band_edges(*cells)[len(lines) % BANDS]
        pool = cells_at((row, col), low, high)
        source = pool[int(rng.integers(len(pool)))]
        floor = scale.floors(target, [source])[source]
        lines.append(route_line(source, target, floor + SLACK))
    return Plan(
        name="cold_miss",
        world="scale",
        loop="closed",
        connections=2,
        window=1,
        limit_ms=1000.0,
        warm=[],
        lines=lines,
        sizes={"requests": count, "cells": list(cells)},
    )


def shared_frontier(seed: int, scale: ScaleMap) -> Plan:
    rng = np.random.default_rng(seed)
    count = 720
    trips = hub_trips(scale, rng, HUB_CELLS, (15, 30), count + len(HUB_CELLS))
    warm = [route_line(s, t, h + SLACK) for s, t, h in trips[: len(HUB_CELLS)]]
    builders: list[Callable[[int, int, int], bytes]] = [
        lambda s, t, h: route_line(
            s, t, h + 8, strategy="multi_budget",
            kwargs={"budgets": [h + 2, h + 4, h + 6, h + 8]},
        ),
        # One tick is one second here, so departing t seconds later against
        # arrive-by h+8 leaves a budget of h+8-t: seven budgets, h+8 .. h+2.
        lambda s, t, h: route_line(
            s, t, h + 8, strategy="depart_when",
            kwargs={"departure_times": [float(d) for d in range(7)],
                    "arrive_by_seconds": float(h + 8)},
        ),
        lambda s, t, h: route_line(
            s, t, h + SLACK, strategy="kbest", kwargs={"k": 3}
        ),
    ]
    # The strategy turns over with period 3, hub and band with periods 4
    # and 16: coprime, so every strategy meets every stratum.
    lines = [
        builders[i % 3](*trip) for i, trip in enumerate(trips[len(HUB_CELLS):])
    ]
    return Plan(
        name="shared_frontier",
        world="scale",
        loop="closed",
        connections=2,
        window=1,
        limit_ms=400.0,
        warm=warm,
        lines=lines,
        sizes={"requests": count, "strategies": ["multi_budget", "depart_when", "kbest"],
               "hubs": len(HUB_CELLS), "cells": [15, 30]},
    )


#: Dyadic probabilities: short on the wire (a 500-edge update must stay
#: under asyncio's 64 KiB line limit) and of mass exactly 1.
UPDATE_SHAPES = ([0.5, 0.5], [0.25, 0.5, 0.25], [0.75, 0.25], [1.0])


def update_churn(seed: int, scale: ScaleMap, seconds: float) -> Plan:
    rng = np.random.default_rng(seed)
    shapes, rate, edges_per_update, period = 16, 200.0, 500, 6.0
    hubs = HUB_CELLS[:2]
    trips = hub_trips(scale, rng, hubs, (15, 30), shapes)
    distinct = [route_line(s, t, h + SLACK) for s, t, h in trips]
    reads = int(rate * seconds)
    order = zipf_order(rng, shapes, reads)
    updates = []
    # One write per 6 s: the stall behind a write (kernel block, two hub
    # heuristics and 32 cached answers rebuilt, ~1 s) must stay a small
    # share of the window or the median read is a stalled one.  The first
    # lands 1.5 s in; none lands in the last 3 s, which are for recovery.
    due = period / 4
    while due < seconds - period / 2:
        edges = rng.choice(scale.num_edges, size=edges_per_update, replace=False)
        costs = {
            str(int(edge)): {
                "offset": int(rng.integers(1, 4)),
                "probs": UPDATE_SHAPES[int(rng.integers(len(UPDATE_SHAPES)))],
            }
            for edge in sorted(edges)
        }
        document = {
            "op": "apply_update",
            "update": {"kind": "cost_update", "slice": None,
                       "source": f"bench:{len(updates)}", "sequence": None,
                       "costs": costs},
        }
        updates.append((due, encode(document)))
        due += period
    return Plan(
        name="update_churn",
        world="scale",
        loop="open",
        connections=2,
        window=0,
        limit_ms=50.0,
        warm=distinct,
        lines=[distinct[k] for k in order],
        rate=rate,
        updates=updates,
        sizes={"shapes": shapes, "hubs": len(hubs), "cells": [15, 30],
               "rate_rps": rate, "reads": reads, "updates": len(updates),
               "edges_per_update": edges_per_update, "period_s": period},
    )


# ----------------------------------------------------------------------
# Hybrid-world workload
# ----------------------------------------------------------------------


def hybrid_search(seed: int) -> Plan:
    network, costs = worlds.hybrid_light()
    preset = get_preset(worlds.HYBRID_PRESET)
    per_band, offsets = 150, 16
    generator = WorkloadGenerator(
        network, costs, budget_factor=preset.budget_factor, seed=seed
    )
    requests = {
        (q.query.source, q.query.target, q.query.budget + offset)
        for queries in generator.generate(preset.bands, per_band).values()
        for q in queries
        for offset in range(offsets)
    }
    ordered = sorted(requests)
    np.random.default_rng(seed).shuffle(ordered)
    return Plan(
        name="hybrid_search",
        world="hybrid",
        loop="closed",
        connections=2,
        window=1,
        limit_ms=300.0,
        warm=[],
        lines=[route_line(*request) for request in ordered],
        sizes={"requests": len(ordered), "ods_per_band": per_band,
               "bands": [band.label for band in preset.bands],
               "budget_offsets": offsets},
    )


WORKLOADS = (
    "hit_replay",
    "warm_miss",
    "cold_miss",
    "shared_frontier",
    "hybrid_search",
    "update_churn",
)


def world_of(name: str) -> str:
    """The world a workload's server builds."""
    return "hybrid" if name == "hybrid_search" else "scale"


def build_plan(name: str, seed: int, seconds: float) -> Plan:
    if name == "hybrid_search":
        return hybrid_search(seed)
    scale = ScaleMap()
    if name == "update_churn":
        return update_churn(seed, scale, seconds)
    builders = {
        "hit_replay": hit_replay,
        "warm_miss": warm_miss,
        "cold_miss": cold_miss,
        "shared_frontier": shared_frontier,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return builders[name](seed, scale)
