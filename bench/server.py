"""The server process: one world behind the real ``AsyncFrontend`` listener.

Started by ``bench.lifecycle`` as ``python -m bench.server --world <name>``.
It builds the world, warms the columnar kernel with one engine-level route,
starts ``AsyncFrontend(num_workers=2)`` on an ephemeral port and prints one
``READY {json}`` line carrying that port.  Load arrives only over the TCP
wire.  The process's stdin is a control channel, one JSON object per line,
answered by one JSON line on stdout:

``{"cmd": "status"}``
    peak RSS, ``FrontendStats`` counters and the combiner's decision stats.
``{"cmd": "oracle", "requests": [...], "updates": [...]}``
    cold-engine answers (see ``bench.oracle``); sent to a spare server
    only, never to the one being measured.

End of input shuts the server down, so it cannot outlive its parent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any

from repro.routing import RoutingEngine, RoutingQuery
from repro.routing.heuristics import clear_heuristic_cache
from repro.service import AsyncFrontend, RoutingService

from .oracle import expected_answers
from .worlds import WORLD_NAMES, World, build_world

NUM_WORKERS = 2
#: Large enough that no workload evicts: eviction is not what they measure.
MAX_CACHE_ENTRIES = 16384


def warm_kernel(world: World, engine: RoutingEngine) -> None:
    """One engine-level route, so CSR arrays and kernel blocks exist.

    It goes around the service: no cache entry, no request counted.
    """
    source, target = world.warm_pair
    floor = engine.heuristic_for(target).remaining_ticks(source)
    engine.route(RoutingQuery(source, target, floor + 5))


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: a child's ``ru_maxrss`` starts at
    its parent's resident size at spawn time, so a large benchmark process
    would be charged to the server.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _control_loop(world: World, service: RoutingService, frontend: AsyncFrontend) -> None:
    for line in sys.stdin:
        command = json.loads(line)
        reply: dict[str, Any]
        if command["cmd"] == "status":
            hybrid = getattr(service.engine().combiner, "stats", None)
            reply = {
                "rss_mb": peak_rss_mb(),
                "frontend": frontend.stats.read(),
                "estimation_fraction": (
                    None if hybrid is None else hybrid.estimation_fraction
                ),
            }
        elif command["cmd"] == "oracle":
            reply = {
                "answers": expected_answers(
                    world, command["requests"], command["updates"]
                )
            }
        else:
            reply = {"error": f"unknown cmd {command['cmd']!r}"}
        print(json.dumps(reply), flush=True)


async def _serve(world: World, timings: dict[str, float]) -> None:
    service = RoutingService(
        world.network,
        world.combiner_for(world.costs),
        max_cache_entries=MAX_CACHE_ENTRIES,
    )
    begin = time.perf_counter()
    warm_kernel(world, service.engine())
    timings["routing.columnar.first_route_s"] = time.perf_counter() - begin
    # Each workload's own warm phase decides which targets start warm.
    clear_heuristic_cache()
    async with AsyncFrontend(service, num_workers=NUM_WORKERS, port=0) as frontend:
        ready = {
            "port": frontend.addresses[0][1],
            "world": world.name,
            "cost_version": service.cost_version(),
            "timings": timings,
        }
        print("READY " + json.dumps(ready), flush=True)
        await asyncio.get_running_loop().run_in_executor(
            None, _control_loop, world, service, frontend
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", choices=WORLD_NAMES, required=True)
    args = parser.parse_args()
    world = build_world(args.world)
    asyncio.run(_serve(world, dict(world.timings)))


if __name__ == "__main__":
    main()
