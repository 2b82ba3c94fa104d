"""Serving: one RoutingService behind caches, threads, deadlines and TCP.

A production routing deployment keeps one :class:`repro.service.RoutingService`
alive per road network.  This example walks the serving story in four parts:

1. **time slices and the cache** — peak / off-peak / night cost tables
   behind the stock weekday schedule, repeated OD queries served from the
   versioned result cache, a live congestion update that strands one
   slice's cached answers, and every wire operation sent once as a JSON
   document (``learning_stats`` is in ``learning_loop.py``);
2. **the threaded pool** — a :class:`repro.service.ThreadedFrontend`
   draining one request queue while a live update races the requests,
   every response tagged with the cost version it was computed under;
3. **resilience** — deadline-bounded requests degrading down the ladder, a
   ``FaultInjector`` storm contained by retries, a circuit breaker, and
   blue/green handover with bit-identical answers;
4. **scale-out** — an :class:`repro.service.AsyncFrontend` on TCP with
   single-flight coalescing and demand-driven cache warming after a wire
   update.

Runs in a few seconds::

    python examples/serving.py
"""

import asyncio
import collections
import json
import time

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import grid_network
from repro.routing import RoutingQuery
from repro.service import (
    AsyncFrontend,
    CacheWarmer,
    CostUpdate,
    DemandMatrix,
    FaultInjector,
    RetryPolicy,
    RoutingService,
    ScheduledIncident,
    ThreadedFrontend,
    time_sliced_cost_tables,
)
from repro.trajectories import CongestionModel

TRIPS = [RoutingQuery(0, 62, 60), RoutingQuery(7, 56, 55), RoutingQuery(3, 60, 58)]


def build_service(network, traffic, **options) -> RoutingService:
    """A service over one live table holding every edge's ground-truth marginal."""
    costs = EdgeCostTable(network, resolution=traffic.config.resolution)
    costs.apply_deltas({edge.id: traffic.edge_marginal(edge) for edge in network.edges})
    return RoutingService(network, ConvolutionModel(costs), **options)


def time_slices_and_cache(network, traffic) -> None:
    print("== 1. time slices and the cache ==")
    # One cost table per time-of-day slice (the same conditional
    # distributions, mixed with slice-specific congestion-state weights).
    service = RoutingService.from_time_slices(
        network, time_sliced_cost_tables(network, traffic)
    )
    print(f"service: {service}")
    print(f"schedule: {service.schedule}")

    # Departure-time routing: the same trip at 3 am, 8 am and noon is
    # answered from different cost tables.  60 grid ticks at 5 s/tick = a
    # 5-minute deadline across the grid — comfortable at night, dicey at
    # rush hour.
    commute = TRIPS[0]
    for label, hour in [("03:00", 3), ("08:00", 8), ("12:00", 12)]:
        served = service.route_at(commute, hour * 3600.0)
        print(
            f"  depart {label} -> slice {served.slice_name:>8}: "
            f"P(on time) = {served.result.probability:.3f} over "
            f"{served.result.num_edges} edges"
        )

    # Repeated traffic: the second identical request never searches.  (The
    # loop above already cached the 08:00 answer, so drop it first to time
    # a genuine miss against its hit.)
    service.clear_cache()
    begin = time.perf_counter()
    first = service.route_at(commute, 8 * 3600.0)
    miss_ms = (time.perf_counter() - begin) * 1e3
    begin = time.perf_counter()
    repeat = service.route_at(commute, 8 * 3600.0)
    hit_ms = (time.perf_counter() - begin) * 1e3
    print(
        f"repeat at 08:00: cache_hit {first.cache_hit} -> {repeat.cache_hit} "
        f"({miss_ms:.2f} ms search -> {hit_ms:.3f} ms cached)"
    )

    # A live update: the corridor the peak route uses goes to the heaviest
    # congestion state.  One version bump strands every cached peak answer;
    # night answers stay hot.
    service.route_at(commute, 3 * 3600.0)  # re-warm the night entry
    peak_route = service.route_at(commute, 8 * 3600.0)
    update = CostUpdate.from_congestion(
        traffic,
        list(peak_route.result.path),
        traffic.config.num_states - 1,
        slice_name="peak",
    )
    version = service.apply_cost_update(update)
    rerouted = service.route_at(commute, 8 * 3600.0)
    print(
        f"after update ({len(update)} edges -> version {version}): "
        f"cache_hit={rerouted.cache_hit}, "
        f"P(on time) {peak_route.result.probability:.3f} -> "
        f"{rerouted.result.probability:.3f}"
    )
    night_again = service.route_at(commute, 3 * 3600.0)
    print(f"night slice untouched: cache_hit={night_again.cache_hit}")

    # The same conversation over the JSON wire protocol, one document per
    # operation: routing, a feed update, an incident on the service clock,
    # and the observability and durability documents.
    edge = peak_route.result.path[0]
    relief = CostUpdate({edge.id: traffic.edge_marginal(edge)}, slice_name="peak")
    bridge = ScheduledIncident.capacity_drop("bridge", [edge.id], 2.0, 60.0, 120.0)
    documents = [
        {"op": "route", "query": commute.to_dict(), "slice": "night"},
        {"op": "route_at", "query": commute.to_dict(),
         "departure_time_seconds": 8 * 3600.0},
        {"op": "route_many", "queries": [trip.to_dict() for trip in TRIPS],
         "slice": "off_peak"},
        {"op": "depart_when", "source": commute.source, "target": commute.target,
         "departure_times": [7 * 3600.0, 8 * 3600.0, 12 * 3600.0],
         "budget": commute.budget},
        {"op": "apply_update", "update": relief.to_dict()},
        {"op": "schedule_incident", "incident": bridge.to_dict()},
        {"op": "advance_clock", "now_seconds": 90.0},
        {"op": "incidents"},
        {"op": "stats"},
        {"op": "snapshot"},
    ]
    for document in documents:
        response = json.loads(service.handle_json(json.dumps(document)))
        assert response["ok"], response
        print(f"  wire {document['op']:>17}: kind={response['kind']}")

    # Observability: one stats document tells the serving story.
    stats = service.stats()
    print(
        f"stats: {stats.requests} requests, hit rate {stats.hit_rate:.0%}, "
        f"{stats.cache_entries} entries, {stats.updates_applied} update(s)"
    )
    for name, latency in sorted(stats.strategies.items()):
        print(
            f"  {name}: {latency.requests} requests, "
            f"mean {latency.mean_seconds * 1e3:.2f} ms"
        )


def threaded_pool(network, traffic) -> None:
    print("\n== 2. the threaded pool ==")
    service = build_service(network, traffic)
    requests = [
        {"op": "route", "query": trip.to_dict()} for trip in TRIPS
    ] * 6  # every trip repeated — serving traffic, not a benchmark sweep

    with ThreadedFrontend(service, num_workers=4) as frontend:
        # The burst: all requests queued up front, four workers overlap.
        responses = frontend.map_requests(requests)
        hits = sum(r["cache_hit"] for r in responses)
        print(
            f"burst: {len(responses)} responses from "
            f"{frontend.num_workers} workers, {hits} cache hits"
        )

        # A live update through the same queue, racing further requests.
        # The write lock drains in-flight readers, bumps the version once,
        # and every response still tags the table it was computed against.
        slow_path = service.route(TRIPS[0]).result.path
        update = CostUpdate.from_congestion(
            traffic, list(slow_path), traffic.config.num_states - 1
        )
        futures = [frontend.submit(requests[0]) for _ in range(3)]
        bump = frontend.submit({"op": "apply_update", "update": update.to_dict()})
        futures += [frontend.submit(requests[0]) for _ in range(3)]
        new_version = bump.result()["cost_version"]
        by_version = collections.Counter(f.result()["cost_version"] for f in futures)
        print(f"update -> version {new_version}; responses by version tag:")
        for version, count in sorted(by_version.items()):
            marker = "fresh" if version == new_version else "pre-update"
            print(f"  version {version}: {count} answers ({marker})")

    # Counters: the frontend's queue story and the service's cache story.
    print(f"frontend: {frontend.stats.read()}")
    stats = service.stats()
    print(
        f"service: {stats.requests} requests, hit rate {stats.hit_rate:.0%}, "
        f"{stats.updates_applied} update(s), {stats.cache_entries} cached entries"
    )


def resilience(network, traffic) -> None:
    print("\n== 3. resilience ==")
    service = build_service(network, traffic)
    trip = TRIPS[0]

    # Deadlines over the wire.  A comfortable budget changes nothing — and
    # once the cache is warm, even an already-expired deadline is served
    # from the last-known-good answer instead of failing.
    relaxed = service.handle_request(
        {"op": "route", "query": trip.to_dict(), "deadline_ms": 5_000.0}
    )
    print(
        f"generous deadline: ok={relaxed['ok']} degraded={relaxed['degraded']} "
        f"version={relaxed['cost_version']}"
    )
    edge = service.route(trip).result.path[0]
    service.apply_cost_update(  # strand the fresh entry: version bump
        CostUpdate({edge.id: traffic.edge_marginal(edge)})
    )
    starved = service.handle_request(
        {"op": "route", "query": trip.to_dict(), "deadline_ms": 0.0}
    )
    print(
        f"expired deadline: degraded={starved['degraded']} via "
        f"{starved['fallback_strategy']} (answer from version "
        f"{starved['cost_version']}, table at {service.cost_version()})"
    )

    # A fault storm through the frontend: every request still gets a
    # document, transient crashes are retried, exhausted ones come back as
    # error_kind="internal".
    injector = FaultInjector(seed=11, crash_rate=0.25, slow_rate=0.2, slow_seconds=0.05)
    with ThreadedFrontend(
        service,
        num_workers=4,
        faults=injector,
        retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
    ) as frontend:
        responses = frontend.map_requests([{"op": "route", "query": trip.to_dict()}] * 24)
    answered = sum(r["ok"] for r in responses)
    kinds = sorted({r["error_kind"] for r in responses if not r["ok"]})
    print(
        f"fault storm: {injector.counters()} -> {answered}/{len(responses)} "
        f"answered, {frontend.stats.read()['retries']} retries, "
        f"error kinds {kinds or '(none)'}"
    )

    # The circuit breaker: an impossibly tight deadline misses twice in a
    # row, the breaker opens (fallbacks answer instantly), and after the
    # cooldown one successful probe closes it.  The service clock is
    # injectable, so the demo controls time instead of sleeping: the frozen
    # clock keeps the deadline "unexpired" while the search's real wall
    # clock overruns its cooperative limit.
    class ManualClock:
        now = 0.0

        def __call__(self) -> float:
            return self.now

    clock = ManualClock()
    guarded = build_service(
        network,
        traffic,
        clock=clock,
        breaker_failure_threshold=2,
        breaker_cooldown_seconds=30.0,
    )
    for _ in range(2):
        miss = guarded.route(trip, deadline_seconds=1e-6)
        assert miss.degraded and miss.fallback_strategy == "anytime"
    print(f"after 2 misses: breakers={guarded.stats().breakers}")
    clock.now += 30.0  # the cooldown elapses; the next request is the probe
    probe = guarded.route(trip, deadline_seconds=5.0)
    print(
        f"probe: degraded={probe.degraded} -> breakers="
        f"{guarded.stats().breakers} (trips={guarded.stats().breaker_trips})"
    )

    # Blue/green handover with a sequenced feed.  Green restores blue's
    # mid-feed snapshot, replays the whole feed (the overlap is skipped
    # idempotently), and serves bit-identical answers.
    blue = build_service(network, traffic)
    feed = [
        CostUpdate(
            {
                network.edges[i].id: DiscreteDistribution(
                    traffic.edge_marginal(network.edges[i]).offset + 1,
                    list(traffic.edge_marginal(network.edges[i]).probs),
                )
            },
            sequence=i + 1,
        )
        for i in range(6)
    ]
    for event in feed[:3]:
        blue.apply_cost_update(event)
    snapshot = blue.snapshot(include_cache=True)

    green = build_service(network, traffic)
    green.restore(snapshot)
    for event in feed:  # replay everything: 1..3 skip, 4..6 apply
        green.apply_cost_update(event)
    for event in feed[3:]:
        blue.apply_cost_update(event)
    mine, reference = green.route(trip), blue.route(trip)
    identical = (
        mine.cost_version == reference.cost_version
        and [e.id for e in mine.result.path] == [e.id for e in reference.result.path]
        and mine.result.probability == reference.result.probability
    )
    print(
        f"blue/green: snapshot at feed position {snapshot['feed_position']}, "
        f"replayed {len(feed)} events -> versions "
        f"{green.cost_version()}/{blue.cost_version()}, "
        f"bit-identical={identical}"
    )


async def tcp_client(host: str, port: int, lines: list[str]) -> list[dict]:
    """One pipelined wire client: write every request, then read answers."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(("\n".join(lines) + "\n").encode())
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return responses


async def scale_out(network, traffic) -> None:
    print("\n== 4. scale-out ==")
    # In-flight coalescing switched on; the frontend is wired to a demand
    # census and a cache warmer: every served route is recorded, every
    # applied wire update triggers a background re-warm of the hottest OD
    # pairs.
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, traffic.edge_marginal(edge))
    service = RoutingService(network, ConvolutionModel(costs), coalesce_in_flight=True)
    demand = DemandMatrix()
    warmer = CacheWarmer(service, demand, top_k=32)

    async with AsyncFrontend(
        service, num_workers=4, demand=demand, warmer=warmer, port=0
    ) as frontend:
        host, port = frontend.addresses[0]
        print(f"frontend: listening on {host}:{port}")

        # A burst of identical cold requests over TCP: one search, the rest
        # coalesce onto it (or hit the fresh cache entry).
        burst = [json.dumps({"op": "route", "query": TRIPS[0].to_dict()})] * 8
        responses = await tcp_client(host, port, burst)
        stats = service.stats()
        print(
            f"cold burst of {len(burst)}: {stats.cache_misses} search, "
            f"{stats.coalesced} coalesced, {stats.cache_hits} cache hits -> "
            f"P(on time) = {responses[0]['result']['probability']:.3f}"
        )

        # Steady traffic builds the demand census.
        steady = [
            {"op": "route", "query": TRIPS[i % len(TRIPS)].to_dict()} for i in range(30)
        ]
        await frontend.map_requests(steady, concurrency=8)
        print(f"demand census: {len(demand)} OD shapes, {demand.total} served")
        for entry in demand.top(3):
            print(
                f"  {entry.source:>2} -> {entry.target:>2} "
                f"(budget {entry.budget}): {entry.count} requests"
            )

        # A congestion event lands over the wire: a corridor drops to the
        # heavy state.  The update strands every cached answer — and kicks
        # the warmer in the background.
        update = CostUpdate(
            costs=traffic.cost_update(network.edges[:6], state=2),
            source="congestion:state=2",
        )
        applied = await tcp_client(
            host, port, [json.dumps({"op": "apply_update", "update": update.to_dict()})]
        )
        print(
            f"hot-swap applied: slice {applied[0]['slice']!r} now at "
            f"cost version {applied[0]['cost_version']}"
        )

    # close() waits for the background warm; the next wave hits fresh.
    counters = warmer.stats.read()
    print(
        f"warmer: {counters['warmed']} warmed, {counters['warm_hits']} "
        f"already present, {counters['warm_errors']} errors"
    )
    before = service.stats()
    for query in TRIPS:
        served = service.route(query)
        assert served.cache_hit and not served.degraded
        print(
            f"  post-swap {query.source:>2} -> {query.target:>2}: cache hit "
            f"at version {served.cost_version}, "
            f"P(on time) = {served.result.probability:.3f}"
        )
    after = service.stats()
    print(
        f"post-swap wave: {after.cache_hits - before.cache_hits}/"
        f"{len(TRIPS)} hits — the swap never cratered the hit rate"
    )
    print(f"frontend counters: {frontend.stats.read()}")


def main() -> None:
    network = grid_network(8, 8, spacing=250.0, seed=1)
    traffic = CongestionModel(network, seed=42)
    time_slices_and_cache(network, traffic)
    threaded_pool(network, traffic)
    resilience(network, traffic)
    asyncio.run(scale_out(network, traffic))


if __name__ == "__main__":
    main()
