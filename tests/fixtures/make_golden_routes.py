"""Regenerate the golden-route fixtures.

The golden layer pins the *answers* of the routing engine on a small
deterministic world so that any behavioural drift in the search — pruning,
dominance, convolution, tie-breaking — fails loudly in
``tests/routing/test_golden_routes.py``.

Three files are produced next to this script:

* ``golden_world.json`` — the network (``network_to_dict`` format), the
  grid resolution and every edge's cost distribution.  The test rebuilds
  the world from this file, **not** from the generators, so the goldens
  only move when routing behaviour moves.
* ``golden_routes.json`` — expected answers: single-budget ``pbr`` routes,
  multi-budget vectors (verified at generation time to match per-budget
  ``pbr`` runs, route and probability), and k-best frontiers.
* ``golden_service.json`` — a serving-layer trace: a fixed wire-protocol
  request sequence (repeated queries, one live cost update, a stats read)
  plus the expected response skeletons — answers *and* the cache hit/miss
  pattern and cost-version tags.  ``tests/service/test_golden_service.py``
  replays the sequence against a fresh ``RoutingService`` over the golden
  world; any drift in answers, cache behaviour or version tagging fails
  there.  The cost-update document is embedded verbatim in the trace, so
  the replay needs no congestion model.

Update procedure (only after an intentional behaviour change, with the
diff reviewed route by route — for the service trace, hit/miss by
hit/miss)::

    PYTHONPATH=src python tests/fixtures/make_golden_routes.py

The script is deterministic: seeded generators, no time or randomness
outside the fixed seeds.  :func:`render` returns the three texts without
writing them; ``tests/routing/test_golden_routes.py`` compares each with
its committed file, so an unchanged tree regenerates byte for byte.
"""

import json
from pathlib import Path

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from network_codec import network_to_dict
from repro.routing import RoutingEngine, RoutingQuery
from repro.service import CostUpdate, RoutingService
from repro.trajectories import CongestionModel

FIXTURE_DIR = Path(__file__).resolve().parent

#: Single-budget golden queries: (source, target, budget ticks).
PBR_CASES = [
    (0, 24, 40),
    (0, 24, 20),
    (0, 6, 30),
    (5, 3, 35),
    (20, 4, 50),
    (2, 22, 38),
    (12, 0, 45),
    (24, 0, 55),
]

#: Multi-budget golden cases: (source, target, budget vector).
MULTI_BUDGET_CASES = [
    (0, 24, (20, 30, 40, 55)),
    (2, 22, (25, 32, 38, 44, 60)),
    (20, 4, (35, 50, 65)),
]

#: K-best golden cases: (source, target, budget, k).
KBEST_CASES = [
    (2, 22, 38, 3),
    (0, 24, 40, 3),
    (12, 0, 45, 2),
]

#: Service-trace query sequence (source, target, budget): repeats pin the
#: hit/miss pattern before the cost update strands every entry.
SERVICE_SEQUENCE = [
    (0, 24, 40),
    (0, 24, 40),
    (2, 22, 38),
    (0, 24, 40),
    (2, 22, 38),
]


def build_world():
    """The one golden-world definition; every fixture derives from it."""
    network = grid_network(5, 5, seed=2)
    traffic = CongestionModel(network, seed=3)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, traffic.edge_marginal(edge))
    return network, costs, traffic


def serialise_world(network, costs) -> dict:
    return {
        "network": network_to_dict(network),
        "resolution": costs.resolution,
        "costs": {
            str(edge.id): {
                "offset": costs.cost(edge).offset,
                "probs": [float(p) for p in costs.cost(edge).probs],
            }
            for edge in network.edges
        },
    }


def route_payload(result) -> dict:
    return {
        "path": [edge.id for edge in result.path],
        "probability": float(result.probability),
        "found": result.found,
    }


def make_service_trace() -> dict:
    """Record the golden serving trace on a fresh copy of the world.

    The trace interleaves repeated queries (hits), one congestion update
    (heavy state on the first answer's path — strands every cached entry),
    post-update repeats and a stats read.  Expectations pin the answer, the
    hit/miss bit and the cost-version tag of every response.  The world is
    a fresh :func:`build_world` copy: the update must not leak into the
    tables the route goldens were recorded on.
    """
    network, costs, traffic = build_world()
    service = RoutingService(network, ConvolutionModel(costs))

    requests: list[dict] = []
    expect: list[dict] = []

    def replay(request: dict) -> dict:
        response = service.handle_request(request)
        assert response["ok"], response
        requests.append(request)
        return response

    def expect_route(response: dict) -> None:
        expect.append(
            {
                "op": "route",
                "cache_hit": response["cache_hit"],
                "cost_version": response["cost_version"],
                "found": response["result"]["found"],
                "path": response["result"]["path"],
                "probability": response["result"]["probability"],
            }
        )

    for source, target, budget in SERVICE_SEQUENCE:
        query = {"source": source, "target": target, "budget": budget}
        expect_route(replay({"op": "route", "query": query}))

    # One live update: the first served route's corridor goes to the
    # heaviest congestion state.  Embedding the document keeps the replay
    # model-free.
    first_path = [network.edge(edge_id) for edge_id in expect[0]["path"]]
    update = CostUpdate.from_congestion(
        traffic, first_path, traffic.config.num_states - 1
    )
    document = update.to_dict()
    # The fixture's update is unnumbered, written without the key: it
    # predates ``sequence``, and ``CostUpdate.from_dict`` reads an absent
    # one as unnumbered.
    del document["sequence"]
    response = replay({"op": "apply_update", "update": document})
    expect.append(
        {
            "op": "apply_update",
            "cost_version": response["cost_version"],
            "num_edges": response["num_edges"],
        }
    )

    # Every pre-update entry must now be stale: same queries, all misses,
    # new version tags — then one more repeat to prove re-warming.
    for source, target, budget in [*SERVICE_SEQUENCE[:3], SERVICE_SEQUENCE[0]]:
        query = {"source": source, "target": target, "budget": budget}
        expect_route(replay({"op": "route", "query": query}))

    response = replay({"op": "stats"})
    expect.append(
        {
            "op": "stats",
            "cache_hits": response["cache_hits"],
            "cache_misses": response["cache_misses"],
            "hit_rate": response["hit_rate"],
        }
    )
    return {
        "comment": "Regenerate with tests/fixtures/make_golden_routes.py "
        "(see its docstring); never edit by hand.",
        "requests": requests,
        "expect": expect,
    }


def render() -> dict[str, str]:
    """Each fixture's text by file name, exactly as :func:`main` writes it."""
    network, costs, _ = build_world()
    engine = RoutingEngine(network, ConvolutionModel(costs))

    pbr = []
    for source, target, budget in PBR_CASES:
        result = engine.route(RoutingQuery(source, target, budget))
        pbr.append(
            {
                "query": {"source": source, "target": target, "budget": budget},
                **route_payload(result),
            }
        )

    multi = []
    for source, target, budgets in MULTI_BUDGET_CASES:
        answer = engine.route_multi_budget(source, target, budgets)
        per_budget = []
        for budget, member in answer.items():
            reference = engine.route(RoutingQuery(source, target, budget))
            # The acceptance contract: a multi-budget member must be
            # identical to an independent per-budget pbr run.  Refuse to
            # write fixtures that do not satisfy it.
            if [e.id for e in member.path] != [e.id for e in reference.path]:
                raise AssertionError(
                    f"multi-budget route diverged from pbr for "
                    f"{source}->{target} @ {budget}"
                )
            if abs(member.probability - reference.probability) > 1e-9:
                raise AssertionError(
                    f"multi-budget probability diverged from pbr for "
                    f"{source}->{target} @ {budget}"
                )
            per_budget.append({"budget": budget, **route_payload(member)})
        multi.append(
            {
                "source": source,
                "target": target,
                "budgets": list(budgets),
                "results": per_budget,
            }
        )

    kbest = []
    for source, target, budget, k in KBEST_CASES:
        answer = engine.route_kbest(RoutingQuery(source, target, budget), k)
        kbest.append(
            {
                "query": {"source": source, "target": target, "budget": budget},
                "k": k,
                "routes": [route_payload(route) for route in answer.routes],
            }
        )

    routes = {
        "comment": "Regenerate with tests/fixtures/make_golden_routes.py "
        "(see its docstring); never edit by hand.",
        "pbr": pbr,
        "multi_budget": multi,
        "kbest": kbest,
    }
    return {
        name: json.dumps(document, indent=1) + "\n"
        for name, document in (
            ("golden_world.json", serialise_world(network, costs)),
            ("golden_routes.json", routes),
            ("golden_service.json", make_service_trace()),
        )
    }


def main() -> None:
    texts = render()
    for name, text in texts.items():
        (FIXTURE_DIR / name).write_text(text)
    routes = json.loads(texts["golden_routes.json"])
    trace = json.loads(texts["golden_service.json"])
    print(
        f"wrote {len(routes['pbr'])} pbr, {len(routes['multi_budget'])} multi-budget, "
        f"{len(routes['kbest'])} k-best golden cases, "
        f"{len(trace['requests'])} service-trace requests"
    )


if __name__ == "__main__":
    main()
