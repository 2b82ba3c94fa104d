"""Multi-budget batch serving: budget sweeps, k-best alternatives, batches.

The paper's evaluation sweeps whole budget ranges over whole query
workloads.  This example shows the engine-side support for that shape of
traffic:

* ``route_multi_budget`` — one label search answers a whole budget vector
  (a departure-time slider in a trip planner: "how much does leaving 5
  minutes earlier buy me?");
* ``route_kbest`` — the top-k non-dominated routes, so a dispatcher can
  offer alternatives instead of a single take-it-or-leave-it path;
* ``route_many`` — a batch answered serially, grouped by target so each
  target's heuristic is built once, with found / no-route / unanswered
  outcome counters.

No model training here — edge marginals come straight from the congestion
ground truth, so the example runs in seconds::

    python examples/multi_budget_batch.py
"""

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import RoutingEngine, RoutingQuery
from repro.trajectories import CongestionModel


def main() -> None:
    # 1. A city grid with congestion-model edge marginals (5 s grid ticks).
    network = grid_network(8, 8, spacing=250.0, seed=1)
    traffic = CongestionModel(network, seed=42)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, traffic.edge_marginal(edge))
    engine = RoutingEngine(network, ConvolutionModel(costs))
    print(f"network: {network}")

    # 2. One search, a whole budget vector: corner to corner, budgets from
    #    tight to generous.  Compare with running six pbr queries.
    source, target = 0, 63
    budgets = [40, 50, 60, 70, 85, 100]
    sweep = engine.route_multi_budget(source, target, budgets)
    print(f"\nbudget sweep {source} -> {target} "
          f"(one search, {sweep.stats.labels_generated} labels):")
    for budget, result in sweep.items():
        print(
            f"  budget {budget * engine.resolution:6.0f} s  "
            f"P(on time) = {result.probability:6.1%}   "
            f"{len(result.path)} edges"
        )

    # 3. Alternatives: the top-3 non-dominated routes under one deadline.
    query = RoutingQuery(source, target, 70)
    kbest = engine.route_kbest(query, k=3)
    print(f"\ntop-{kbest.k} routes for budget {query.budget * engine.resolution:.0f} s:")
    for rank, route in enumerate(kbest.routes, start=1):
        print(
            f"  #{rank}: P(on time) = {route.probability:6.1%}, "
            f"{len(route.path)} edges via {route.path_vertices()[1:4]}..."
        )

    # 4. Batch serving: one target-grouped serial pass over the batch.
    queries = [
        RoutingQuery(s, t, b)
        for s, t, b in [
            (0, 63, 70), (1, 63, 75), (8, 63, 65), (9, 63, 70),
            (0, 56, 60), (2, 56, 65), (63, 7, 80), (14, 7, 40),
        ]
    ]
    batch = engine.route_many(queries)
    print(
        f"\nbatch of {len(queries)} queries: "
        f"{batch.num_found} found, {batch.num_no_route} without a route, "
        f"{batch.num_unanswered} unanswered"
    )
    print(f"aggregated labels generated: {batch.stats.labels_generated}")


if __name__ == "__main__":
    main()
