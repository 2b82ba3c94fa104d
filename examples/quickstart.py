"""Quickstart: build a network, learn a hybrid model, serve routing queries.

All routing goes through one object — :class:`repro.routing.RoutingEngine`,
the facade a service would expose: single queries under any strategy,
seconds-based budgets, batch routing, and streaming anytime answers.

Runs in well under a minute::

    python examples/quickstart.py
"""

from repro.core import TrainingConfig, train_hybrid
from repro.core.estimator import EstimatorConfig
from repro.experiments import render_table
from repro.ml import MlpConfig
from repro.network import grid_network
from repro.routing import RoutingEngine, RoutingQuery
from repro.trajectories import CongestionModel, TrajectoryStore, TripGenerator


def main() -> None:
    # 1. A city street grid with an arterial hierarchy.
    network = grid_network(8, 8, spacing=250.0, seed=1)
    print(f"network: {network}")

    # 2. Ground-truth traffic: latent congestion states, ~75% of
    #    intersections couple adjacent edge travel times.
    traffic = CongestionModel(network, seed=42)
    print(f"dependent intersections: {traffic.dependent_vertex_fraction():.0%}")

    # 3. A synthetic GPS corpus (the paper uses Danish vehicle trajectories).
    store = TrajectoryStore()
    store.add_all(TripGenerator(network, traffic, seed=7).generate(6000))
    print(f"corpus: {store.num_trajectories} trips, {store.num_traversals} traversals")

    # 4. Train the Hybrid Model: distribution estimator + dependence
    #    classifier (reduced epochs keep the quickstart snappy).
    config = TrainingConfig(
        num_train_pairs=300,
        num_test_pairs=80,
        min_pair_samples=40,
        num_virtual_examples=300,
        virtual_max_prepath=12,
        refinement_rounds=1,
        estimator=EstimatorConfig(
            num_bins=32, mlp=MlpConfig(hidden_sizes=(48, 48), max_epochs=60)
        ),
    )
    trained = train_hybrid(network, store, config, traffic_model=traffic)
    report = trained.report
    print(
        f"held-out KL  convolution={report.kl_convolution:.4f}  "
        f"hybrid={report.kl_hybrid:.4f}  "
        f"(improvement {report.improvement_over_convolution():.0%})"
    )

    # 5. One engine serves all routing traffic for this (network, model)
    #    pair; it owns the shared heuristic/CDF caches.
    engine = RoutingEngine(network, trained.hybrid_model())

    # Budgets can be given in wall-clock seconds; the engine converts onto
    # the distribution grid (here 275 s = 55 ticks at 5 s/tick).
    query = engine.query_from_seconds(source=0, target=63, budget_seconds=275.0)
    result = engine.route(query)  # strategy="pbr" is the default
    print(
        f"query {query.source}->{query.target} within {query.budget} ticks: "
        f"path of {result.num_edges} edges, "
        f"P(on time) = {result.probability:.3f}"
    )
    print(f"ground-truth P(on time) = "
          f"{traffic.path_probability_within(list(result.path), query.budget):.3f}")
    print(f"search: {result.stats.labels_generated} labels generated, "
          f"{result.stats.pruned_total} pruned, "
          f"{result.stats.runtime_seconds * 1000:.1f} ms")

    # 6. Strategies are one keyword away: the expected-time baseline ignores
    #    spread, so its path is usually riskier under the same deadline.
    baseline = engine.route(query, strategy="expected_time")
    print(
        f"expected-time baseline: P(on time) = {baseline.probability:.3f} "
        f"(PBR gains {result.probability - baseline.probability:+.3f})"
    )

    # 7. Batch mode amortises the per-target setup across a workload and
    #    aggregates the search stats; results are wire-ready dicts.
    queries = [query, RoutingQuery(0, 62, 60), RoutingQuery(8, 63, 60)]
    batch = engine.route_many(queries)
    print(
        f"batch: {batch.num_found}/{len(batch)} routed, "
        f"{batch.stats.labels_generated} labels total, "
        f"{batch.stats.runtime_seconds * 1000:.1f} ms"
    )
    print(f"wire format keys: {sorted(batch.results[0].to_dict())}")

    # 8. The anytime extension (experiment E8): a stream of improving answers
    #    under growing wall-clock limits, each one the pivot path when the
    #    search had not finished.  More time never yields a worse answer, and
    #    the stream converges to the unbounded optimum.
    limits = [0.001, 0.005, 0.02, 0.1, 0.5]
    rows = [
        [
            f"{limit:g}",
            f"{bounded.probability:.4f}",
            "completed" if bounded.stats.completed else "timed out",
        ]
        for limit, bounded in zip(limits, engine.route_stream(query, limits))
    ]
    rows.append(["unbounded", f"{result.probability:.4f}", "completed"])
    print(render_table(["Limit (s)", "P(on time)", "Search"], rows))


if __name__ == "__main__":
    main()
