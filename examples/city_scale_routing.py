"""Country-scale routing demo: hybrid vs convolution on a multi-town network.

Builds the hierarchical "denmark-like" network (towns joined by parallel
motorway / old-road corridors), trains the hybrid, and contrasts the two
combiners on an intercity query — the regime where convolution's
independence assumption accumulates the most error (experiment E5's long
band).  This is the heaviest example (~1 minute).
"""

from repro.network import denmark_like_network
from repro.core import TrainingConfig, train_hybrid
from repro.core.estimator import EstimatorConfig
from repro.ml import MlpConfig
from repro.routing import RoutingEngine, RoutingQuery
from repro.trajectories import (
    STRUCTURED_CONFIG,
    CongestionModel,
    TrajectoryStore,
    TripGenerator,
)


def main() -> None:
    network = denmark_like_network(
        num_towns=2, town_rows=7, town_cols=7, intercity_distance=3000.0, seed=3
    )
    print(f"network: {network}")
    traffic = CongestionModel(network, STRUCTURED_CONFIG, seed=3)

    store = TrajectoryStore()
    store.add_all(TripGenerator(network, traffic, seed=4).generate(8000))
    trained = train_hybrid(
        network,
        store,
        TrainingConfig(
            num_train_pairs=400,
            num_test_pairs=100,
            min_pair_samples=40,
            num_virtual_examples=400,
            virtual_max_prepath=30,
            refinement_rounds=1,
            estimator=EstimatorConfig(
                num_bins=48, mlp=MlpConfig(hidden_sizes=(64, 64), max_epochs=80)
            ),
        ),
        traffic_model=traffic,
    )
    print(
        f"held-out KL: convolution={trained.report.kl_convolution:.4f} "
        f"hybrid={trained.report.kl_hybrid:.4f}"
    )

    # Intercity query: town-0 centre to town-1 centre, budget 1.5x the
    # optimistic minimum travel time (read off the engine's shared
    # heuristic — the same reverse Dijkstra the search itself uses).
    source, target = 24, 49 + 24  # centres of the two 7x7 towns
    engines = {
        "hybrid": RoutingEngine(network, trained.hybrid_model()),
        "convolution": RoutingEngine(network, trained.convolution_model()),
    }
    optimistic = engines["hybrid"].heuristic_for(target).remaining_ticks(source)
    query = RoutingQuery(source, target, budget=int(1.5 * optimistic))
    print(f"\nintercity query {source} -> {target}, budget {query.budget} ticks")

    for name, engine in engines.items():
        result = engine.route(query)
        truth_probability = traffic.path_probability_within(
            list(result.path), query.budget
        )
        print(
            f"  {name:12s}: {result.num_edges:2d} edges, "
            f"model P = {result.probability:.3f}, "
            f"ground-truth P = {truth_probability:.3f}, "
            f"{result.stats.runtime_seconds * 1000:6.1f} ms"
        )


if __name__ == "__main__":
    main()
