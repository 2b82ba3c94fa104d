"""The closed learning loop: GPS trips in, better live routes out.

A routing service starts cold — its cost table knows only free-flow times,
so it is certain every trip arrives on time and its route choices ignore
congestion entirely.  This example closes the paper's loop around it:

1. a ground-truth congestion world generates synthetic commuter trips and
   emits noisy GPS traces for them;
2. a ``LearningPipeline`` ingests the traces (HMM map matching +
   OD-signature dedup), re-estimates per-edge travel-time histograms
   (EM-style reallocation with serving-table priors), cross-validates the
   batch against what the service currently serves, and — only on a pass —
   publishes a versioned ``CostUpdate`` into the **running** service;
3. after every batch the same evaluation queries are re-routed and scored
   against the ground truth: the true on-time probability of the served
   routes rises, and the service's own probability estimates stop being
   fantasy (calibration error shrinks severalfold);
4. the service is never restarted — the ``learning_stats`` wire op shows
   the whole run's accounting from inside the serving process.

Runs in a few seconds::

    python examples/learning_loop.py
"""

import numpy as np

from repro.core import ConvolutionModel, EdgeCostTable
from repro.learning import (
    EstimationConfig,
    GateConfig,
    LearningPipeline,
    PipelineConfig,
)
from repro.network import grid_network
from repro.routing import RoutingQuery
from repro.service import RoutingService
from repro.trajectories import (
    CongestionModel,
    HmmMapMatcher,
    TripGenerator,
    emit_gps,
)
from repro.trajectories.congestion import STRUCTURED_CONFIG, CongestionConfig
from repro.trajectories.matching import MatcherConfig

RESOLUTION = 5.0
NUM_TRIPS = 300
BATCH_SIZE = 100


def build_world():
    network = grid_network(6, 6, spacing=300.0, seed=1)
    truth = CongestionModel(
        network,
        CongestionConfig(
            category_multipliers=STRUCTURED_CONFIG.category_multipliers,
            dependence_probability=0.0,
        ),
        seed=2,
    )
    matcher = HmmMapMatcher(
        network, config=MatcherConfig(candidate_radius=80.0), resolution=RESOLUTION
    )
    return network, truth, matcher


def as_gps(network, trip, rng):
    """Re-emit a ground-truth trip as the noisy GPS trace a phone records."""
    route = [network.edge(edge_id) for edge_id in trip.edge_ids]
    times = [traversal.travel_time for traversal in trip.traversals]
    return emit_gps(
        network,
        route,
        times,
        resolution=RESOLUTION,
        trajectory_id=trip.id,
        noise_std=5.0,
        rng=rng,
    )


def eval_queries(network, service, rng, count=15):
    """OD pairs with budgets ~1.35x free flow — tight enough to matter."""
    queries = []
    while len(queries) < count:
        source = int(rng.integers(0, network.num_vertices))
        target = int(rng.integers(0, network.num_vertices))
        if source == target:
            continue
        probe = service.route(RoutingQuery(source=source, target=target, budget=500))
        if not probe.result.found or len(probe.result.path) < 4:
            continue
        budget = max(4, int(probe.result.distribution.mean() * 1.35))
        queries.append(RoutingQuery(source=source, target=target, budget=budget))
    service.clear_cache()
    return queries


def score(truth, service, queries):
    """(mean true on-time probability, mean service-estimated probability)."""
    true_scores, estimates = [], []
    for query in queries:
        served = service.route(query)
        true_scores.append(
            truth.path_probability_within(served.result.path, query.budget)
        )
        estimates.append(served.result.probability)
    return float(np.mean(true_scores)), float(np.mean(estimates))


def main() -> None:
    network, truth, matcher = build_world()
    service = RoutingService(
        network, ConvolutionModel(EdgeCostTable(network, resolution=RESOLUTION))
    )
    pipeline = LearningPipeline(
        service,
        matcher,
        config=PipelineConfig(
            min_trips_per_update=BATCH_SIZE,
            estimation=EstimationConfig(
                min_samples=8, max_iterations=4, prior_weight=3.0
            ),
            gate=GateConfig(folds=4),
        ),
    )
    rng = np.random.default_rng(23)
    queries = eval_queries(network, service, rng)

    print("== 1. The cold service ==")
    base_true, base_estimate = score(truth, service, queries)
    print(
        f"true on-time probability {base_true:.3f}, but the service claims "
        f"{base_estimate:.3f} — free-flow certainty, calibration error "
        f"{abs(base_estimate - base_true):.3f}"
    )

    print("\n== 2. Trips stream in ==")
    trips = list(TripGenerator(network, truth, seed=7).generate(NUM_TRIPS))
    for start in range(0, NUM_TRIPS, BATCH_SIZE):
        batch = [
            as_gps(network, trip, rng) if index % 2 == 0 else trip
            for index, trip in enumerate(trips[start : start + BATCH_SIZE])
        ]
        _, update = pipeline.process(batch)
        verdict = "no update due"
        if update is not None:
            gate = update.gate
            if update.accepted:
                verdict = (
                    f"gate PASS (+{gate.improvement:.3f} nats held-out) -> "
                    f"published seq {update.published.sequence}, cost version "
                    f"{service.cost_version()}"
                )
            else:
                verdict = f"gate FAIL ({gate.improvement:+.3f} nats) -> kept serving"
        now_true, now_estimate = score(truth, service, queries)
        print(
            f"after {start + BATCH_SIZE:3d} trips: {verdict}; "
            f"true {now_true:.3f}, estimate {now_estimate:.3f}"
        )

    print("\n== 3. The learned service ==")
    learned_true, learned_estimate = score(truth, service, queries)
    shrink = abs(base_estimate - base_true) / max(
        abs(learned_estimate - learned_true), 1e-9
    )
    print(
        f"true on-time probability {base_true:.3f} -> {learned_true:.3f}, "
        f"calibration error shrank {shrink:.1f}x — no restart, "
        f"cost version {service.cost_version()}"
    )

    print("\n== 4. learning_stats over the wire ==")
    response = service.handle_request({"op": "learning_stats"})
    for key in (
        "trips_ingested",
        "trips_deduped",
        "gate_passes",
        "gate_failures",
        "updates_published",
        "last_sequence",
    ):
        print(f"  {key}: {response[key]}")

    assert learned_true >= base_true
    assert shrink >= 2.0
    print("\nThe loop closed: measured improvement, zero restarts.")


if __name__ == "__main__":
    main()
