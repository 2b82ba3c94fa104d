"""The PR's lock: the full closed loop measurably improves live routing.

One service starts on an *empty* cost table (free-flow point-mass fallback
— it knows nothing about congestion).  Synthetic GPS trips drawn from a
latent-congestion ground truth stream through the learning pipeline; after
each published update the same evaluation queries are routed again and
scored against the ground truth.  The assertions:

* **quality improves** — the mean true on-time probability of served
  routes after learning beats the cold baseline, and the service's own
  probability estimates get dramatically closer to the truth;
* **zero restarts** — the service object, its engines and its slice set
  are the same objects throughout;
* **publishes are gated** — every applied update passed cross-validation;
* **cache invalidation** — answers cached before a publish are not served
  after it (version-keyed miss), and the post-publish answer equals a cold
  engine's answer on the new table.
"""

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.learning import (
    EstimationConfig,
    GateConfig,
    IngestConfig,
    LearningPipeline,
    PipelineConfig,
)
from repro.network import grid_network
from repro.routing import RoutingQuery
from repro.service import RoutingService
from repro.trajectories import CongestionModel, HmmMapMatcher, TripGenerator
from repro.trajectories.congestion import STRUCTURED_CONFIG, CongestionConfig
from repro.trajectories.matching import MatcherConfig

RESOLUTION = 5.0

NUM_TRIPS = 300
BATCH_SIZE = 100
NUM_EVAL_QUERIES = 15


@pytest.fixture(scope="module")
def loop_world():
    """A congestion world where per-edge learning can fully pay off.

    Category-structured severity (arterials congest harder than side
    streets — the trade-off routing must discover) with **independent**
    intersections, so the exact path law equals the convolution of the
    exact marginals and calibration is a fair target for a marginal
    learner.  The session-wide ``world`` fixture keeps the paper's 75%
    dependence and is used everywhere else.
    """
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
        network,
        config=MatcherConfig(candidate_radius=80.0),
        resolution=RESOLUTION,
    )
    generator = TripGenerator(network, truth, seed=7)
    return network, truth, matcher, generator


def build_eval_queries(network, truth, service, rng):
    """OD pairs with budgets ~1.3x the free-flow path time.

    Tight-but-feasible budgets are where PBR pays: with a generous budget
    every path succeeds and learning cannot show up in the score.
    """
    queries = []
    nodes = network.num_vertices
    while len(queries) < NUM_EVAL_QUERIES:
        source = int(rng.integers(0, nodes))
        target = int(rng.integers(0, nodes))
        if source == target:
            continue
        probe = service.route(
            RoutingQuery(source=source, target=target, budget=500)
        )
        if not probe.result.found or len(probe.result.path) < 4:
            continue
        # The empty table serves free-flow point masses, so the probe's
        # distribution mean IS the free-flow path time in ticks.
        free_flow_ticks = int(probe.result.distribution.mean())
        budget = max(4, int(free_flow_ticks * 1.35))
        queries.append(RoutingQuery(source=source, target=target, budget=budget))
    service.clear_cache()
    return queries


def true_quality(truth, service, queries):
    """Mean ground-truth on-time probability of the routes served *now*."""
    scores = []
    estimates = []
    for query in queries:
        served = service.route(query)
        assert served.result.found
        scores.append(
            truth.path_probability_within(served.result.path, query.budget)
        )
        estimates.append(served.result.probability)
    return float(np.mean(scores)), float(np.mean(estimates))


@pytest.fixture(scope="module")
def loop_run(loop_world, as_gps):
    """Run the whole closed loop once; every test reads its record."""
    network, truth, matcher, generator = loop_world
    table = EdgeCostTable(network, resolution=RESOLUTION)
    service = RoutingService(network, ConvolutionModel(table))
    pipeline = LearningPipeline(
        service,
        matcher,
        config=PipelineConfig(
            min_trips_per_update=BATCH_SIZE,
            ingest=IngestConfig(dedup_cell_metres=50.0),
            estimation=EstimationConfig(
                min_samples=8, max_iterations=4, prior_weight=3.0
            ),
            gate=GateConfig(folds=4),
        ),
    )
    rng = np.random.default_rng(23)
    queries = build_eval_queries(network, truth, service, rng)

    identity_before = (
        id(service),
        id(service.engine(service.default_slice)),
        tuple(service.slice_names),
    )
    baseline_quality, baseline_estimate = true_quality(truth, service, queries)

    trips = list(generator.generate(NUM_TRIPS))
    updates = []
    cache_probes = []
    for start in range(0, NUM_TRIPS, BATCH_SIZE):
        batch = []
        for i, trip in enumerate(trips[start : start + BATCH_SIZE]):
            if i % 2 == 0:
                batch.append(as_gps(network, trip, rng=rng))
            else:
                batch.append(trip)
        # Warm the cache on the first eval query, then watch the publish
        # strand it: same query, new version, no hit.
        probe_query = queries[0]
        warm = service.route(probe_query)
        repeat = service.route(probe_query)
        _, update = pipeline.process(batch)
        if update is not None and update.accepted:
            after = service.route(probe_query)
            cold_engine = service.engine(service.default_slice)
            cold = cold_engine.route(probe_query)
            cache_probes.append(
                {
                    "repeat_hit": repeat.cache_hit,
                    "warm_version": warm.cost_version,
                    "after_hit": after.cache_hit,
                    "after_version": after.cost_version,
                    "after_probability": after.result.probability,
                    "cold_probability": cold.probability,
                }
            )
        if update is not None:
            updates.append(update)

    learned_quality, learned_estimate = true_quality(truth, service, queries)
    identity_after = (
        id(service),
        id(service.engine(service.default_slice)),
        tuple(service.slice_names),
    )
    return {
        "service": service,
        "pipeline": pipeline,
        "truth": truth,
        "queries": queries,
        "baseline_quality": baseline_quality,
        "baseline_estimate": baseline_estimate,
        "learned_quality": learned_quality,
        "learned_estimate": learned_estimate,
        "updates": updates,
        "cache_probes": cache_probes,
        "identity": (identity_before, identity_after),
    }


class TestClosedLoop:
    def test_route_quality_improves(self, loop_run):
        assert loop_run["learned_quality"] >= loop_run["baseline_quality"]

    def test_probability_estimates_calibrate(self, loop_run):
        """The cold service estimates on-time probability from free-flow
        point masses — wildly optimistic.  Learning must close most of the
        gap between estimated and true on-time probability."""
        baseline_error = abs(
            loop_run["baseline_estimate"] - loop_run["baseline_quality"]
        )
        learned_error = abs(
            loop_run["learned_estimate"] - loop_run["learned_quality"]
        )
        assert learned_error < baseline_error * 0.5
        assert baseline_error > 0.2  # the cold gap is real, not noise

    def test_at_least_one_gated_publish_happened(self, loop_run):
        accepted = [u for u in loop_run["updates"] if u.accepted]
        assert accepted
        for update in accepted:
            assert update.gate.passed
            assert update.gate.improvement > 0

    def test_zero_restarts(self, loop_run):
        before, after = loop_run["identity"]
        assert before == after

    def test_cache_invalidation_on_publish(self, loop_run):
        probes = loop_run["cache_probes"]
        assert probes
        for probe in probes:
            # Warm worked: the immediate repeat was served from cache.
            assert probe["repeat_hit"]
            # The publish bumped the version and stranded the entry.
            assert probe["after_version"] > probe["warm_version"]
            assert not probe["after_hit"]
            # The fresh answer is exactly what a cold engine computes on
            # the new table — no stale leakage through the cache.
            assert probe["after_probability"] == pytest.approx(
                probe["cold_probability"]
            )

    def test_stats_reflect_the_whole_run(self, loop_run):
        stats = loop_run["pipeline"].stats()
        assert stats.trips_ingested == NUM_TRIPS
        assert stats.estimations_run == len(loop_run["updates"])
        published = [u.published for u in loop_run["updates"] if u.accepted]
        assert stats.updates_published == len(published)
        assert stats.edges_published == sum(len(update) for update in published)
        assert stats.last_sequence is not None

    def test_wire_surface_serves_learning_stats(self, loop_run):
        response = loop_run["service"].handle_request({"op": "learning_stats"})
        assert response["ok"]
        assert response["trips_ingested"] == NUM_TRIPS
