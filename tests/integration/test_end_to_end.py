"""Integration tests: the full pipeline from corpus to routed answer.

A single world (network + traffic + corpus + trained hybrid, the session's
``trained_world`` in ``tests/conftest.py``) is shared across the tests to
keep the suite fast while still exercising every cross-module seam the
experiments rely on.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    TrainingConfig,
    load_hybrid,
    path_cost,
    save_hybrid,
    train_hybrid,
)
from repro.core.estimator import EstimatorConfig
from repro.histograms import kl_divergence
from repro.ml import MlpConfig
from repro.routing import RoutingEngine, RoutingQuery
from repro.trajectories import TrajectoryStore


@pytest.fixture(scope="module")
def world(trained_world):
    return trained_world


class TestTrainingPipeline:
    def test_report_shape(self, world):
        _, _, _, trained = world
        report = trained.report
        assert report.num_train_pairs > report.num_test_pairs > 0
        assert report.kl_convolution > 0
        assert report.kl_hybrid > 0
        assert 0.0 <= report.estimation_fraction <= 1.0
        assert 0.0 <= report.classifier_accuracy <= 1.0

    def test_hybrid_beats_convolution_on_heldout_kl(self, world):
        """The paper's central model-quality claim."""
        _, _, _, trained = world
        assert trained.report.kl_hybrid < trained.report.kl_convolution

    def test_insufficient_corpus_raises(self, world):
        network, *_ = world
        with pytest.raises(ValueError):
            train_hybrid(network, TrajectoryStore(), TrainingConfig())

    def test_virtual_examples_require_traffic_model(self, world):
        network, _, store, _ = world
        config = TrainingConfig(num_virtual_examples=10)
        with pytest.raises(ValueError):
            train_hybrid(network, store, config)

    def test_training_deterministic(self, world):
        network, traffic, store, trained = world
        config = TrainingConfig(
            num_train_pairs=60,
            num_test_pairs=20,
            min_pair_samples=40,
            estimator=EstimatorConfig(
                num_bins=16, mlp=MlpConfig(hidden_sizes=(16,), max_epochs=10, seed=0)
            ),
            seed=3,
        )
        a = train_hybrid(network, store, config)
        b = train_hybrid(network, store, config)
        assert a.report == b.report


class TestModelAccuracy:
    def test_hybrid_path_cost_tracks_ground_truth(self, world):
        """Multi-edge recursion: hybrid tracks truth better than convolution
        in aggregate (mean KL over random 8-edge walks)."""
        network, traffic, _, trained = world
        rng = np.random.default_rng(0)
        hybrid = trained.hybrid_model()
        convolution = trained.convolution_model()
        kl_hybrid = []
        kl_convolution = []
        for _ in range(15):
            route = [network.edges[int(rng.integers(0, network.num_edges))]]
            while len(route) < 8:
                options = [
                    e for e in network.out_edges(route[-1].target)
                    if e.target != route[-1].source
                ]
                route.append(options[int(rng.integers(0, len(options)))])
            truth = traffic.path_distribution(route)
            kl_hybrid.append(kl_divergence(truth, path_cost(hybrid, route)))
            kl_convolution.append(kl_divergence(truth, path_cost(convolution, route)))
        assert float(np.mean(kl_hybrid)) < float(np.mean(kl_convolution))

    def test_hybrid_stats_accumulate_during_routing(self, world):
        network, _, _, trained = world
        combiner = trained.hybrid_model()
        router = RoutingEngine(network, combiner)
        router.route(RoutingQuery(0, 48, budget=60))
        assert combiner.stats.convolutions + combiner.stats.estimations > 0


class TestRoutingIntegration:
    def test_routed_path_valid_and_scored(self, world):
        network, traffic, _, trained = world
        router = RoutingEngine(network, trained.hybrid_model())
        result = router.route(RoutingQuery(0, 48, budget=60))
        assert result.found
        path = list(result.path)
        assert all(a.target == b.source for a, b in zip(path, path[1:]))
        truth_probability = traffic.path_probability_within(
            list(result.path), 60
        )
        assert 0.0 <= truth_probability <= 1.0

    def test_hybrid_and_convolution_agree_on_trivial_query(self, world):
        network, _, _, trained = world
        query = RoutingQuery(0, 1, budget=30)
        hybrid = RoutingEngine(network, trained.hybrid_model()).route(query)
        conv = RoutingEngine(network, trained.convolution_model()).route(query)
        assert hybrid.path_vertices() == conv.path_vertices()


class TestPersistence:
    def test_roundtrip_preserves_behaviour(self, world, tmp_path):
        network, _, _, trained = world
        save_hybrid(trained, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["classifier"]["backend"] == "logistic"  # files older readers parse
        reloaded = load_hybrid(tmp_path, network)

        assert reloaded.report == trained.report
        route = [next(e for e in network.out_edges(u) if e.target == u + 1) for u in range(3)]
        original = path_cost(trained.hybrid_model(), route)
        restored = path_cost(reloaded.hybrid_model(), route)
        assert original.allclose(restored)

    def test_roundtrip_preserves_routing(self, world, tmp_path):
        network, _, _, trained = world
        save_hybrid(trained, tmp_path)
        reloaded = load_hybrid(tmp_path, network)
        query = RoutingQuery(0, 24, budget=40)
        a = RoutingEngine(network, trained.hybrid_model()).route(query)
        b = RoutingEngine(network, reloaded.hybrid_model()).route(query)
        assert a.probability == pytest.approx(b.probability)
        assert a.path_vertices() == b.path_vertices()

    @pytest.mark.parametrize("backend", ["forest", None, "Logistic"])
    def test_an_unknown_classifier_backend_is_refused(self, world, tmp_path, backend):
        network, _, _, trained = world
        save_hybrid(trained, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["classifier"]["backend"] = backend
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"classifier backend: {backend!r}"):
            load_hybrid(tmp_path, network)


class TestCorpusFidelity:
    def test_empirical_marginals_match_model(self, world):
        """Edge histograms from the corpus converge to the exact marginals."""
        network, traffic, store, _ = world
        counts = Counter(t.edge_id for trip in store for t in trip.traversals)
        edge_id = max(store.edge_ids_with_data(min_samples=100), key=counts.__getitem__)
        empirical = store.edge_histogram(edge_id)
        exact = traffic.edge_marginal(network.edge(edge_id))
        assert kl_divergence(exact, empirical) < 0.05

    def test_gps_pipeline_feeds_store(self, world):
        """GPS emission -> HMM matching -> store, end to end."""
        from repro.trajectories import HmmMapMatcher, MatcherConfig, emit_gps

        network, traffic, _, _ = world
        rng = np.random.default_rng(3)
        route = [network.edges[0]]
        while len(route) < 5:
            options = [
                e for e in network.out_edges(route[-1].target)
                if e.target != route[-1].source
            ]
            route.append(options[0])
        times = traffic.sample_path_times(route, rng)
        trace = emit_gps(
            network, route, times, resolution=5.0, interval=5.0, noise_std=3.0,
            rng=rng,
        )
        matcher = HmmMapMatcher(
            network, config=MatcherConfig(candidate_radius=80.0), resolution=5.0
        )
        matched = matcher.match(trace)
        store = TrajectoryStore()
        store.add(matched)
        assert store.num_traversals == len(matched)
        assert set(matched.edge_ids) & {e.id for e in route}
