"""Unit tests for the trajectory store, types and dependence statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from repro.histograms import JointDistribution
from repro.network import grid_network
from repro.trajectories import (
    CongestionConfig,
    CongestionModel,
    EdgeTraversal,
    GpsPoint,
    GpsTrajectory,
    MatchedTrajectory,
    TrajectoryStore,
    TripConfig,
    TripGenerator,
    dependence_report,
    pair_dependence,
)


class TestTypes:
    def test_matched_from_times(self):
        t = MatchedTrajectory.from_times(1, [4, 7, 9], [2, 3, 1])
        assert t.edge_ids == (4, 7, 9)
        assert t.total_travel_time == 6
        assert t.traversals[1].enter_time == 2

    def test_from_times_length_mismatch(self):
        with pytest.raises(ValueError):
            MatchedTrajectory.from_times(1, [1, 2], [1])

    def test_traversal_requires_positive_time(self):
        with pytest.raises(ValueError):
            EdgeTraversal(0, 0, 0)

    def test_consecutive_pairs(self):
        t = MatchedTrajectory.from_times(1, [4, 7, 9], [2, 3, 1])
        pairs = t.consecutive_pairs()
        assert len(pairs) == 2
        assert pairs[0][0].edge_id == 4
        assert pairs[0][1].edge_id == 7

    def test_gps_trajectory_requires_sorted_times(self):
        with pytest.raises(ValueError):
            GpsTrajectory(0, (GpsPoint(5.0, 0, 0), GpsPoint(1.0, 0, 0)))

    def test_gps_duration(self):
        t = GpsTrajectory(0, (GpsPoint(2.0, 0, 0), GpsPoint(12.0, 1, 1)))
        assert t.duration == 10.0
        assert len(t) == 2


class TestStore:
    @pytest.fixture
    def store(self):
        store = TrajectoryStore()
        store.add(MatchedTrajectory.from_times(0, [1, 2, 3], [5, 6, 7]))
        store.add(MatchedTrajectory.from_times(1, [1, 2], [4, 8]))
        return store

    def test_counts(self, store):
        assert store.num_trajectories == 2
        assert store.num_traversals == 5
        assert len(store) == 2

    def test_edge_ids_with_data(self, store):
        assert store.edge_ids_with_data() == [1, 2, 3]
        assert store.edge_ids_with_data(min_samples=2) == [1, 2]

    def test_edge_histogram(self, store):
        h = store.edge_histogram(1)
        assert h.prob_at(4) == pytest.approx(0.5)
        assert h.prob_at(5) == pytest.approx(0.5)

    def test_edge_histogram_min_samples(self, store):
        with pytest.raises(ValueError):
            store.edge_histogram(3, min_samples=2)

    def test_pair_samples(self, store):
        assert store.pair_samples((1, 2)) == [(5, 6), (4, 8)]
        assert len(store.pair_samples((2, 3))) == 1

    def test_pair_keys_with_data(self, store):
        assert store.pair_keys_with_data() == [(1, 2), (2, 3)]
        assert store.pair_keys_with_data(min_samples=2) == [(1, 2)]

    def test_pair_total_cost(self, store):
        total = store.pair_total_cost((1, 2))
        assert total.prob_at(11) == pytest.approx(0.5)
        assert total.prob_at(12) == pytest.approx(0.5)

    def test_iteration(self, store):
        assert [t.id for t in store] == [0, 1]


class TestTripGenerator:
    @pytest.fixture(scope="class")
    def setup(self):
        net = grid_network(6, 6, seed=2)
        model = CongestionModel(net, seed=3)
        return net, model

    def test_generates_requested_count(self, setup):
        net, model = setup
        generator = TripGenerator(net, model, seed=0)
        trips = list(generator.generate(25))
        assert len(trips) == 25

    def test_trips_are_paths(self, setup):
        net, model = setup
        generator = TripGenerator(net, model, seed=1)
        for trip in generator.generate(10):
            edges = [net.edge(eid) for eid in trip.edge_ids]
            assert all(a.target == b.source for a, b in zip(edges, edges[1:]))

    def test_trip_ids_unique(self, setup):
        net, model = setup
        generator = TripGenerator(net, model, seed=2)
        ids = [t.id for t in generator.generate(15)]
        assert len(set(ids)) == 15

    def test_length_bounds_respected(self, setup):
        net, model = setup
        config = TripConfig(min_edges=3, max_edges=5)
        generator = TripGenerator(net, model, config=config, seed=3)
        for trip in generator.generate(10):
            assert 3 <= len(trip) <= 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TripConfig(min_edges=0)
        with pytest.raises(ValueError):
            TripConfig(min_edges=5, max_edges=2)

    def test_deterministic(self, setup):
        net, model = setup
        a = [t.edge_ids for t in TripGenerator(net, model, seed=9).generate(5)]
        b = [t.edge_ids for t in TripGenerator(net, model, seed=9).generate(5)]
        assert a == b


class TestDependenceStatistics:
    @pytest.fixture(scope="class")
    def corpus(self):
        net = grid_network(6, 6, seed=2)
        dependent = CongestionModel(
            net, CongestionConfig(dependence_probability=1.0, rho_range=(0.9, 0.95)), seed=3
        )
        independent = CongestionModel(
            net, CongestionConfig(dependence_probability=0.0), seed=3
        )
        stores = {}
        for name, model in (("dep", dependent), ("ind", independent)):
            store = TrajectoryStore()
            store.add_all(TripGenerator(net, model, seed=4).generate(1500))
            stores[name] = (store, model)
        return net, stores

    def test_dependent_corpus_flagged(self, corpus):
        _, stores = corpus
        store, _ = stores["dep"]
        report = dependence_report(store, min_samples=40)
        assert report.num_pairs_tested > 0
        assert report.dependent_fraction > 0.6

    def test_independent_corpus_not_flagged(self, corpus):
        _, stores = corpus
        store, _ = stores["ind"]
        report = dependence_report(store, min_samples=40)
        assert report.num_pairs_tested > 0
        # At alpha=0.05, false positives should stay near the alpha level.
        assert report.dependent_fraction < 0.3

    def test_pair_dependence_requires_samples(self, corpus):
        _, stores = corpus
        store, _ = stores["dep"]
        with pytest.raises(ValueError):
            pair_dependence(store, (99_999, 99_998), min_samples=10)

    def test_pair_dependence_fields(self, corpus):
        _, stores = corpus
        store, _ = stores["dep"]
        key = store.pair_keys_with_data(min_samples=40)[0]
        result = pair_dependence(store, key, min_samples=40)
        assert result.num_samples >= 40
        assert 0.0 <= result.p_value <= 1.0
        assert result.mutual_information >= 0.0

    def test_report_fraction_zero_when_untested(self):
        report = dependence_report(TrajectoryStore(), min_samples=10)
        assert report.num_pairs_tested == 0
        assert report.dependent_fraction == 0.0

    # The chi-square tail is the special function ``scipy.stats.chi2.sf``
    # itself calls, so serving never imports ``scipy.stats`` (tens of MiB
    # and most of a second per process).
    def test_serving_imports_leave_scipy_stats_out(self):
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys, repro.service, repro.routing, repro.core; "
            "print('scipy.stats' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_p_values_equal_chi2_sf_bit_for_bit(self, corpus, monkeypatch):
        _, stores = corpus
        store, _ = stores["dep"]
        key = store.pair_keys_with_data(min_samples=40)[0]
        statistics = [0.0, 1e-300, 1e-3, 0.5, 1.0, 3.84, 10.0, 57.3, 400.0, 1e4, np.inf]
        checked = 0
        for dof in (1, 2, 3, 4, 7, 12, 30, 99, 400):
            for statistic in statistics:
                monkeypatch.setattr(
                    JointDistribution, "chi_square_statistic", lambda self, n: (statistic, dof)
                )
                p_value = pair_dependence(store, key, min_samples=40).p_value
                expected = float(chi2.sf(statistic, dof))
                assert np.array_equal(p_value, expected), (statistic, dof)
                checked += 1
        assert checked == 99
