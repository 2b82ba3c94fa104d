"""Unit tests for the hybrid model core: costs, features, estimator,
classifier, combiners and path-cost recursion."""

import numpy as np
import pytest

from repro.core import (
    ClassifierConfig,
    ConvolutionModel,
    DependenceClassifier,
    DistributionEstimator,
    EdgeCostTable,
    EstimationModel,
    EstimatorConfig,
    FeatureConfig,
    HybridModel,
    IntersectionStats,
    PairFeatureExtractor,
    path_cost,
)
from repro.histograms import DiscreteDistribution
from repro.ml import MlpConfig
from repro.network import EdgePair, grid_network
from repro.trajectories import CongestionModel


def first_pair(network):
    """The first consecutive, non-U-turn edge pair in edge-id order."""
    first = network.edges[0]
    second = next(e for e in network.out_edges(first.target) if e.target != first.source)
    return EdgePair(first, second)


@pytest.fixture(scope="module")
def net():
    return grid_network(5, 5, seed=1)


@pytest.fixture(scope="module")
def model(net):
    return CongestionModel(net, seed=2)


@pytest.fixture(scope="module")
def costs(net, model):
    table = EdgeCostTable(net, resolution=5.0)
    for edge in net.edges:
        table.set_cost(edge.id, model.edge_marginal(edge))
    return table


class TestEdgeCostTable:
    def test_fallback_point_mass(self, net):
        table = EdgeCostTable(net, resolution=5.0)
        edge = net.edges[0]
        cost = table.cost(edge)
        assert cost.support_size == 1
        assert cost.min_value == max(1, round(edge.free_flow_time / 5.0))
        assert not table.has_observed_cost(edge.id)

    def test_observed_cost_preferred(self, net, costs):
        edge = net.edges[0]
        assert costs.has_observed_cost(edge.id)
        assert costs.cost(edge).support_size > 1

    def test_min_ticks(self, net, costs):
        edge = net.edges[0]
        assert costs.min_ticks(edge) == costs.cost(edge).min_value

    def test_unknown_edge_rejected(self, net):
        table = EdgeCostTable(net, resolution=5.0)
        with pytest.raises(IndexError):
            table.set_cost(10_000, DiscreteDistribution.point(1))

    def test_bad_resolution(self, net):
        with pytest.raises(ValueError):
            EdgeCostTable(net, resolution=0.0)

    def test_from_store(self, net, model):
        from repro.trajectories import TrajectoryStore, TripGenerator

        store = TrajectoryStore()
        store.add_all(TripGenerator(net, model, seed=1).generate(200))
        table = EdgeCostTable.from_store(net, store, resolution=5.0, min_samples=5)
        assert any(table.has_observed_cost(edge.id) for edge in net.edges)


    def test_free_flow_cost_is_memoised_and_at_least_one_tick(self, net):
        table = EdgeCostTable(net, resolution=1e6)  # every edge rounds to 0 ticks
        edge = net.edges[0]
        cost = table.free_flow_cost(edge)
        assert cost == DiscreteDistribution.point(1)
        assert table.free_flow_cost(edge) is cost

    def test_with_delays_convolves_onto_a_new_table(self, net, model):
        observed, fallback, untouched = net.edges[:3]
        table = EdgeCostTable(net, resolution=5.0)
        table.set_cost(observed.id, model.edge_marginal(observed))
        delay = DiscreteDistribution(0, [0.5, 0.5])
        before = table.to_dict()
        delayed = table.with_delays({observed.id: delay, fallback.id: delay})
        assert delayed.cost(observed) == table.cost(observed).convolve(delay)
        assert delayed.cost(fallback) == table.free_flow_cost(fallback).convolve(delay)
        assert delayed.cost(untouched) == table.cost(untouched)
        assert delayed.version == 1 and delayed.resolution == table.resolution
        assert table.to_dict() == before  # the source table is untouched

    def test_with_no_delays_is_an_equal_copy_at_version_one(self, net, costs):
        copy = costs.with_delays({})
        assert copy is not costs and copy.version == 1
        assert all(copy.cost(edge) == costs.cost(edge) for edge in net.edges)

    def test_with_delays_rejects_speed_ups_and_non_distributions(self, net, costs):
        with pytest.raises(ValueError, match="non-negative"):
            costs.with_delays({0: DiscreteDistribution.point(-1)})
        with pytest.raises(TypeError, match="DiscreteDistribution"):
            costs.with_delays({0: 3})
        with pytest.raises(IndexError):
            costs.with_delays({10_000: DiscreteDistribution.point(1)})


class TestFeatures:
    def test_vector_length_matches_contract(self, net, costs):
        extractor = PairFeatureExtractor(net, config=FeatureConfig(profile_bins=8))
        pair = first_pair(net)
        vector = extractor.extract(
            costs.cost(pair.first), pair.second, costs.cost(pair.second)
        )
        assert vector.shape == (extractor.num_features,)
        assert np.all(np.isfinite(vector))

    def test_intersection_stats_default_zero(self, net):
        extractor = PairFeatureExtractor(net)
        stats = extractor.intersection_stats(0)
        assert stats.mean_mutual_information == 0.0
        assert stats.num_samples == 0

    def test_intersection_stats_injected(self, net, costs):
        extractor = PairFeatureExtractor(net)
        pair = first_pair(net)
        extractor.set_intersection_stats(
            {pair.intersection: IntersectionStats(0.7, 3, 120)}
        )
        with_stats = extractor.extract(
            costs.cost(pair.first), pair.second, costs.cost(pair.second)
        )
        extractor.set_intersection_stats({})
        without = extractor.extract(
            costs.cost(pair.first), pair.second, costs.cost(pair.second)
        )
        assert not np.allclose(with_stats, without)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(profile_bins=1)


class TestEstimator:
    def test_bin_width_adapts(self):
        est = DistributionEstimator(EstimatorConfig(num_bins=8))
        narrow = DiscreteDistribution.uniform(0, 3)
        assert est.bin_width(narrow, narrow) == 1
        wide = DiscreteDistribution.uniform(0, 63)
        assert est.bin_width(wide, wide) == 16

    def test_target_profile_sums_to_one(self, net, model, costs):
        est = DistributionEstimator(EstimatorConfig(num_bins=12))
        pair = first_pair(net)
        pre = costs.cost(pair.first)
        ec = costs.cost(pair.second)
        truth = model.pair_ground_truth(pair)
        profile = est.target_profile(truth, pre, ec)
        assert profile.sum() == pytest.approx(1.0)
        assert profile.shape == (12,)

    def test_target_profile_clamps_below_anchor(self):
        est = DistributionEstimator(EstimatorConfig(num_bins=4))
        pre = DiscreteDistribution.point(5)
        ec = DiscreteDistribution.point(5)
        truth = DiscreteDistribution.from_mapping({8: 0.5, 11: 0.5})
        profile = est.target_profile(truth, pre, ec)
        assert profile[0] == pytest.approx(0.5)  # mass below anchor 10
        assert profile[1] == pytest.approx(0.5)

    def test_fit_predict_roundtrip(self):
        rng = np.random.default_rng(0)
        est = DistributionEstimator(
            EstimatorConfig(num_bins=6, mlp=MlpConfig(hidden_sizes=(8,), max_epochs=30))
        )
        X = rng.normal(size=(120, 5))
        Y = np.zeros((120, 6))
        Y[X[:, 0] > 0, 1] = 1.0
        Y[X[:, 0] <= 0, 4] = 1.0
        est.fit(X, Y)
        profiles = est.predict_profiles(X)
        assert profiles.shape == (120, 6)
        assert np.allclose(profiles.sum(axis=1), 1.0)

    def test_predict_distribution_anchoring(self):
        est = DistributionEstimator(
            EstimatorConfig(num_bins=4, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
        )
        X = np.zeros((10, 3))
        Y = np.tile([0.25, 0.25, 0.25, 0.25], (10, 1))
        est.fit(X, Y)
        pre = DiscreteDistribution.point(7)
        ec = DiscreteDistribution.point(3)
        dist = est.predict_distribution(np.zeros(3), pre, ec)
        assert dist.min_value >= 10  # anchored at pre.min + edge.min
        # The block form anchors each row at its own edge's minimum.
        far = DiscreteDistribution.point(30)
        block = est.predict_distributions(np.zeros((2, 3)), pre, [ec, far])
        assert block[0] == dist
        assert block[1].min_value >= 37

    def test_wide_bins_spread_uniformly(self):
        est = DistributionEstimator(
            EstimatorConfig(num_bins=2, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
        )
        X = np.zeros((10, 3))
        Y = np.tile([0.5, 0.5], (10, 1))
        est.fit(X, Y)
        pre = DiscreteDistribution.uniform(0, 9)
        ec = DiscreteDistribution.uniform(0, 9)
        dist = est.predict_distribution(np.zeros(3), pre, ec)
        # width = ceil(19/2) = 10 -> support spans both bins
        assert dist.support_size > 2

    def test_unfitted_raises(self):
        est = DistributionEstimator()
        with pytest.raises(RuntimeError):
            est.predict_profiles(np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            est.predict_distributions(np.zeros((1, 3)), DiscreteDistribution.point(1), [])

    def test_wrong_target_width(self):
        est = DistributionEstimator(EstimatorConfig(num_bins=8))
        with pytest.raises(ValueError):
            est.fit(np.zeros((4, 2)), np.ones((4, 5)) / 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(num_bins=1)

    def test_fit_on_no_rows_raises(self):
        est = DistributionEstimator(EstimatorConfig(num_bins=8))
        with pytest.raises(ValueError, match="no rows"):
            est.fit(np.zeros((0, 3)), np.zeros((0, 8)))
        with pytest.raises(RuntimeError):
            est.predict_profiles(np.zeros((1, 3)))


class TestClassifier:
    def _features(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(int)
        return X, y

    def test_learns_labels(self):
        X, y = self._features()
        clf = DependenceClassifier().fit(X, y)
        decisions = clf.decide_batch(X)
        assert (decisions.astype(int) == y).mean() > 0.9

    def test_single_class_collapses_to_constant(self):
        X = np.zeros((10, 2))
        clf = DependenceClassifier().fit(X, np.ones(10, dtype=int))
        assert clf.should_estimate(np.zeros(2))
        assert clf.decide_rows(np.zeros((3, 2))).tolist() == [True] * 3
        clf0 = DependenceClassifier().fit(X, np.zeros(10, dtype=int))
        assert not clf0.should_estimate(np.zeros(2))
        assert clf0.decide_rows(np.zeros((3, 2))).tolist() == [False] * 3

    def test_threshold_shifts_decisions(self):
        X, y = self._features()
        low = DependenceClassifier(ClassifierConfig(threshold=0.1)).fit(X, y)
        high = DependenceClassifier(ClassifierConfig(threshold=0.9)).fit(X, y)
        assert low.decide_batch(X).sum() >= high.decide_batch(X).sum()

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            DependenceClassifier().fit(np.zeros((2, 1)), np.asarray([0, 2]))

    def test_unfitted(self):
        with pytest.raises(RuntimeError):
            DependenceClassifier().should_estimate(np.zeros(2))
        with pytest.raises(RuntimeError):
            DependenceClassifier().decide_rows(np.zeros((2, 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassifierConfig(threshold=0.0)

    def test_fit_on_no_rows_raises(self):
        """No rows would fit a NaN scaler: every served decision "convolve"."""
        clf = DependenceClassifier()
        with pytest.raises(ValueError, match="no rows"):
            clf.fit(np.zeros((0, 3)), np.zeros(0, int))
        with pytest.raises(RuntimeError):
            clf.decide_rows(np.zeros((2, 3)))


class TestCombinersAndPathCost:
    def test_convolution_model_combines_exactly(self, net, costs):
        conv = ConvolutionModel(costs)
        pair = first_pair(net)
        pre = costs.cost(pair.first)
        combined = conv.combine(pre, pair.second)
        assert combined.allclose(pre.convolve(costs.cost(pair.second)))
        assert conv.exact_under_truncation

    def test_path_cost_matches_manual_fold(self, net, costs):
        conv = ConvolutionModel(costs)
        route = [net.edges[0]]
        for _ in range(3):
            options = [
                e for e in net.out_edges(route[-1].target)
                if e.target != route[-1].source
            ]
            route.append(options[0])
        manual = costs.cost(route[0])
        for edge in route[1:]:
            manual = manual.convolve(costs.cost(edge))
        assert path_cost(conv, route).allclose(manual)

    def test_empty_path_raises(self, net, costs):
        with pytest.raises(ValueError):
            path_cost(ConvolutionModel(costs), [])

    def test_disconnected_path_raises(self, net, costs):
        e1 = net.edges[0]
        e2 = next(e for e in net.edges if e.source != e1.target)
        with pytest.raises(ValueError):
            path_cost(ConvolutionModel(costs), [e1, e2])

    def test_hybrid_records_decisions(self, net, costs):
        # constant-estimate classifier and a trivially fitted estimator
        extractor = PairFeatureExtractor(net)
        est = DistributionEstimator(
            EstimatorConfig(num_bins=4, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
        )
        X = np.zeros((10, extractor.num_features))
        Y = np.tile([0.25, 0.25, 0.25, 0.25], (10, 1))
        est.fit(X, Y)
        clf = DependenceClassifier().fit(
            np.zeros((4, extractor.num_features)), np.asarray([1, 1, 1, 1])
        )
        hybrid = HybridModel(costs, est, clf, extractor)
        route = [next(e for e in net.out_edges(u) if e.target == u + 1) for u in (0, 1)]
        path_cost(hybrid, route)
        assert hybrid.stats.estimations == 1
        assert hybrid.stats.convolutions == 0
        assert hybrid.stats.estimation_fraction == 1.0

    def test_estimation_model_always_estimates(self, net, costs):
        extractor = PairFeatureExtractor(net)
        est = DistributionEstimator(
            EstimatorConfig(num_bins=4, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
        )
        est.fit(
            np.zeros((10, extractor.num_features)),
            np.tile([0.25, 0.25, 0.25, 0.25], (10, 1)),
        )
        em = EstimationModel(costs, est, extractor)
        pair = first_pair(net)
        combined = em.combine(costs.cost(pair.first), pair.second)
        anchor = costs.cost(pair.first).min_value + costs.cost(pair.second).min_value
        assert combined.min_value >= anchor
        assert not em.exact_under_truncation
