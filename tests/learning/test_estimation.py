"""HistogramEstimator: EM reallocation, convergence, priors."""

import pytest

from repro.histograms import DiscreteDistribution
from repro.learning import (
    EdgeEstimate,
    EstimationConfig,
    HistogramEstimator,
    pooled_fallbacks,
)
from repro.network import RoadCategory, RoadNetwork
from repro.trajectories import MatchedTrajectory, TrajectoryStore


def trip(trip_id, edge_times):
    return MatchedTrajectory.from_times(
        trip_id,
        [edge_id for edge_id, _ in edge_times],
        [ticks for _, ticks in edge_times],
    )


class TestBasics:
    def test_empty_corpus_is_empty_result(self):
        result = HistogramEstimator().estimate([])
        assert len(result) == 0
        assert result.converged
        assert result.histograms() == {}

    def test_accepts_store_or_iterable(self):
        trips = [trip(i, [(0, 4), (1, 6)]) for i in range(6)]
        store = TrajectoryStore()
        store.add_all(trips)
        config = EstimationConfig(min_samples=2)
        from_store = HistogramEstimator(config=config).estimate(store)
        from_list = HistogramEstimator(config=config).estimate(trips)
        assert set(from_store.estimates) == set(from_list.estimates) == {0, 1}
        for edge_id in (0, 1):
            assert from_store.estimates[edge_id].distribution.allclose(
                from_list.estimates[edge_id].distribution
            )

    def test_min_samples_filters_thin_edges(self):
        trips = [trip(i, [(0, 5)]) for i in range(10)]
        trips.append(trip(99, [(1, 5)]))
        result = HistogramEstimator(
            config=EstimationConfig(min_samples=5)
        ).estimate(trips)
        assert 0 in result.estimates
        assert 1 not in result.estimates
        assert result.estimates[0].num_samples == 10

    def test_histograms_are_normalised_distributions(self):
        trips = [trip(i, [(0, 3 + i % 4), (1, 7)]) for i in range(8)]
        result = HistogramEstimator(
            config=EstimationConfig(min_samples=3)
        ).estimate(trips)
        for estimate in result.estimates.values():
            probs = estimate.distribution.probs
            assert abs(float(probs.sum()) - 1.0) < 1e-9


class TestReallocation:
    def test_reallocation_shifts_time_towards_slow_edges(self):
        """Edge 0 is consistently slow when observed alone; mixed trips seeded
        with an even split should re-credit it."""
        solo = [trip(i, [(0, 12)]) for i in range(8)]
        # Mixed trips: total 16 ticks initially mis-split evenly 8/8.
        mixed = [trip(100 + i, [(0, 8), (1, 8)]) for i in range(8)]
        config = EstimationConfig(min_samples=4, max_iterations=8)
        result = HistogramEstimator(config=config).estimate(solo + mixed)
        mean_slow = result.estimates[0].distribution.mean()
        mean_fast = result.estimates[1].distribution.mean()
        # Without reallocation the mixed trips keep the even 8/8 split and
        # the two means straddle 10/8; with it, edge 0 absorbs more of the
        # mixed trips' 16 ticks than edge 1 retains.
        assert mean_slow > mean_fast

    def test_zero_iterations_keeps_observed_allocations(self):
        trips = [trip(i, [(0, 8), (1, 8)]) for i in range(6)]
        result = HistogramEstimator(
            config=EstimationConfig(min_samples=3, max_iterations=0)
        ).estimate(trips)
        assert result.iterations == 0
        assert result.estimates[0].distribution.mean() == pytest.approx(8.0)
        assert result.estimates[1].distribution.mean() == pytest.approx(8.0)

    def test_converges_and_stops_early_on_stable_corpus(self):
        trips = [trip(i, [(0, 5), (1, 10)]) for i in range(10)]
        result = HistogramEstimator(
            config=EstimationConfig(min_samples=5, max_iterations=8)
        ).estimate(trips)
        # Proportional re-split of 15 over means (5, 10) is a fixed point.
        assert result.iterations < 8
        assert result.converged

    def test_mass_is_conserved_per_trip(self):
        """Reallocated per-trip ticks stay within rounding of the duration."""
        trips = [trip(i, [(0, 4), (1, 9), (2, 7)]) for i in range(6)]
        config = EstimationConfig(min_samples=2, max_iterations=5)
        result = HistogramEstimator(config=config).estimate(trips)
        total_mean = sum(
            estimate.distribution.mean() for estimate in result.estimates.values()
        )
        assert total_mean == pytest.approx(20.0, abs=1.5)


class TestPriors:
    def test_prior_pulls_thin_evidence(self):
        trips = [trip(i, [(0, 20)]) for i in range(5)]
        prior = DiscreteDistribution.point(4)
        blended = HistogramEstimator(
            config=EstimationConfig(min_samples=2, prior_weight=5.0),
            priors={0: prior},
        ).estimate(trips)
        pure = HistogramEstimator(
            config=EstimationConfig(min_samples=2, prior_weight=0.0),
            priors={0: prior},
        ).estimate(trips)
        assert pure.estimates[0].distribution.mean() == pytest.approx(20.0)
        # 5 samples at 20 + pseudo-count 5 at 4 → mean 12.
        assert blended.estimates[0].distribution.mean() == pytest.approx(12.0)

    def test_edges_without_prior_stay_empirical(self):
        trips = [trip(i, [(0, 20), (1, 20)]) for i in range(5)]
        result = HistogramEstimator(
            config=EstimationConfig(
                min_samples=2, prior_weight=5.0, max_iterations=0
            ),
            priors={0: DiscreteDistribution.point(4)},
        ).estimate(trips)
        assert result.estimates[1].distribution.mean() == pytest.approx(20.0)
        assert result.estimates[0].distribution.mean() < 20.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_samples": 0},
            {"max_iterations": -1},
            {"prior_weight": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimationConfig(**kwargs)


def line_network():
    """Four edges on a line: two primary, then two residential."""
    network = RoadNetwork()
    for vertex_id in range(5):
        network.add_vertex(vertex_id, 100.0 * vertex_id, 0.0)
    for source, category in enumerate(
        (RoadCategory.PRIMARY, RoadCategory.PRIMARY,
         RoadCategory.RESIDENTIAL, RoadCategory.RESIDENTIAL)
    ):
        network.add_edge(source, source + 1, category=category)
    return network


def inflated(network, edge_id, factor, num_samples, resolution):
    """An estimate whose every sample took ``factor`` × free flow."""
    ticks = max(1, round(network.edge(edge_id).free_flow_time / resolution))
    return EdgeEstimate(
        edge_id=edge_id,
        distribution=DiscreteDistribution.point(factor * ticks),
        num_samples=num_samples,
        mean_delta_ticks=0.0,
        converged=True,
    )


class TestPooledFallbacks:
    RESOLUTION = 0.5

    def ticks(self, network, edge_id):
        return max(1, round(network.edge(edge_id).free_flow_time / self.RESOLUTION))

    def test_a_category_pool_serves_only_at_the_minimum_weight(self):
        """Primary's pool (30 samples) is heavy enough to serve primary
        edges alone; residential's (29) falls back to the network pool."""
        network = line_network()
        estimates = {
            0: inflated(network, 0, 2, 30, self.RESOLUTION),
            2: inflated(network, 2, 3, 29, self.RESOLUTION),
        }
        fallbacks = pooled_fallbacks(network, estimates, resolution=self.RESOLUTION)
        assert set(fallbacks) == {1, 3}  # exactly the unobserved edges
        assert fallbacks[1] == DiscreteDistribution.point(2 * self.ticks(network, 1))
        ticks = self.ticks(network, 3)
        assert fallbacks[3].allclose(
            DiscreteDistribution.from_mapping({2 * ticks: 30.0, 3 * ticks: 29.0})
        )

    def test_no_estimates_synthesise_nothing(self):
        assert pooled_fallbacks(line_network(), {}, resolution=self.RESOLUTION) == {}
