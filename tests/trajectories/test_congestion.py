"""Unit tests for the congestion-state ground-truth model."""

import numpy as np
import pytest

from repro.histograms import DiscreteDistribution, JointDistribution, kl_divergence
from repro.network import grid_network, two_edge_network
from repro.trajectories import STRUCTURED_CONFIG, CongestionConfig, CongestionModel


@pytest.fixture(scope="module")
def net():
    return grid_network(6, 6, seed=1)


@pytest.fixture(scope="module")
def model(net):
    return CongestionModel(net, seed=42)


class TestConfigValidation:
    def test_defaults_valid(self):
        CongestionConfig()

    def test_structured_config_valid(self):
        assert STRUCTURED_CONFIG.num_states == 3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CongestionConfig(multipliers=(1.0, 2.0), stationary=(1.0,))

    def test_stationary_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CongestionConfig(stationary=(0.5, 0.3, 0.1))

    def test_bad_rho_range(self):
        with pytest.raises(ValueError):
            CongestionConfig(rho_range=(0.0, 0.5))

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            CongestionConfig(resolution=0.0)

    def test_category_multiplier_wrong_length(self):
        with pytest.raises(ValueError):
            CongestionConfig(category_multipliers={"motorway": (1.0, 2.0)})

    def test_category_dependence_out_of_range(self):
        with pytest.raises(ValueError):
            CongestionConfig(category_dependence={"motorway": 1.5})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CongestionConfig(category_dependence={"spaceway": 0.5})


class TestDependenceField:
    def test_rho_deterministic_per_seed(self, net):
        a = CongestionModel(net, seed=5)
        b = CongestionModel(net, seed=5)
        assert all(
            np.array_equal(a.transition_matrix(v), b.transition_matrix(v))
            for v in net.vertex_ids()
        )

    def test_rho_changes_with_seed(self, net):
        a = CongestionModel(net, seed=5)
        b = CongestionModel(net, seed=6)
        assert any(
            not np.array_equal(a.transition_matrix(v), b.transition_matrix(v))
            for v in net.vertex_ids()
        )

    def test_dependent_fraction_near_config(self, net):
        config = CongestionConfig(dependence_probability=0.75)
        model = CongestionModel(net, config, seed=0)
        assert 0.5 < model.dependent_vertex_fraction() < 0.95

    def test_zero_dependence(self, net):
        config = CongestionConfig(dependence_probability=0.0)
        model = CongestionModel(net, config, seed=0)
        assert model.dependent_vertex_fraction() == 0.0

    def test_transition_matrix_rows_sum_to_one(self, net, model):
        for vertex in list(net.vertex_ids())[:5]:
            T = model.transition_matrix(vertex)
            assert np.allclose(T.sum(axis=1), 1.0)

    def test_transition_preserves_stationary(self, net, model):
        pi = np.asarray(model.config.stationary)
        for vertex in list(net.vertex_ids())[:5]:
            T = model.transition_matrix(vertex)
            assert np.allclose(pi @ T, pi)

    def test_independent_vertex_transition_is_rank_one(self, net):
        config = CongestionConfig(dependence_probability=0.0)
        model = CongestionModel(net, config, seed=0)
        T = model.transition_matrix(0)
        assert np.allclose(T, np.tile(config.stationary, (3, 1)))


class TestEdgeDistributions:
    def test_conditional_centre_scales_with_state(self, net, model):
        edge = net.edges[0]
        means = [
            model.edge_state_distribution(edge, s).mean()
            for s in range(model.config.num_states)
        ]
        assert means == sorted(means)
        assert means[0] < means[-1]

    def test_conditional_state_out_of_range(self, net, model):
        with pytest.raises(ValueError):
            model.edge_state_distribution(net.edges[0], 99)

    def test_marginal_is_stationary_mixture(self, net, model):
        edge = net.edges[0]
        expected_mean = sum(
            pi * model.edge_state_distribution(edge, s).mean()
            for s, pi in enumerate(model.config.stationary)
        )
        assert model.edge_marginal(edge).mean() == pytest.approx(expected_mean)

    def test_marginal_cached(self, net, model):
        assert model.edge_marginal(net.edges[1]) is model.edge_marginal(net.edges[1])

    def test_category_multipliers_respected(self, net):
        slow = CongestionConfig(
            category_multipliers={"residential": (1.0, 3.0, 6.0)}
        )
        base = CongestionModel(net, CongestionConfig(), seed=0)
        harsh = CongestionModel(net, slow, seed=0)
        residential = next(
            e for e in net.edges if e.category.value == "residential"
        )
        assert harsh.edge_marginal(residential).mean() > base.edge_marginal(residential).mean()


class TestExactJoints:
    def test_joint_marginals_match_edge_marginals(self, net, model):
        pair = next(net.edge_pairs())
        joint = model.pair_joint(pair)
        assert joint.marginal_first().allclose(model.edge_marginal(pair.first), atol=1e-9)
        assert joint.marginal_second().allclose(model.edge_marginal(pair.second), atol=1e-9)

    def test_independent_vertex_joint_is_product(self, net):
        config = CongestionConfig(dependence_probability=0.0)
        model = CongestionModel(net, config, seed=0)
        pair = next(net.edge_pairs())
        assert model.pair_joint(pair).is_independent(tol=1e-9)

    def test_dependent_vertex_joint_positive_mi(self, net):
        config = CongestionConfig(dependence_probability=1.0)
        model = CongestionModel(net, config, seed=0)
        pair = next(net.edge_pairs())
        assert model.pair_joint(pair).mutual_information() > 0.001

    def test_pair_ground_truth_is_total_cost(self, net, model):
        pair = next(net.edge_pairs())
        assert model.pair_ground_truth(pair).allclose(
            model.pair_joint(pair).total_cost()
        )

    def test_joint_matches_sampling(self, net):
        config = CongestionConfig(dependence_probability=1.0, rho_range=(0.9, 0.9))
        model = CongestionModel(net, config, seed=3)
        pair = next(net.edge_pairs())
        rng = np.random.default_rng(0)
        samples = [
            tuple(model.sample_path_times([pair.first, pair.second], rng))
            for _ in range(30_000)
        ]
        empirical = JointDistribution.from_samples(samples)
        exact = model.pair_joint(pair)
        assert empirical.mutual_information() == pytest.approx(
            exact.mutual_information(), abs=0.03
        )
        assert kl_divergence(empirical.total_cost(), exact.total_cost()) < 0.01


class TestPathDistribution:
    def _route(self, net, length):
        route = [net.edges[0]]
        while len(route) < length:
            options = [
                e for e in net.out_edges(route[-1].target)
                if e.target != route[-1].source
            ]
            route.append(options[0])
        return route

    def test_single_edge_equals_marginal(self, net, model):
        edge = net.edges[0]
        assert model.path_distribution([edge]).allclose(model.edge_marginal(edge))

    def test_empty_path_raises(self, model):
        with pytest.raises(ValueError):
            model.path_distribution([])

    def test_disconnected_path_raises(self, net, model):
        e1 = net.edges[0]
        bad = next(e for e in net.edges if e.source != e1.target and e.id != e1.id)
        with pytest.raises(ValueError):
            model.path_distribution([e1, bad])

    def test_independent_path_equals_convolution(self, net):
        config = CongestionConfig(dependence_probability=0.0)
        model = CongestionModel(net, config, seed=0)
        route = self._route(net, 4)
        conv = model.edge_marginal(route[0])
        for edge in route[1:]:
            conv = conv.convolve(model.edge_marginal(edge))
        assert model.path_distribution(route).allclose(conv, atol=1e-9)

    def test_dependent_path_differs_from_convolution(self, net):
        config = CongestionConfig(dependence_probability=1.0, rho_range=(0.95, 0.95))
        model = CongestionModel(net, config, seed=0)
        route = self._route(net, 4)
        conv = model.edge_marginal(route[0])
        for edge in route[1:]:
            conv = conv.convolve(model.edge_marginal(edge))
        exact = model.path_distribution(route)
        assert not exact.allclose(conv, atol=1e-6)
        assert exact.variance() > conv.variance()  # positive correlation widens

    def test_path_distribution_matches_sampling(self, net, model):
        route = self._route(net, 5)
        rng = np.random.default_rng(1)
        totals = [sum(model.sample_path_times(route, rng)) for _ in range(20_000)]
        empirical = DiscreteDistribution.from_samples(totals)
        exact = model.path_distribution(route)
        assert empirical.mean() == pytest.approx(exact.mean(), rel=0.02)
        assert kl_divergence(empirical, exact) < 0.01

    def test_path_mean_additive(self, net, model):
        """Marginal means add regardless of dependence."""
        route = self._route(net, 5)
        expected = sum(model.edge_marginal(e).mean() for e in route)
        assert model.path_distribution(route).mean() == pytest.approx(expected)

    def test_probability_within(self, net, model):
        route = self._route(net, 3)
        dist = model.path_distribution(route)
        budget = int(dist.mean())
        assert model.path_probability_within(route, budget) == pytest.approx(
            dist.prob_within(budget)
        )


class TestSampling:
    def test_sample_empty_path(self, model):
        assert model.sample_path_times([], np.random.default_rng(0)) == []

    def test_sample_lengths_match(self, net, model):
        pair = next(net.edge_pairs())
        times = model.sample_path_times(
            [pair.first, pair.second], np.random.default_rng(0)
        )
        assert len(times) == 2
        assert all(t >= 1 for t in times)

    def test_motivating_example_regime(self):
        """Perfect persistence reproduces the paper's dependent two-edge case."""
        net = two_edge_network()
        config = CongestionConfig(
            dependence_probability=1.0,
            rho_range=(1.0, 1.0),
            relative_spread=0.0,
            multipliers=(1.0, 2.0),
            stationary=(0.5, 0.5),
        )
        model = CongestionModel(net, config, seed=0)
        pair = next(net.edge_pairs())
        joint = model.pair_joint(pair)
        truth = joint.total_cost()
        conv = joint.convolved_marginals()
        # Truth is bimodal (2 outcomes); convolution smears into 3+.
        assert truth.probs[truth.probs > 1e-9].size == 2
        assert conv.probs[conv.probs > 1e-9].size >= 3
        assert kl_divergence(truth, conv) > 0.3


class TestServingAdapters:
    """The slice-marginal and cost-update feeds the serving layer consumes."""

    def test_slice_marginal_with_stationary_weights_is_the_marginal(self, net, model):
        edge = net.edges[0]
        assert model.slice_marginal(edge, model.config.stationary) == (
            model.edge_marginal(edge)
        )

    def test_slice_marginal_free_weighting_collapses_to_free_state(self, net, model):
        edge = net.edges[0]
        free_only = model.slice_marginal(edge, (1.0, 0.0, 0.0))
        assert free_only == model.edge_state_distribution(edge, 0)

    def test_heavier_weighting_is_stochastically_slower(self, net, model):
        edge = net.edges[0]
        night = model.slice_marginal(edge, (0.92, 0.07, 0.01))
        peak = model.slice_marginal(edge, (0.25, 0.45, 0.30))
        assert peak.mean() > night.mean()
        budget = int(round(night.mean()))
        assert peak.prob_within(budget) <= night.prob_within(budget) + 1e-12

    def test_slice_marginal_normalises_unnormalised_weights(self, net, model):
        edge = net.edges[0]
        assert model.slice_marginal(edge, (2.0, 1.0, 1.0)) == (
            model.slice_marginal(edge, (0.5, 0.25, 0.25))
        )

    @pytest.mark.parametrize(
        "bad", [(0.5, 0.5), (1.0, 0.0, 0.0, 0.0), (-1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]
    )
    def test_slice_marginal_rejects_bad_weights(self, net, model, bad):
        with pytest.raises(ValueError):
            model.slice_marginal(net.edges[0], bad)

    def test_cost_update_is_the_state_conditioned_histograms(self, net, model):
        edges = net.edges[:4]
        update = model.cost_update(edges, 2)
        assert set(update) == {edge.id for edge in edges}
        for edge in edges:
            assert update[edge.id] == model.edge_state_distribution(edge, 2)

    def test_cost_update_rejects_bad_state_or_empty_edges(self, net, model):
        with pytest.raises(ValueError, match="state"):
            model.cost_update(net.edges[:2], model.config.num_states)
        with pytest.raises(ValueError, match="at least one edge"):
            model.cost_update([], 0)
