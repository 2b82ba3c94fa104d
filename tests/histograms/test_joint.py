"""Unit tests for JointDistribution (edge-pair joints)."""

import numpy as np
import pytest

from repro.histograms import DiscreteDistribution, JointDistribution, kl_divergence


def paper_joint():
    """The motivating example: T1=(10,20), T2=(15,25) perfectly correlated."""
    return JointDistribution.from_samples([(10, 20), (15, 25)])


class TestConstruction:
    def test_from_samples_marginals(self):
        j = paper_joint()
        assert j.marginal_first().to_mapping() == pytest.approx({10: 0.5, 15: 0.5})
        assert j.marginal_second().to_mapping() == pytest.approx({20: 0.5, 25: 0.5})

    def test_from_samples_empty_raises(self):
        with pytest.raises(ValueError):
            JointDistribution.from_samples([])

    def test_independent_product(self):
        a = DiscreteDistribution.from_mapping({1: 0.5, 2: 0.5})
        b = DiscreteDistribution.from_mapping({3: 0.25, 4: 0.75})
        j = JointDistribution.independent(a, b)
        assert j.prob_at(1, 3) == pytest.approx(0.125)
        assert j.is_independent()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(0, 0, np.array([[0.5, -0.5]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            JointDistribution(0, 0, np.ones(3))

    def test_normalizes(self):
        j = JointDistribution(0, 0, np.ones((2, 2)))
        assert j.prob_at(0, 0) == pytest.approx(0.25)

    def test_trims_zero_margins(self):
        probs = np.zeros((3, 3))
        probs[1, 1] = 1.0
        j = JointDistribution(0, 0, probs)
        assert j.probs.shape == (1, 1)
        assert j.prob_at(1, 1) == pytest.approx(1.0)


class TestDerivedDistributions:
    def test_total_cost_motivating_example(self):
        truth = paper_joint().total_cost()
        assert truth.to_mapping() == pytest.approx({30: 0.5, 40: 0.5})

    def test_convolved_marginals_motivating_example(self):
        conv = paper_joint().convolved_marginals()
        assert conv.to_mapping() == pytest.approx({30: 0.25, 35: 0.5, 40: 0.25})

    def test_total_cost_equals_convolution_when_independent(self):
        a = DiscreteDistribution.from_mapping({1: 0.3, 2: 0.7})
        b = DiscreteDistribution.from_mapping({4: 0.4, 5: 0.6})
        j = JointDistribution.independent(a, b)
        assert j.total_cost().allclose(j.convolved_marginals())

    def test_total_cost_mass_sums_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(1, 6, size=(100, 2))
        j = JointDistribution.from_samples([tuple(s) for s in samples])
        assert j.total_cost().probs.sum() == pytest.approx(1.0)


class TestDependenceMeasures:
    def test_mutual_information_perfect_correlation(self):
        # Two equally likely outcomes, fully determined: MI = ln 2.
        assert paper_joint().mutual_information() == pytest.approx(np.log(2))

    def test_mutual_information_zero_when_independent(self):
        a = DiscreteDistribution.from_mapping({1: 0.5, 2: 0.5})
        j = JointDistribution.independent(a, a)
        assert j.mutual_information() == pytest.approx(0.0, abs=1e-9)

    def test_chi_square_zero_when_independent(self):
        a = DiscreteDistribution.from_mapping({1: 0.5, 2: 0.5})
        j = JointDistribution.independent(a, a)
        stat, dof = j.chi_square_statistic(100)
        assert stat == pytest.approx(0.0, abs=1e-9)
        assert dof == 1

    def test_chi_square_large_for_perfect_dependence(self):
        stat, dof = paper_joint().chi_square_statistic(100)
        assert stat == pytest.approx(100.0)
        assert dof == 1

    def test_chi_square_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            paper_joint().chi_square_statistic(0)

    def test_kl_between_truth_and_convolution_positive_when_dependent(self):
        j = paper_joint()
        assert kl_divergence(j.total_cost(), j.convolved_marginals()) > 0.5
