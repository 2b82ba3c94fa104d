"""Unit tests for DiscreteDistribution."""

import math

import numpy as np
import pytest

from repro.histograms import DiscreteDistribution


class TestConstruction:
    def test_point_mass(self):
        d = DiscreteDistribution.point(7)
        assert d.min_value == 7
        assert d.max_value == 7
        assert d.prob_at(7) == pytest.approx(1.0)

    def test_from_mapping(self):
        d = DiscreteDistribution.from_mapping({30: 0.5, 40: 0.5})
        assert d.prob_at(30) == pytest.approx(0.5)
        assert d.prob_at(40) == pytest.approx(0.5)
        assert d.prob_at(35) == 0.0

    def test_from_mapping_merges_duplicate_ticks(self):
        d = DiscreteDistribution.from_mapping({5: 0.25, 6: 0.75})
        assert d.support_size == 2

    def test_from_mapping_empty_raises(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_mapping({})

    def test_normalizes_unnormalized_input(self):
        d = DiscreteDistribution(0, [2.0, 2.0])
        assert d.prob_at(0) == pytest.approx(0.5)

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, [0.5, -0.5])

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, [0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, [0.5, float("nan")])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, np.ones((2, 2)))

    def test_trims_zero_margins(self):
        d = DiscreteDistribution(10, [0.0, 0.0, 1.0, 0.0])
        assert d.offset == 12
        assert d.support_size == 1

    def test_from_samples(self):
        d = DiscreteDistribution.from_samples([10, 10, 20, 20], resolution=1.0)
        assert d.prob_at(10) == pytest.approx(0.5)
        assert d.prob_at(20) == pytest.approx(0.5)

    def test_from_samples_applies_resolution(self):
        d = DiscreteDistribution.from_samples([10.0, 20.0], resolution=5.0)
        assert d.min_value == 2
        assert d.max_value == 4

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_samples([])

    def test_from_samples_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_samples([-1.0])

    def test_uniform(self):
        d = DiscreteDistribution.uniform(3, 6)
        assert d.support_size == 4
        assert d.prob_at(4) == pytest.approx(0.25)

    def test_uniform_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.uniform(6, 3)

    def test_probs_are_read_only(self):
        d = DiscreteDistribution.point(1)
        with pytest.raises(ValueError):
            d.probs[0] = 0.5


class TestMoments:
    def test_mean(self):
        d = DiscreteDistribution.from_mapping({40: 0.3, 50: 0.6, 60: 0.1})
        assert d.mean() == pytest.approx(48.0)

    def test_variance_of_point_mass_is_zero(self):
        assert DiscreteDistribution.point(9).variance() == pytest.approx(0.0)

    def test_std_matches_variance(self):
        d = DiscreteDistribution.from_mapping({0: 0.5, 10: 0.5})
        assert d.std() == pytest.approx(math.sqrt(d.variance()))

    def test_entropy_uniform(self):
        d = DiscreteDistribution.uniform(0, 3)
        assert d.entropy() == pytest.approx(math.log(4))

    def test_entropy_point_mass_is_zero(self):
        assert DiscreteDistribution.point(5).entropy() == pytest.approx(0.0)


class TestCdfAndQuantiles:
    def test_cdf_at(self):
        d = DiscreteDistribution.from_mapping({40: 0.3, 50: 0.6, 60: 0.1})
        assert d.cdf_at(39) == pytest.approx(0.0)
        assert d.cdf_at(40) == pytest.approx(0.3)
        assert d.cdf_at(55) == pytest.approx(0.9)
        assert d.cdf_at(60) == pytest.approx(1.0)
        assert d.cdf_at(1000) == pytest.approx(1.0)

    def test_paper_intro_deadline_comparison(self):
        # P1 beats P2 on a 60-minute deadline despite the worse mean.
        p1 = DiscreteDistribution.from_mapping({40: 0.3, 50: 0.6, 60: 0.1})
        p2 = DiscreteDistribution.from_mapping({40: 0.6, 50: 0.2, 60: 0.2})
        assert p1.prob_within(59) == pytest.approx(0.9)
        assert p2.prob_within(59) == pytest.approx(0.8)
        assert p2.mean() < p1.mean()


class TestOperations:
    def test_shift(self):
        d = DiscreteDistribution.from_mapping({10: 0.5, 15: 0.5}).shift(5)
        assert d.to_mapping() == pytest.approx({15: 0.5, 20: 0.5})

    def test_negative_shift(self):
        d = DiscreteDistribution.point(10).shift(-3)
        assert d.min_value == 7

    def test_convolve_motivating_example(self):
        h1 = DiscreteDistribution.from_mapping({10: 0.5, 15: 0.5})
        h2 = DiscreteDistribution.from_mapping({20: 0.5, 25: 0.5})
        conv = h1.convolve(h2)
        assert conv.to_mapping() == pytest.approx({30: 0.25, 35: 0.5, 40: 0.25})

    def test_add_operator_convolves(self):
        h1 = DiscreteDistribution.point(3)
        h2 = DiscreteDistribution.point(4)
        assert (h1 + h2).to_mapping() == pytest.approx({7: 1.0})

    def test_add_int_shifts(self):
        d = DiscreteDistribution.point(3) + 4
        assert d.min_value == 7

    def test_convolution_commutative(self):
        a = DiscreteDistribution.from_mapping({1: 0.3, 4: 0.7})
        b = DiscreteDistribution.from_mapping({2: 0.6, 3: 0.4})
        assert a.convolve(b).allclose(b.convolve(a))

    def test_truncate_folds_tail(self):
        d = DiscreteDistribution.uniform(0, 9)
        t = d.truncate(5)
        assert t.support_size == 5
        assert t.prob_at(4) == pytest.approx(0.6)  # 0.1 + folded 0.5
        assert t.probs.sum() == pytest.approx(1.0)

    def test_truncate_noop_when_small(self):
        d = DiscreteDistribution.uniform(0, 3)
        assert d.truncate(10) is d

    def test_sample_within_support(self):
        d = DiscreteDistribution.from_mapping({3: 0.5, 8: 0.5})
        rng = np.random.default_rng(0)
        samples = d.sample(rng, 200)
        assert set(np.unique(samples)) <= {3, 8}

    def test_sample_scalar(self):
        d = DiscreteDistribution.point(4)
        assert d.sample(np.random.default_rng(0)) == 4


class TestComparison:
    def test_aligned_with(self):
        a = DiscreteDistribution.from_mapping({1: 1.0})
        b = DiscreteDistribution.from_mapping({3: 1.0})
        offset, pa, pb = a.aligned_with(b)
        assert offset == 1
        assert len(pa) == len(pb) == 3

    def test_equality(self):
        a = DiscreteDistribution.from_mapping({1: 0.5, 2: 0.5})
        b = DiscreteDistribution(1, [0.5, 0.5], normalize=False)
        assert a == b

    def test_inequality(self):
        a = DiscreteDistribution.point(1)
        b = DiscreteDistribution.point(2)
        assert a != b

    def test_iteration_yields_support_pairs(self):
        d = DiscreteDistribution.from_mapping({2: 0.25, 5: 0.75})
        assert dict(d) == pytest.approx({2: 0.25, 5: 0.75})

    def test_len_is_support_size(self):
        assert len(DiscreteDistribution.uniform(0, 4)) == 5

    def test_repr_is_compact(self):
        assert "DiscreteDistribution" in repr(DiscreteDistribution.point(3))
