"""Unit tests for the KL-divergence metric."""

import math

import pytest

from repro.histograms import DiscreteDistribution, kl_divergence


def d(mapping):
    return DiscreteDistribution.from_mapping(mapping)


class TestKl:
    def test_zero_on_identical(self):
        a = d({1: 0.5, 2: 0.5})
        assert kl_divergence(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_motivating_example_value(self):
        truth = d({30: 0.5, 40: 0.5})
        conv = d({30: 0.25, 35: 0.5, 40: 0.25})
        assert kl_divergence(truth, conv) == pytest.approx(math.log(2))

    def test_asymmetric(self):
        a = d({1: 0.5, 2: 0.5})
        b = d({1: 0.9, 2: 0.1})
        assert kl_divergence(a, b) != pytest.approx(kl_divergence(b, a))

    def test_disjoint_support_finite_with_smoothing(self):
        a = d({1: 1.0})
        b = d({10: 1.0})
        value = kl_divergence(a, b)
        assert math.isfinite(value)
        assert value > 5.0
