"""Equivalence tests for the hot-path implementations.

The cached-CDF distribution methods, the slice-based dominance checks and the
matrix-backed Pareto frontier are all pure optimisations: each one must give
exactly the answers of the straightforward implementation it replaced.  These
tests pin that contract with naive reference implementations (the seed's
padding + double-cumsum code) over hypothesis-generated and seeded-random
inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import (
    DiscreteDistribution,
    ParetoFrontier,
    dominates,
    weakly_dominates,
)
from repro.histograms.operations import shape_profile

_TOL = 1e-12


# ----------------------------------------------------------------------
# Naive references (the pre-optimisation semantics, kept verbatim)
# ----------------------------------------------------------------------


def naive_weakly_dominates(p, q):
    _, pa, qa = p.aligned_with(q)
    return bool(np.all(np.cumsum(pa) >= np.cumsum(qa) - _TOL))


def naive_dominates(p, q):
    if not naive_weakly_dominates(p, q):
        return False
    _, pa, qa = p.aligned_with(q)
    return bool(np.any(np.cumsum(pa) > np.cumsum(qa) + _TOL))


class NaiveFrontier:
    """List-of-members frontier with pairwise naive dominance checks."""

    def __init__(self):
        self.members = []

    def add(self, candidate):
        if any(naive_weakly_dominates(kept, candidate) for kept in self.members):
            return False
        self.members = [
            kept for kept in self.members if not naive_weakly_dominates(candidate, kept)
        ]
        self.members.append(candidate)
        return True


@st.composite
def distributions(draw, max_support=20, max_offset=30):
    offset = draw(st.integers(min_value=0, max_value=max_offset))
    size = draw(st.integers(min_value=1, max_value=max_support))
    probs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return DiscreteDistribution(offset, np.asarray(probs))


def _random_distribution(rng, *, max_support=25, max_offset=30):
    if rng.integers(0, 4) == 0:
        return DiscreteDistribution.point(int(rng.integers(0, max_offset)))
    size = int(rng.integers(1, max_support))
    offset = int(rng.integers(0, max_offset))
    return DiscreteDistribution(offset, rng.random(size) + 1e-3)


# ----------------------------------------------------------------------
# Dominance equivalence
# ----------------------------------------------------------------------


class TestDominanceEquivalence:
    @given(distributions(), distributions())
    @settings(max_examples=300)
    def test_weak_matches_naive(self, p, q):
        assert weakly_dominates(p, q) == naive_weakly_dominates(p, q)

    @given(distributions(), distributions())
    @settings(max_examples=300)
    def test_strict_matches_naive(self, p, q):
        assert dominates(p, q) == naive_dominates(p, q)

    def test_seeded_sweep_including_point_masses(self):
        rng = np.random.default_rng(1234)
        for _ in range(3000):
            p = _random_distribution(rng)
            q = _random_distribution(rng)
            assert weakly_dominates(p, q) == naive_weakly_dominates(p, q)
            assert dominates(p, q) == naive_dominates(p, q)

    def test_touching_supports_and_equal_point_masses(self):
        spike = DiscreteDistribution.point(5)
        other = DiscreteDistribution.point(5)
        assert weakly_dominates(spike, other)
        assert not dominates(spike, other)
        later = DiscreteDistribution.from_mapping({5: 0.5, 6: 0.5})
        assert weakly_dominates(spike, later)
        assert dominates(spike, later)


# ----------------------------------------------------------------------
# Frontier equivalence
# ----------------------------------------------------------------------


class TestFrontierEquivalence:
    def test_add_sequence_matches_naive(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            frontier = ParetoFrontier()
            naive = NaiveFrontier()
            for _ in range(35):
                candidate = _random_distribution(rng)
                assert frontier.add(candidate) == naive.add(candidate)
                assert list(frontier) == naive.members

# ----------------------------------------------------------------------
# Cached-CDF distribution methods
# ----------------------------------------------------------------------


class TestCachedCdf:
    @given(distributions())
    @settings(max_examples=200)
    def test_cdf_queries_match_naive_sums(self, d):
        for tick in range(d.min_value - 2, d.max_value + 3):
            idx = tick - d.offset
            if idx < 0:
                expected = 0.0
            elif idx >= d.support_size:
                expected = 1.0
            else:
                expected = float(np.sum(d.probs[: idx + 1]))
            assert d.cdf_at(tick) == pytest.approx(expected, abs=1e-12)
            assert d.prob_within(tick) == d.cdf_at(tick)

    def test_cdf_is_cached_and_read_only(self):
        d = DiscreteDistribution.from_mapping({3: 0.25, 4: 0.75})
        first = d.cdf()
        assert d.cdf() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_shift_shares_probability_array(self):
        d = DiscreteDistribution.from_mapping({10: 0.5, 12: 0.5})
        shifted = d.shift(7)
        assert shifted.probs is d.probs
        assert shifted.offset == d.offset + 7

    def test_public_constructor_still_validates_unnormalized_input(self):
        """The zero-copy path is private; normalize=False keeps validating."""
        bad = np.array([0.5, np.nan, 0.5])
        bad.flags.writeable = False
        with pytest.raises(ValueError):
            DiscreteDistribution(0, bad, normalize=False)
        negative = np.array([0.7, -0.4, 0.7])
        negative.flags.writeable = False
        with pytest.raises(ValueError):
            DiscreteDistribution(0, negative, normalize=False)
        # A read-only input array is still copied, never aliased or frozen
        # further, and tiny negatives are clipped exactly as in the seed.
        source = np.array([0.25, -1e-14, 0.75])
        d = DiscreteDistribution(0, source, normalize=False)
        assert d.probs is not source
        assert float(d.probs.min()) >= 0.0

    @given(distributions(), distributions())
    @settings(max_examples=150)
    def test_moments_match_naive(self, a, b):
        for d in (a, a.convolve(b)):
            values = d.offset + np.arange(d.support_size)
            mu = float(np.dot(values, d.probs))
            var = float(np.dot((values - mu) ** 2, d.probs))
            assert d.mean() == pytest.approx(mu, abs=1e-9)
            assert d.variance() == pytest.approx(var, abs=1e-6)


# ----------------------------------------------------------------------
# Sampling and convolution fast paths
# ----------------------------------------------------------------------


class TestSamplingAndConvolution:
    def test_sample_stays_in_support_and_tracks_probabilities(self):
        d = DiscreteDistribution.from_mapping({5: 0.2, 6: 0.3, 9: 0.5})
        rng = np.random.default_rng(0)
        draws = d.sample(rng, size=40_000)
        assert set(np.unique(draws)) <= {5, 6, 9}
        freq = {t: float(np.mean(draws == t)) for t in (5, 6, 9)}
        assert freq[5] == pytest.approx(0.2, abs=0.01)
        assert freq[6] == pytest.approx(0.3, abs=0.01)
        assert freq[9] == pytest.approx(0.5, abs=0.01)
        single = d.sample(np.random.default_rng(1))
        assert single in {5, 6, 9}

    def test_sample_preserves_seeded_draw_stream(self):
        """Inverse-CDF sampling consumes the generator exactly like the
        seed's ``rng.choice(values, p=...)``, so seeded corpora reproduce."""
        rng_cases = np.random.default_rng(123)
        for _ in range(100):
            size = int(rng_cases.integers(1, 25))
            d = DiscreteDistribution(
                int(rng_cases.integers(0, 40)), rng_cases.random(size) + 1e-3
            )
            seed = int(rng_cases.integers(0, 10**6))

            def choice_sample(rng, n=None):
                values = d.offset + np.arange(d.probs.size)
                p = d.probs / d.probs.sum()
                out = rng.choice(values, size=n, p=p)
                return int(out) if n is None else out.astype(np.int64)

            assert d.sample(np.random.default_rng(seed)) == choice_sample(
                np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(
                d.sample(np.random.default_rng(seed), size=11),
                choice_sample(np.random.default_rng(seed), n=11),
            )

    def test_point_mass_sampling(self):
        d = DiscreteDistribution.point(17)
        rng = np.random.default_rng(2)
        assert d.sample(rng) == 17
        assert np.all(d.sample(rng, size=50) == 17)

    def test_point_mass_convolution_is_a_shift(self):
        wide = DiscreteDistribution.from_mapping({3: 0.5, 8: 0.5})
        spike = DiscreteDistribution.point(4)
        out = wide.convolve(spike)
        assert out.probs is wide.probs  # no array work at all
        assert out.offset == wide.offset + spike.offset
        assert spike.convolve(wide).probs is wide.probs

    def test_fft_convolution_matches_direct(self):
        rng = np.random.default_rng(3)
        # Supports chosen to clear the FFT crossover (min size and work).
        a = DiscreteDistribution(10, rng.random(700) + 1e-4)
        b = DiscreteDistribution(20, rng.random(600) + 1e-4)
        out = a.convolve(b)
        direct = np.convolve(a.probs, b.probs)
        expected = DiscreteDistribution(a.offset + b.offset, direct, normalize=False)
        assert out.offset == expected.offset
        assert out.support_size == expected.support_size
        np.testing.assert_allclose(out.probs, expected.probs, atol=1e-12, rtol=0.0)
        assert float(out.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    @given(distributions(max_support=8), distributions(max_support=8))
    @settings(max_examples=150)
    def test_small_convolution_still_exact(self, a, b):
        out = a.convolve(b)
        np.testing.assert_array_equal(out.probs, np.convolve(a.probs, b.probs))


class TestShapeProfileVectorized:
    @given(distributions(max_support=40), st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_matches_naive_chunk_loop(self, d, num_bins):
        profile, width = shape_profile(d, num_bins=num_bins)
        naive = np.zeros(num_bins)
        for start in range(0, d.support_size, width):
            index = min(start // width, num_bins - 1)
            naive[index] += float(d.probs[start : start + width].sum())
        np.testing.assert_allclose(profile, naive, atol=1e-12, rtol=0.0)
        assert profile.sum() == pytest.approx(1.0, abs=1e-9)
