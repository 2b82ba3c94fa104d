"""Property-based tests (hypothesis) for the histogram algebra invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import (
    DiscreteDistribution,
    dominates,
    kl_divergence,
    weakly_dominates,
)


@st.composite
def distributions(draw, max_support=12, max_offset=30):
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


@given(distributions())
def test_probabilities_sum_to_one(d):
    assert d.probs.sum() == np.float64(1.0) or abs(d.probs.sum() - 1.0) < 1e-9


@given(distributions())
def test_cdf_monotone(d):
    cdf = d.cdf()
    assert np.all(np.diff(cdf) >= -1e-12)
    assert abs(cdf[-1] - 1.0) < 1e-9


@given(distributions(), distributions())
def test_convolution_mean_additive(a, b):
    assert abs(a.convolve(b).mean() - (a.mean() + b.mean())) < 1e-6


@given(distributions(), distributions())
def test_convolution_variance_additive(a, b):
    assert abs(a.convolve(b).variance() - (a.variance() + b.variance())) < 1e-6


@given(distributions(), distributions())
def test_convolution_commutative(a, b):
    assert a.convolve(b).allclose(b.convolve(a), atol=1e-9)


@settings(max_examples=40)
@given(distributions(max_support=6), distributions(max_support=6), distributions(max_support=6))
def test_convolution_associative(a, b, c):
    left = a.convolve(b).convolve(c)
    right = a.convolve(b.convolve(c))
    assert left.allclose(right, atol=1e-9)


@given(distributions(), st.integers(min_value=-10, max_value=10))
def test_shift_preserves_shape(d, k):
    shifted = d.shift(k)
    assert shifted.offset == d.offset + k
    assert np.allclose(shifted.probs, d.probs)


@given(distributions(), st.integers(min_value=1, max_value=8))
def test_truncate_preserves_mass(d, max_support):
    t = d.truncate(max_support)
    assert abs(t.probs.sum() - 1.0) < 1e-9
    assert t.support_size <= max_support


@given(distributions())
def test_truncate_never_lowers_budget_probability(d):
    """Folding tail mass down can only increase P(X <= b) for b inside."""
    t = d.truncate(max(1, d.support_size // 2))
    for b in range(d.min_value, d.max_value + 1):
        assert t.cdf_at(b) >= d.cdf_at(b) - 1e-9


@given(distributions())
def test_self_dominance_is_weak_not_strict(d):
    assert weakly_dominates(d, d)
    assert not dominates(d, d)


@given(distributions(), st.integers(min_value=1, max_value=5))
def test_shift_down_dominates(d, k):
    assert dominates(d.shift(-k), d)


@given(distributions(), distributions())
def test_convolution_conserves_mass(a, b):
    """Convolution must neither create nor destroy probability mass."""
    assert abs(a.convolve(b).probs.sum() - 1.0) < 1e-9


@given(distributions(), distributions())
def test_dominance_antisymmetry(a, b):
    if dominates(a, b):
        assert not dominates(b, a)


@given(distributions(), distributions(), distributions())
def test_weak_dominance_transitive(a, b, c):
    """``a >= b`` and ``b >= c`` chain to ``a >= c`` (up to composed tol).

    Each weak-dominance check admits a 1e-12 CDF slack, so the chained
    conclusion is asserted directly on the aligned CDFs with the composed
    tolerance rather than through ``weakly_dominates`` (whose single-slack
    check could be a rounding error stricter than what two hops guarantee).
    """
    if weakly_dominates(a, b) and weakly_dominates(b, c):
        _, pa, qc = a.aligned_with(c)
        assert np.all(np.cumsum(pa) >= np.cumsum(qc) - 3e-12)


@given(distributions(), distributions())
def test_weak_dominance_implies_budget_probability_order(a, b):
    """Dominance is exactly "at least as likely under every deadline"."""
    if weakly_dominates(a, b):
        for t in range(
            min(a.min_value, b.min_value) - 1, max(a.max_value, b.max_value) + 2
        ):
            assert a.prob_within(t) >= b.prob_within(t) - 1e-9


@given(distributions(), distributions())
def test_kl_non_negative_and_zero_on_self(a, b):
    assert kl_divergence(a, b) >= -1e-9
    assert abs(kl_divergence(a, a)) < 1e-6


@given(distributions(), distributions())
def test_payload_round_trip_is_bit_equal(a, b):
    """``from_payload`` inverts ``to_payload`` exactly, for built and for
    convolved histograms alike: the renormalisation it applies is a no-op
    within 1e-9 of unit mass."""
    for d in (a, a.convolve(b)):
        back = DiscreteDistribution.from_payload(d.to_payload())
        assert back.offset == d.offset
        assert back.probs.dtype == d.probs.dtype
        assert back.probs.tobytes() == d.probs.tobytes()
