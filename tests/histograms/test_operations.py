"""Unit tests for compound histogram operations."""

import numpy as np
import pytest

from repro.histograms import (
    DiscreteDistribution,
    from_delay_profile,
    from_delay_profiles,
    mixture,
    project_onto_window,
    scale_values,
    shape_profile,
)


def d(mapping):
    return DiscreteDistribution.from_mapping(mapping)


class TestMixture:
    def test_two_component_mixture(self):
        m = mixture([d({1: 1.0}), d({3: 1.0})], [0.25, 0.75])
        assert m.to_mapping() == pytest.approx({1: 0.25, 3: 0.75})

    def test_weights_normalized(self):
        m = mixture([d({1: 1.0}), d({2: 1.0})], [2.0, 2.0])
        assert m.prob_at(1) == pytest.approx(0.5)

    def test_single_component_identity(self):
        a = d({2: 0.5, 4: 0.5})
        assert mixture([a], [1.0]).allclose(a)

    def test_mean_is_weighted_mean(self):
        a, b = d({0: 1.0}), d({10: 1.0})
        m = mixture([a, b], [0.3, 0.7])
        assert m.mean() == pytest.approx(7.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            mixture([], [])
        with pytest.raises(ValueError):
            mixture([d({1: 1.0})], [1.0, 2.0])
        with pytest.raises(ValueError):
            mixture([d({1: 1.0})], [-1.0])
        with pytest.raises(ValueError):
            mixture([d({1: 1.0})], [0.0])


class TestScaleValues:
    def test_doubling(self):
        s = scale_values(d({2: 0.5, 3: 0.5}), 2.0)
        assert s.to_mapping() == pytest.approx({4: 0.5, 6: 0.5})

    def test_merges_collisions(self):
        s = scale_values(d({2: 0.5, 3: 0.5}), 0.4)  # both round to 1
        assert s.to_mapping() == pytest.approx({1: 1.0})

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            scale_values(d({1: 1.0}), 0.0)


class TestProjection:
    def test_project_normalizes(self):
        p = project_onto_window(np.array([1.0, 3.0]), offset=5)
        assert p.prob_at(5) == pytest.approx(0.25)

    def test_project_degenerate_fallback(self):
        p = project_onto_window(np.zeros(4), offset=2)
        assert p.prob_at(2) == pytest.approx(1.0)

    def test_negative_values_clipped(self):
        p = project_onto_window(np.array([-1.0, 1.0]), offset=0)
        assert p.prob_at(1) == pytest.approx(1.0)


class TestBlockReanchor:
    """``from_delay_profiles`` re-anchors a block of estimator rows in one
    pass; each row must be bit for bit the validated one-row path,
    :func:`project_onto_window`."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(3)
        tail = rng.dirichlet(np.ones(24))
        tail[[0, -3, -2, -1]] = [4e-13, 5e-13, 1e-12, 0.0]  # trimmed at both ends
        spread = np.repeat(rng.dirichlet(np.ones(24)) / 3, 3)  # a width-3 row
        signed = rng.dirichlet(np.ones(24))
        signed[[2, 5, 9]] = [-0.0, -1e-14, -0.3]  # clipped, as the one-row path clips
        return [
            rng.dirichlet(np.ones(24)),
            spread,
            np.zeros(24),  # falls back to a point mass
            tail,
            rng.dirichlet(np.ones(24)) * (1 + 2e-9),  # renormalised
            rng.dirichlet(np.ones(24)) * (1 - 2e-9),
            rng.dirichlet(np.ones(24)) * (1 + 5e-10),  # kept as is
            signed,
            np.repeat(rng.dirichlet(np.ones(24)) / 2, 2),
            [0.25, 0.75],
            np.zeros(0),
        ]

    def test_rows_are_the_one_row_path_bit_for_bit(self):
        rows = self.rows()
        offsets = list(range(10, 10 + 7 * len(rows), 7))
        block = from_delay_profiles(rows, offsets)
        assert len({len(row) for row in rows}) > 2  # mixed widths
        for i, (row, offset) in enumerate(zip(rows, offsets)):
            reference = project_onto_window(row, offset)
            assert block[i].offset == reference.offset, i
            assert np.array_equal(block[i].probs, reference.probs), i
            assert np.array_equal(np.signbit(block[i].probs), np.signbit(reference.probs)), i
            one_row = from_delay_profile(row, offset)
            assert one_row.offset == reference.offset, i
            assert np.array_equal(one_row.probs, reference.probs), i
        assert block[2].support_size == 1 and block[2].offset == offsets[2]
        assert block[3].support_size < 24 and block[3].offset == offsets[3] + 1
        # Each row owns a 1-D array: no survivor is a view into the 2-D block.
        assert all(d.probs.base is None or d.probs.base.ndim == 1 for d in block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_row_raises_as_the_one_row_path_does(self, bad):
        row = np.full(24, 1 / 24)
        row[5] = bad
        with pytest.raises(ValueError) as one_row:
            project_onto_window(row, 0)
        with pytest.raises(ValueError, match=str(one_row.value)):
            from_delay_profiles([np.full(24, 1 / 24), row], [0, 0])


class TestDelayProfile:
    def test_profile_and_reconstruction(self):
        a = d({10: 0.5, 12: 0.5})
        back = from_delay_profile(np.array([0.5, 0.0, 0.5, 0.0]), offset=10)
        assert back.allclose(a)


class TestShapeProfile:
    def test_narrow_distribution_width_one(self):
        profile, width = shape_profile(d({5: 0.5, 6: 0.5}), num_bins=4)
        assert width == 1
        assert profile == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_wide_distribution_scales_width(self):
        wide = DiscreteDistribution.uniform(0, 39)
        profile, width = shape_profile(wide, num_bins=4)
        assert width == 10
        assert profile == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_profile_sums_to_one(self):
        wide = DiscreteDistribution.uniform(3, 17)
        profile, _ = shape_profile(wide, num_bins=6)
        assert profile.sum() == pytest.approx(1.0)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            shape_profile(d({1: 1.0}), num_bins=0)
