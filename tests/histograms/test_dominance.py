"""Unit tests for stochastic dominance and the Pareto frontier."""

from repro.histograms import (
    DiscreteDistribution,
    ParetoFrontier,
    dominates,
    weakly_dominates,
)


def d(mapping):
    return DiscreteDistribution.from_mapping(mapping)


class TestDominance:
    def test_strictly_faster_dominates(self):
        fast = d({10: 0.5, 15: 0.5})
        slow = d({20: 0.5, 25: 0.5})
        assert dominates(fast, slow)
        assert not dominates(slow, fast)

    def test_identical_weakly_dominates_only(self):
        a = d({10: 0.5, 20: 0.5})
        b = d({10: 0.5, 20: 0.5})
        assert weakly_dominates(a, b)
        assert not dominates(a, b)

    def test_crossing_cdfs_incomparable(self):
        risky = d({10: 0.5, 30: 0.5})
        steady = d({18: 1.0})
        assert not weakly_dominates(risky, steady)
        assert not weakly_dominates(steady, risky)

    def test_disjoint_supports(self):
        early = d({1: 1.0})
        late = d({5: 1.0})
        assert weakly_dominates(early, late)
        assert not weakly_dominates(late, early)

    def test_dominance_partial_overlap(self):
        a = d({10: 0.9, 50: 0.1})
        b = d({10: 0.1, 50: 0.9})
        assert dominates(a, b)


class TestParetoFrontier:
    def test_add_and_reject(self):
        frontier = ParetoFrontier()
        slow = d({20: 1.0})
        fast = d({10: 1.0})
        assert frontier.add(slow)
        assert frontier.add(fast)  # evicts slow
        assert len(frontier) == 1
        assert not frontier.add(slow)

    def test_incomparable_coexist(self):
        frontier = ParetoFrontier()
        assert frontier.add(d({10: 0.5, 30: 0.5}))
        assert frontier.add(d({18: 1.0}))
        assert len(frontier) == 2

    def test_duplicate_rejected(self):
        frontier = ParetoFrontier()
        assert frontier.add(d({5: 1.0}))
        assert not frontier.add(d({5: 1.0}))

