"""Property tests: the trajectory store's indexes conserve what went in.

The store is the learning loop's single source of truth for "what did the
corpus observe" — if its per-edge or per-pair indexes dropped, duplicated
or re-weighted a traversal, every estimate downstream would silently skew.
Hypothesis generates arbitrary corpora of matched trips; the properties
pin exact conservation, not approximation.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trajectories import MatchedTrajectory, TrajectoryStore

edge_ids = st.integers(min_value=0, max_value=11)
travel_times = st.integers(min_value=1, max_value=30)


@st.composite
def matched_trips(draw, trip_id=0):
    pairs = draw(
        st.lists(st.tuples(edge_ids, travel_times), min_size=1, max_size=8)
    )
    return MatchedTrajectory.from_times(
        trip_id, [e for e, _ in pairs], [t for _, t in pairs]
    )


@st.composite
def corpora(draw):
    num = draw(st.integers(min_value=1, max_value=12))
    return [draw(matched_trips(trip_id=i)) for i in range(num)]


def load(trips):
    store = TrajectoryStore()
    store.add_all(trips)
    return store


class TestEdgeIndexConservation:
    @given(corpora())
    def test_traversal_count_is_conserved(self, trips):
        store = load(trips)
        assert store.num_trajectories == len(trips)
        assert store.num_traversals == sum(len(t) for t in trips)
        assert store.num_traversals == sum(
            store.edge_sample_count(e) for e in store.edge_ids_with_data()
        )

    @given(corpora())
    def test_edge_histogram_is_the_exact_empirical_law(self, trips):
        """Probability mass per tick == sample multiset frequency: nothing
        lost, nothing smoothed, total mass exactly reconstructs n."""
        store = load(trips)
        expected: dict[int, Counter] = defaultdict(Counter)
        for trip in trips:
            for traversal in trip.traversals:
                expected[traversal.edge_id][traversal.travel_time] += 1
        for edge_id, counter in expected.items():
            histogram = store.edge_histogram(edge_id)
            n = sum(counter.values())
            for tick, count in counter.items():
                assert histogram.prob_at(tick) == pytest.approx(count / n)
            total = sum(histogram.probs)
            assert total == pytest.approx(1.0)

    @given(corpora(), st.integers(min_value=1, max_value=6))
    def test_min_samples_gate_is_exact(self, trips, min_samples):
        """``edge_ids_with_data`` and ``edge_histogram`` agree on the
        sufficiency bar, and the bar is >= not >."""
        store = load(trips)
        sufficient = set(store.edge_ids_with_data(min_samples=min_samples))
        for edge_id in store.edge_ids_with_data():
            count = store.edge_sample_count(edge_id)
            assert (edge_id in sufficient) == (count >= min_samples)
            if count >= min_samples:
                store.edge_histogram(edge_id, min_samples=min_samples)
            else:
                with pytest.raises(ValueError, match="samples"):
                    store.edge_histogram(edge_id, min_samples=min_samples)


class TestPairIndexConservation:
    @given(corpora())
    def test_pair_count_is_conserved(self, trips):
        store = load(trips)
        expected_pairs = sum(max(0, len(t) - 1) for t in trips)
        assert expected_pairs == sum(
            len(store.pair_samples(k)) for k in store.pair_keys_with_data()
        )

    @given(corpora())
    def test_pair_total_cost_is_the_sum_law(self, trips):
        """The pair's total-cost histogram is exactly the empirical law of
        ``t1 + t2`` over its observed traversal pairs."""
        store = load(trips)
        expected: dict[tuple[int, int], Counter] = defaultdict(Counter)
        for trip in trips:
            for first, second in trip.consecutive_pairs():
                expected[(first.edge_id, second.edge_id)][
                    first.travel_time + second.travel_time
                ] += 1
        for key, counter in expected.items():
            law = store.pair_total_cost(key)
            n = sum(counter.values())
            for total_ticks, count in counter.items():
                assert law.prob_at(total_ticks) == pytest.approx(count / n)
            assert sum(law.probs) == pytest.approx(1.0)

    @given(corpora(), st.integers(min_value=2, max_value=6))
    def test_pair_min_samples_gate_is_exact(self, trips, min_samples):
        store = load(trips)
        for key in store.pair_keys_with_data():
            count = len(store.pair_samples(key))
            if count >= min_samples:
                store.pair_total_cost(key, min_samples=min_samples)
            else:
                with pytest.raises(ValueError, match="samples"):
                    store.pair_total_cost(key, min_samples=min_samples)
