"""Trajectory store: the map-matched corpus with per-edge / per-pair indexes.

Plays the role of the paper's trajectory database: the training pipeline asks
it for edge pairs "with sufficient data" (the paper trains on 4000 such pairs
and tests on 1000), per-edge travel-time histograms, and the empirical joint
of each pair.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from ..histograms import DiscreteDistribution
from .types import MatchedTrajectory

__all__ = ["TrajectoryStore"]

PairKey = tuple[int, int]


class TrajectoryStore:
    """In-memory corpus of map-matched trajectories with flat indexes.

    Indexes are maintained incrementally on :meth:`add`, so bulk loading a
    corpus is linear in the number of traversals.
    """

    def __init__(self) -> None:
        self._trajectories: list[MatchedTrajectory] = []
        self._edge_samples: dict[int, list[int]] = defaultdict(list)
        self._pair_samples: dict[PairKey, list[tuple[int, int]]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def add(self, trajectory: MatchedTrajectory) -> None:
        """Add one matched trip and index its traversals."""
        self._trajectories.append(trajectory)
        for traversal in trajectory.traversals:
            self._edge_samples[traversal.edge_id].append(traversal.travel_time)
        for first, second in trajectory.consecutive_pairs():
            self._pair_samples[(first.edge_id, second.edge_id)].append(
                (first.travel_time, second.travel_time)
            )

    def add_all(self, trajectories: Iterable[MatchedTrajectory]) -> None:
        for trajectory in trajectories:
            self.add(trajectory)

    # ------------------------------------------------------------------
    # Corpus statistics
    # ------------------------------------------------------------------

    @property
    def num_trajectories(self) -> int:
        return len(self._trajectories)

    @property
    def num_traversals(self) -> int:
        return sum(len(samples) for samples in self._edge_samples.values())

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[MatchedTrajectory]:
        return iter(self._trajectories)

    # ------------------------------------------------------------------
    # Per-edge access
    # ------------------------------------------------------------------

    def edge_ids_with_data(self, *, min_samples: int = 1) -> list[int]:
        """Edges observed at least ``min_samples`` times, sorted by id."""
        return sorted(
            edge_id
            for edge_id, samples in self._edge_samples.items()
            if len(samples) >= min_samples
        )

    def edge_histogram(self, edge_id: int, *, min_samples: int = 1) -> DiscreteDistribution:
        """Empirical travel-time distribution of one edge.

        Raises ``ValueError`` below ``min_samples`` observations — the
        caller decides the sufficiency threshold, mirroring the paper's
        "edge pairs with sufficient data" criterion.
        """
        samples = self._edge_samples.get(edge_id, ())
        if len(samples) < min_samples:
            raise ValueError(
                f"edge {edge_id} has {len(samples)} samples, need {min_samples}"
            )
        return DiscreteDistribution.from_samples(samples)

    # ------------------------------------------------------------------
    # Per-pair access
    # ------------------------------------------------------------------

    def pair_keys_with_data(self, *, min_samples: int = 1) -> list[PairKey]:
        """Edge pairs observed at least ``min_samples`` times, sorted."""
        return sorted(
            key
            for key, samples in self._pair_samples.items()
            if len(samples) >= min_samples
        )

    def pair_samples(self, key: PairKey) -> list[tuple[int, int]]:
        """Raw ``(t1, t2)`` traversal pairs (ticks) for one edge pair."""
        return list(self._pair_samples.get(key, ()))

    def pair_total_cost(self, key: PairKey, *, min_samples: int = 1) -> DiscreteDistribution:
        """Empirical distribution of ``t1 + t2`` for one edge pair."""
        samples = self._pair_samples.get(key, ())
        if len(samples) < min_samples:
            raise ValueError(
                f"pair {key} has {len(samples)} samples, need {min_samples}"
            )
        return DiscreteDistribution.from_samples([a + b for a, b in samples])
