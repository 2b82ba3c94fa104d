"""Trip ingestion: raw GPS batches to an indexed trajectory corpus.

The front door of the learning loop.  Batches of raw :class:`GpsTrajectory`
traces (or already-matched :class:`MatchedTrajectory` trips, e.g. from a
partner feed) arrive; raw traces are HMM map-matched into edge sequences and
everything lands in a :class:`~repro.trajectories.TrajectoryStore` for the
estimator.

Map matching is the expensive step — Viterbi over candidate edges with
Dijkstra transition costs — so repeated origin–destination traffic (the
dominant shape of commuter corpora) is **deduplicated**: the first trip of an
OD signature pays for the full match, and every later trip with the same
signature reuses the cached edge sequence, spending only the cheap
travel-time allocation of its *own* recorded duration.  The observations stay
distinct (each trip contributes its own travel times); only the matching work
is shared.

Failure modes are part of the contract: a trace the matcher cannot place on
the network (no candidates near any fix) is *counted and skipped*, never
raised — an ingestion front must survive its feed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..network import free_flow_weight
from ..trajectories import (
    GpsTrajectory,
    HmmMapMatcher,
    MatchedTrajectory,
    TrajectoryStore,
)
from ..trajectories.types import EdgeTraversal

__all__ = ["IngestConfig", "IngestResult", "TripIngestor"]


@dataclass(frozen=True)
class IngestConfig:
    """Ingestion-front tuning parameters.

    ``dedup_cell_metres`` quantises a trace's first and last fix onto a
    square grid (nearest cell); two traces whose endpoints land in the same
    cell pair share one map-matching result.  The cell should be comparable to the GPS noise
    level — too small and nothing dedupes, too large and distinct OD pairs
    alias.  ``0`` disables deduplication entirely.  ``max_cached_routes``
    bounds the signature cache (oldest half is dropped on overflow, keeping
    memory proportional to the *active* OD set, not the corpus).
    """

    dedup_cell_metres: float = 50.0
    max_cached_routes: int = 10_000

    def __post_init__(self) -> None:
        if self.dedup_cell_metres < 0:
            raise ValueError("dedup_cell_metres must be >= 0 (0 disables dedup)")
        if self.max_cached_routes < 1:
            raise ValueError("max_cached_routes must be >= 1")


@dataclass(frozen=True)
class IngestResult:
    """Accounting for one ingested batch.

    ``num_matched`` counts trips that went through a full map match,
    ``num_deduped`` trips served from the OD-signature cache, and
    ``num_rejected`` traces the matcher could not place on the network;
    the three always sum to ``num_trips``.
    """

    num_trips: int
    num_matched: int
    num_deduped: int
    num_rejected: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "ingest_result",
            "num_trips": self.num_trips,
            "num_matched": self.num_matched,
            "num_deduped": self.num_deduped,
            "num_rejected": self.num_rejected,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IngestResult":
        return cls(
            num_trips=int(data["num_trips"]),
            num_matched=int(data["num_matched"]),
            num_deduped=int(data["num_deduped"]),
            num_rejected=int(data["num_rejected"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
        )


class TripIngestor:
    """Batch/stream ingestion front over one matcher and one store."""

    def __init__(
        self,
        matcher: HmmMapMatcher,
        store: TrajectoryStore | None = None,
        *,
        config: IngestConfig | None = None,
    ) -> None:
        self.matcher = matcher
        self.store = store if store is not None else TrajectoryStore()
        self.config = config or IngestConfig()
        # OD signature -> matched edge-id sequence (insertion-ordered so
        # overflow can drop the oldest half).
        self._route_cache: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
        self._cache_hits = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------
    # Deduplication
    # ------------------------------------------------------------------

    def _signature(
        self, trajectory: GpsTrajectory
    ) -> tuple[int, int, int, int] | None:
        """The trace's OD cell pair, or ``None`` when dedup is off."""
        cell = self.config.dedup_cell_metres
        if cell <= 0 or len(trajectory.points) == 0:
            return None
        first, last = trajectory.points[0], trajectory.points[-1]
        # Round (not floor): endpoints cluster around true locations, so
        # nearest-cell quantisation is stable under GPS noise even when the
        # true location sits exactly on a floor-cell boundary.
        return (
            int(round(first.x / cell)),
            int(round(first.y / cell)),
            int(round(last.x / cell)),
            int(round(last.y / cell)),
        )

    def _remember(
        self, signature: tuple[int, int, int, int], edge_ids: tuple[int, ...]
    ) -> None:
        if len(self._route_cache) >= self.config.max_cached_routes:
            # Drop the oldest half in one sweep — amortised O(1) per insert.
            survivors = list(self._route_cache.items())
            self._route_cache = dict(survivors[len(survivors) // 2 :])
        self._route_cache[signature] = edge_ids

    def _allocate(
        self, trajectory: GpsTrajectory, edge_ids: tuple[int, ...]
    ) -> MatchedTrajectory:
        """Distribute this trip's duration over a cached edge sequence.

        Mirrors :meth:`HmmMapMatcher.match`: proportional to free-flow
        traversal times, rounded to grid ticks, at least one tick per edge.
        """
        resolution = self.matcher.resolution
        duration = max(trajectory.duration, resolution * len(edge_ids))
        edges = [self.matcher.network.edge(edge_id) for edge_id in edge_ids]
        weights = [free_flow_weight(edge) for edge in edges]
        total_weight = sum(weights)
        traversals = []
        clock = 0
        for edge_id, weight in zip(edge_ids, weights):
            seconds = duration * weight / total_weight
            ticks = max(1, int(round(seconds / resolution)))
            traversals.append(EdgeTraversal(edge_id, clock, ticks))
            clock += ticks
        return MatchedTrajectory(trajectory.id, tuple(traversals))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest_one(
        self, trip: GpsTrajectory | MatchedTrajectory
    ) -> MatchedTrajectory | None:
        """Match and index one trip; ``None`` when the matcher rejects it.

        Already-matched trips skip straight to the store.  Raw traces go
        through the OD-signature cache and, on a miss, the full HMM match.
        """
        if isinstance(trip, MatchedTrajectory):
            self.store.add(trip)
            return trip
        signature = self._signature(trip)
        if signature is not None:
            cached = self._route_cache.get(signature)
            if cached is not None:
                self._cache_hits += 1
                matched = self._allocate(trip, cached)
                self.store.add(matched)
                return matched
        try:
            matched = self.matcher.match(trip)
        except ValueError:
            # Off-network / no-candidate traces: a documented failure mode
            # of the matcher, not of the feed — count, skip, keep serving.
            return None
        self._cache_misses += 1
        if signature is not None:
            self._remember(signature, tuple(matched.edge_ids))
        self.store.add(matched)
        return matched

    def ingest(
        self, trips: Iterable[GpsTrajectory | MatchedTrajectory]
    ) -> IngestResult:
        """Ingest one batch, returning its accounting."""
        begin = time.perf_counter()
        num_trips = num_matched = num_deduped = num_rejected = 0
        hits_before = self._cache_hits
        for trip in trips:
            num_trips += 1
            matched = self.ingest_one(trip)
            if matched is None:
                num_rejected += 1
        num_deduped = self._cache_hits - hits_before
        num_matched = num_trips - num_deduped - num_rejected
        return IngestResult(
            num_trips=num_trips,
            num_matched=num_matched,
            num_deduped=num_deduped,
            num_rejected=num_rejected,
            elapsed_seconds=time.perf_counter() - begin,
        )
