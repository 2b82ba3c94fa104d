"""The closed loop: trips in, gated histogram updates out, service live.

:class:`LearningPipeline` wires the four learning stages around one running
:class:`~repro.service.RoutingService`:

1. **ingest** — GPS/matched trip batches through :class:`TripIngestor`
   (map matching + OD dedup) into the growing corpus;
2. **estimate** — :class:`HistogramEstimator` re-estimates per-edge
   travel-time histograms from the corpus, seeded with priors taken from
   the table the service is *currently serving*;
3. **gate** — :class:`CrossValidationGate` cross-validates the candidate
   against that same serving baseline on held-out trips;
4. **publish** — an accepted batch becomes one
   :class:`~repro.service.CostUpdate` on the default slice, numbered one
   past the service's feed position and hot-swapped in with no restart.

The pipeline keeps a :class:`LearningStats` counter surface mirroring the
service's :class:`~repro.service.ServiceStats`, and registers it with the
service at construction so the ``learning_stats`` wire op answers from the
same deployment socket as ``stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable

from ..service import CostUpdate, RoutingService
from ..trajectories import (
    GpsTrajectory,
    HmmMapMatcher,
    MatchedTrajectory,
    TrajectoryStore,
)
from .estimation import (
    EstimationConfig,
    EstimationResult,
    HistogramEstimator,
    pooled_fallbacks,
)
from .gates import CrossValidationGate, GateConfig, GateReport
from .ingest import IngestConfig, IngestResult, TripIngestor

__all__ = ["PipelineConfig", "LearningStats", "LearningUpdate", "LearningPipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Learning-loop orchestration parameters.

    ``min_trips_per_update`` is the batch cadence: :meth:`LearningPipeline.process`
    triggers an estimate→gate→publish cycle once that many new trips
    accumulated since the last cycle.  The stage configs pass through to
    their stages; ``None`` means stage defaults.
    """

    min_trips_per_update: int = 50
    ingest: IngestConfig | None = None
    estimation: EstimationConfig | None = None
    gate: GateConfig | None = None

    def __post_init__(self) -> None:
        if self.min_trips_per_update < 1:
            raise ValueError("min_trips_per_update must be >= 1")


@dataclass
class LearningStats:
    """One observability snapshot of a :class:`LearningPipeline`.

    Counters are cumulative over the pipeline's lifetime, mirroring
    :class:`~repro.service.ServiceStats`; :meth:`to_dict` is the
    ``learning_stats`` op's document.
    """

    trips_ingested: int = 0
    trips_matched: int = 0
    trips_deduped: int = 0
    trips_rejected: int = 0
    batches_ingested: int = 0
    estimations_run: int = 0
    edges_estimated: int = 0
    gate_passes: int = 0
    gate_failures: int = 0
    updates_published: int = 0
    edges_published: int = 0
    last_sequence: int | None = None
    ingest_seconds: float = 0.0
    estimation_seconds: float = 0.0
    publish_seconds: float = 0.0

    @property
    def dedup_rate(self) -> float:
        """Fraction of ingested trips served from the OD-signature cache."""
        return self.trips_deduped / self.trips_ingested if self.trips_ingested else 0.0

    @property
    def gate_pass_rate(self) -> float:
        """Fraction of gate decisions that allowed a publish."""
        decisions = self.gate_passes + self.gate_failures
        return self.gate_passes / decisions if decisions else 0.0

    @property
    def mean_publish_seconds(self) -> float:
        """Mean hot-swap latency per published update."""
        if not self.updates_published:
            return 0.0
        return self.publish_seconds / self.updates_published

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "kind": "learning_stats",
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "dedup_rate": self.dedup_rate,
            "gate_pass_rate": self.gate_pass_rate,
            "mean_publish_seconds": self.mean_publish_seconds,
        }


@dataclass(frozen=True)
class LearningUpdate:
    """The outcome of one estimate→gate→publish cycle.

    ``published`` is the applied update, ``None`` exactly when the gate
    refused the batch — the service kept serving its previous tables
    untouched.
    """

    estimation: EstimationResult
    gate: GateReport
    published: CostUpdate | None = None

    @property
    def accepted(self) -> bool:
        return self.published is not None


class LearningPipeline:
    """Closed-loop trajectory → cost-learning orchestrator for one service.

    The pipeline owns the corpus (its ingestor's
    :class:`~repro.trajectories.TrajectoryStore`) and is the *only* writer
    of learning updates into ``service``; priors and the gate baseline are
    re-read from the serving table at every cycle, so each update competes
    against what is actually live, not against the pipeline's own history.
    """

    def __init__(
        self,
        service: RoutingService,
        matcher: HmmMapMatcher,
        *,
        config: PipelineConfig | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.service = service
        self.matcher = matcher
        self.ingestor = TripIngestor(matcher, config=self.config.ingest)
        self._lock = threading.Lock()
        self._stats = LearningStats()
        self._trips_since_update = 0
        # The closed loop's observability half: the service answers
        # ``learning_stats`` wire requests from this pipeline.
        service.attach_learning(self.stats)

    @property
    def store(self) -> TrajectoryStore:
        """The growing map-matched corpus."""
        return self.ingestor.store

    # ------------------------------------------------------------------
    # Serving-table views
    # ------------------------------------------------------------------

    def _serving_cost(self, edge_id: int):
        """The default slice's live histogram: priors and gate baseline."""
        table = self.service.engine().combiner.costs
        return table.cost(self.matcher.network.edge(edge_id))

    def _priors(self) -> dict[int, Any]:
        """Serving histograms for every edge the corpus has data on."""
        return {
            edge_id: self._serving_cost(edge_id)
            for edge_id in self.store.edge_ids_with_data()
        }

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def ingest(
        self, trips: Iterable[GpsTrajectory | MatchedTrajectory]
    ) -> IngestResult:
        """Ingest one batch into the corpus (no estimation yet)."""
        result = self.ingestor.ingest(trips)
        with self._lock:
            self._stats.trips_ingested += result.num_trips
            self._stats.trips_matched += result.num_matched
            self._stats.trips_deduped += result.num_deduped
            self._stats.trips_rejected += result.num_rejected
            self._stats.batches_ingested += 1
            self._stats.ingest_seconds += result.elapsed_seconds
            self._trips_since_update += (
                result.num_trips - result.num_rejected
            )
        return result

    def run_update(self) -> LearningUpdate:
        """One estimate→gate→publish cycle over the whole corpus.

        Estimation and gate priors/baseline are read from the live serving
        table *now*; the publish (if the gate passes) is one hot-swap of the
        default slice, numbered one past the service's feed position as it
        stands at publish time, so a service restored from a snapshot
        applies it rather than skipping it.  Resets the batch-cadence
        counter.
        """
        trips = list(self.store)
        priors = self._priors()
        begin = time.perf_counter()
        estimator = HistogramEstimator(
            config=self.config.estimation, priors=priors
        )
        estimation = estimator.estimate(trips)
        estimation_seconds = time.perf_counter() - begin
        gate = CrossValidationGate(
            self._serving_cost,
            config=self.config.gate,
            estimation=self.config.estimation,
            priors=priors,
        )
        report = gate.evaluate(trips)
        published: CostUpdate | None = None
        publish_seconds = 0.0
        if report.passed and estimation.estimates:
            batch = estimation.histograms()
            # Accepted publishes extend to *unobserved* edges with
            # category-pooled relative-inflation histograms: without them,
            # partially learned tables steer the router onto whatever edge
            # still serves an optimistic free-flow point mass.
            batch.update(
                pooled_fallbacks(
                    self.matcher.network,
                    estimation.estimates,
                    resolution=self.matcher.resolution,
                )
            )
            begin = time.perf_counter()
            published = CostUpdate(
                costs=batch,
                slice_name=self.service.default_slice,
                source="learning",
                sequence=(self.service.feed_position or 0) + 1,
            )
            self.service.apply_cost_update(published)
            publish_seconds = time.perf_counter() - begin
        with self._lock:
            self._stats.estimations_run += 1
            self._stats.edges_estimated += len(estimation.estimates)
            self._stats.estimation_seconds += estimation_seconds
            if published is not None:
                self._stats.gate_passes += 1
                self._stats.updates_published += 1
                self._stats.edges_published += len(published)
                self._stats.publish_seconds += publish_seconds
                self._stats.last_sequence = published.sequence
            else:
                self._stats.gate_failures += 1
            self._trips_since_update = 0
        return LearningUpdate(
            estimation=estimation, gate=report, published=published
        )

    def process(
        self, trips: Iterable[GpsTrajectory | MatchedTrajectory]
    ) -> tuple[IngestResult, LearningUpdate | None]:
        """Ingest one batch and, at the configured cadence, run a cycle.

        The streaming entry point: feed trip batches as they arrive and
        the pipeline re-estimates/publishes every
        ``min_trips_per_update`` accepted trips.
        """
        result = self.ingest(trips)
        with self._lock:
            due = self._trips_since_update >= self.config.min_trips_per_update
        update = self.run_update() if due else None
        return result, update

    def stats(self) -> LearningStats:
        """A point-in-time snapshot of the pipeline's counters."""
        with self._lock:
            return replace(self._stats)
