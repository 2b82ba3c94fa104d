"""repro.learning — closed-loop trajectory → cost-learning pipeline.

The production half of the paper's pipeline: raw GPS trips stream in,
per-edge travel-time *histograms* stream out into a live
:class:`~repro.service.RoutingService`, with quality gates in between so
the service only ever swaps to tables that beat what it is serving.

Stages (each usable standalone):

- :class:`TripIngestor` — batch/stream ingestion with HMM map matching
  and OD-signature deduplication (:mod:`repro.learning.ingest`);
- :class:`HistogramEstimator` — EM-style iterative distributional
  re-estimation with serving-table priors (:mod:`repro.learning.estimation`);
- :class:`CrossValidationGate` — k-fold held-out log-likelihood gate
  against the serving baseline (:mod:`repro.learning.gates`);
- :class:`LearningPipeline` — the orchestrator tying them into one
  closed loop with a :class:`LearningStats` observability surface; it
  publishes each accepted batch as one sequenced
  :class:`~repro.service.CostUpdate` (:mod:`repro.learning.pipeline`).

``repro.service`` never imports this package; the coupling is one-way
(learning → service) plus the duck-typed stats hook
:meth:`RoutingService.attach_learning`.
"""

from .estimation import (
    EdgeEstimate,
    EstimationConfig,
    EstimationResult,
    HistogramEstimator,
    pooled_fallbacks,
)
from .gates import CrossValidationGate, FoldScore, GateConfig, GateReport
from .ingest import IngestConfig, IngestResult, TripIngestor
from .pipeline import LearningPipeline, LearningStats, LearningUpdate, PipelineConfig

__all__ = [
    "IngestConfig",
    "IngestResult",
    "TripIngestor",
    "EstimationConfig",
    "EdgeEstimate",
    "EstimationResult",
    "HistogramEstimator",
    "pooled_fallbacks",
    "GateConfig",
    "FoldScore",
    "GateReport",
    "CrossValidationGate",
    "PipelineConfig",
    "LearningStats",
    "LearningUpdate",
    "LearningPipeline",
]
