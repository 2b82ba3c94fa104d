"""Cross-validated quality gates: may a re-estimated batch publish?

A learning loop that hot-swaps whatever it last fit into a live routing
service will eventually publish garbage — a fold of sensor noise, a batch
of mis-matched trips, an estimator knocked over by an outlier corridor.
The gate is the loop's safety interlock, shaped like taxisim's
``CV_TrafficEstimation.py`` harness: **k-fold cross-validation** where each
fold's estimator trains on the other folds' trips and is scored on the
held-out fold, against the histograms the service is *currently serving*.

The score is held-out **per-traversal log-likelihood**: for every held-out
traversal ``(edge, t)``, ``log(P_model(t) + SMOOTHING)`` under (a) the
candidate histograms and (b) the serving baseline (which also backstops
edges the candidate never observed — published tables keep serving the old
histogram there, so the comparison mirrors exactly what routing would see).
The batch may publish only when the candidate beats the baseline by at
least :data:`MIN_IMPROVEMENT` nats on the fold mean *and* wins at least
``REQUIRED_WIN_FRACTION`` of the folds — a single lucky fold is not
evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..histograms import DiscreteDistribution
from ..ml import kfold_indices
from ..trajectories import MatchedTrajectory
from .estimation import EstimationConfig, HistogramEstimator

__all__ = ["GateConfig", "FoldScore", "GateReport", "CrossValidationGate"]

#: Additive likelihood smoothing: held-out mass outside a histogram's
#: support costs ``log(SMOOTHING)`` instead of ``-inf`` (matches the KL
#: smoothing convention in :mod:`repro.histograms.metrics`).
SMOOTHING = 1e-9

#: The fraction of folds the candidate must win outright.
REQUIRED_WIN_FRACTION = 0.5

#: The margin, in nats of mean per-traversal log-likelihood, by which the
#: candidate must beat the baseline: ``0.0`` publishes on any
#: strict-or-equal improvement.
MIN_IMPROVEMENT = 0.0


@dataclass(frozen=True)
class GateConfig:
    """Quality-gate tuning parameters."""

    folds: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class FoldScore:
    """Held-out scores of one cross-validation fold."""

    fold: int
    candidate_loglik: float
    baseline_loglik: float
    num_traversals: int

    @property
    def improvement(self) -> float:
        return self.candidate_loglik - self.baseline_loglik


@dataclass(frozen=True)
class GateReport:
    """The gate's verdict with the evidence behind it."""

    passed: bool
    folds: tuple[FoldScore, ...]
    candidate_loglik: float
    baseline_loglik: float
    win_fraction: float
    num_trips: int

    @property
    def improvement(self) -> float:
        """Mean per-traversal log-likelihood gain of the candidate (nats)."""
        return self.candidate_loglik - self.baseline_loglik


class CrossValidationGate:
    """K-fold held-out likelihood gate for re-estimated histogram batches.

    ``baseline_cost`` maps an edge id to the histogram the service is
    currently serving for it (wrap an :class:`~repro.core.costs.EdgeCostTable`
    as ``lambda eid: table.cost(network.edge(eid))``); it is both the
    yardstick and the fallback for edges the candidate does not cover.
    """

    def __init__(
        self,
        baseline_cost: Callable[[int], DiscreteDistribution],
        *,
        config: GateConfig | None = None,
        estimation: EstimationConfig | None = None,
        priors: Mapping[int, DiscreteDistribution] | None = None,
    ) -> None:
        self.baseline_cost = baseline_cost
        self.config = config or GateConfig()
        self._estimation = estimation
        self._priors = priors

    def _loglik(
        self,
        trips: Sequence[MatchedTrajectory],
        candidate: Mapping[int, DiscreteDistribution] | None,
    ) -> tuple[float, int]:
        """Mean per-traversal log-likelihood; ``candidate=None`` = baseline."""
        total = 0.0
        count = 0
        for trip in trips:
            for traversal in trip.traversals:
                distribution = None
                if candidate is not None:
                    distribution = candidate.get(traversal.edge_id)
                if distribution is None:
                    distribution = self.baseline_cost(traversal.edge_id)
                total += math.log(
                    distribution.prob_at(traversal.travel_time)
                    + SMOOTHING
                )
                count += 1
        return (total / count if count else 0.0), count

    def evaluate(self, trips: Sequence[MatchedTrajectory]) -> GateReport:
        """Cross-validate a corpus and decide whether it may publish.

        Corpora too small to fold (< ``folds`` trips) fail closed: no
        evidence, no publish.
        """
        trips = list(trips)
        if len(trips) < self.config.folds:
            return GateReport(
                passed=False,
                folds=(),
                candidate_loglik=0.0,
                baseline_loglik=0.0,
                win_fraction=0.0,
                num_trips=len(trips),
            )
        scores: list[FoldScore] = []
        for fold, (train_idx, heldout_idx) in enumerate(
            kfold_indices(
                len(trips), folds=self.config.folds, seed=self.config.seed
            )
        ):
            estimator = HistogramEstimator(
                config=self._estimation, priors=self._priors
            )
            trained = estimator.estimate([trips[i] for i in train_idx])
            heldout = [trips[i] for i in heldout_idx]
            candidate_ll, count = self._loglik(heldout, trained.histograms())
            baseline_ll, _ = self._loglik(heldout, None)
            scores.append(
                FoldScore(
                    fold=fold,
                    candidate_loglik=candidate_ll,
                    baseline_loglik=baseline_ll,
                    num_traversals=count,
                )
            )
        candidate_mean = sum(s.candidate_loglik for s in scores) / len(scores)
        baseline_mean = sum(s.baseline_loglik for s in scores) / len(scores)
        wins = sum(1 for s in scores if s.improvement > 0)
        win_fraction = wins / len(scores)
        passed = (
            candidate_mean - baseline_mean >= MIN_IMPROVEMENT
            and win_fraction >= REQUIRED_WIN_FRACTION
        )
        return GateReport(
            passed=passed,
            folds=tuple(scores),
            candidate_loglik=candidate_mean,
            baseline_loglik=baseline_mean,
            win_fraction=win_fraction,
            num_trips=len(trips),
        )
