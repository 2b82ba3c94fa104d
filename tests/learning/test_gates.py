"""CrossValidationGate: held-out likelihood, fold wins, fail-closed."""

import math

import pytest

from repro.histograms import DiscreteDistribution
from repro.learning import CrossValidationGate, EstimationConfig, GateConfig
from repro.learning import gates
from repro.learning.gates import SMOOTHING
from repro.ml import kfold_indices
from repro.trajectories import MatchedTrajectory


def trip(trip_id, edge_times):
    return MatchedTrajectory.from_times(
        trip_id,
        [edge_id for edge_id, _ in edge_times],
        [ticks for _, ticks in edge_times],
    )


def free_flow_baseline(ticks=4):
    """A point-mass baseline, like an empty EdgeCostTable's fallback."""
    point = DiscreteDistribution.point(ticks)
    return lambda edge_id: point


@pytest.fixture
def congested_corpus():
    """40 trips over two edges, consistently slower than the baseline."""
    trips = []
    for i in range(40):
        slow = 10 + (i % 3)
        trips.append(trip(i, [(0, slow), (1, slow + 2)]))
    return trips


class TestVerdicts:
    def test_informative_corpus_passes_against_free_flow(self, congested_corpus):
        gate = CrossValidationGate(
            free_flow_baseline(),
            config=GateConfig(folds=4),
            estimation=EstimationConfig(min_samples=2),
        )
        report = gate.evaluate(congested_corpus)
        assert report.passed
        assert report.improvement > 0
        assert report.win_fraction == 1.0
        assert len(report.folds) == 4
        assert report.num_trips == 40

    def test_candidate_no_better_than_truthful_baseline_fails(self):
        """When the baseline already matches the data the candidate cannot
        win (it fits noise at best), so the gate must hold the publish."""
        trips = [trip(i, [(0, 4), (1, 4)]) for i in range(24)]
        gate = CrossValidationGate(
            free_flow_baseline(4),
            config=GateConfig(folds=4),
            estimation=EstimationConfig(min_samples=2),
        )
        report = gate.evaluate(trips)
        assert not report.passed

    def test_fails_closed_on_tiny_corpus(self, congested_corpus):
        gate = CrossValidationGate(
            free_flow_baseline(), config=GateConfig(folds=4)
        )
        report = gate.evaluate(congested_corpus[:3])
        assert not report.passed
        assert report.folds == ()
        assert report.num_trips == 3

    def test_min_improvement_margin_is_enforced(self, congested_corpus, monkeypatch):
        def evaluate():
            return CrossValidationGate(
                free_flow_baseline(),
                config=GateConfig(folds=4),
                estimation=EstimationConfig(min_samples=2),
            ).evaluate(congested_corpus)

        lenient = evaluate()
        monkeypatch.setattr(gates, "MIN_IMPROVEMENT", 1e9)
        greedy = evaluate()
        assert lenient.passed
        assert not greedy.passed
        # Same evidence either way — only the verdict moved.
        assert greedy.improvement == pytest.approx(lenient.improvement)

    def test_uncovered_edges_fall_back_to_baseline(self):
        """Held-out trips over edges the candidate never saw score equally
        under both models, so they cannot flip the verdict by themselves."""
        trips = [trip(i, [(0, 4)]) for i in range(12)]
        gate = CrossValidationGate(
            free_flow_baseline(4),
            # min_samples high enough that nothing is ever estimated.
            config=GateConfig(folds=3),
            estimation=EstimationConfig(min_samples=1000),
        )
        report = gate.evaluate(trips)
        assert report.candidate_loglik == pytest.approx(report.baseline_loglik)
        assert not report.passed


    @pytest.mark.parametrize("folds, passes", [(2, True), (3, False)])
    def test_half_the_folds_must_win(self, folds, passes):
        """Exactly one fold wins and the rest tie, so the mean improvement
        is positive either way: one win in two folds publishes, one in
        three does not."""
        sizes = {2: 5, 3: 7}  # fold sizes (3, 2) and (3, 2, 2)
        num_trips = sizes[folds]
        holdouts = [
            set(heldout.tolist())
            for _, heldout in kfold_indices(num_trips, folds=folds, seed=0)
        ]
        trips = []
        for i in range(num_trips):
            # The last of three folds rides an edge no other fold sees.
            edge = 1 if folds == 3 and i in holdouts[2] else 0
            trips.append(trip(i, [(edge, 10)]))
        # Edge 0 is estimated only when the three-trip fold trains, so
        # only the second fold's held-out trips beat the baseline.
        report = CrossValidationGate(
            free_flow_baseline(4),
            config=GateConfig(folds=folds, seed=0),
            estimation=EstimationConfig(min_samples=3),
        ).evaluate(trips)
        assert [fold.improvement > 0 for fold in report.folds] == (
            [False, True] + [False] * (folds - 2)
        )
        assert all(fold.improvement >= 0 for fold in report.folds)
        assert report.improvement > 0
        assert report.win_fraction == pytest.approx(1 / folds)
        assert report.passed is passes

    def test_unsupported_traversals_cost_log_smoothing(self):
        """Held-out mass outside every histogram's support scores
        ``log(SMOOTHING)`` per traversal — finite, never ``-inf``."""
        trips = [trip(i, [(0, 10)]) for i in range(6)]
        report = CrossValidationGate(
            free_flow_baseline(4),
            config=GateConfig(folds=3),
            estimation=EstimationConfig(min_samples=1000),
        ).evaluate(trips)
        assert report.baseline_loglik == pytest.approx(math.log(SMOOTHING))
        assert report.candidate_loglik == pytest.approx(math.log(SMOOTHING))


class TestReportShape:
    def test_fold_scores_carry_the_evidence(self, congested_corpus):
        gate = CrossValidationGate(
            free_flow_baseline(),
            config=GateConfig(folds=4),
            estimation=EstimationConfig(min_samples=2),
        )
        report = gate.evaluate(congested_corpus)
        assert sum(fold.num_traversals for fold in report.folds) == 80
        for fold in report.folds:
            assert fold.improvement == pytest.approx(
                fold.candidate_loglik - fold.baseline_loglik
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"folds": 1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GateConfig(**kwargs)
