"""E3 — the dependence-ratio statistic.

The paper: "Approximately 75 % of all edge pairs with data are dependent."
We measure the same ratio on the synthetic corpus with a chi-square
independence test per pair and also report the generative model's true
dependent-intersection fraction for calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trajectories import CongestionModel, TrajectoryStore, dependence_report
from ..trajectories.statistics import ALPHA
from .tables import format_percent, render_table

__all__ = ["DependenceResult", "run_dependence_experiment"]


@dataclass(frozen=True)
class DependenceResult:
    """Measured vs generative dependence ratios."""

    measured_fraction: float
    num_pairs_tested: int
    true_vertex_fraction: float
    min_samples: int

    def render(self) -> str:
        rows = [
            ["Measured dependent pairs", format_percent(self.measured_fraction, digits=1)],
            ["Generative dependent intersections", format_percent(self.true_vertex_fraction, digits=1)],
            ["Pairs tested", str(self.num_pairs_tested)],
        ]
        return render_table(
            ["Statistic", "Value"],
            rows,
            title=f"Edge-pair dependence (chi-square, alpha={ALPHA:g})",
        )


def run_dependence_experiment(
    store: TrajectoryStore,
    model: CongestionModel,
    *,
    min_samples: int = 30,
) -> DependenceResult:
    """Test every sufficiently observed pair for dependence."""
    report = dependence_report(store, min_samples=min_samples)
    return DependenceResult(
        measured_fraction=report.dependent_fraction,
        num_pairs_tested=report.num_pairs_tested,
        true_vertex_fraction=model.dependent_vertex_fraction(),
        min_samples=min_samples,
    )
