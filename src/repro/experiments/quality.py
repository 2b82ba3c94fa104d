"""E5 — the Quality table.

The paper reports, per distance band, the routing-quality gain of the hybrid
model for the unbounded search (P∞) and the anytime variants with 1/5/10 s
limits (P1/P5/P10); the gain grows with distance (13 % / 53 % / 60 % for P∞)
and tight anytime limits cost a little quality on long queries.

Metric (the paper's short format leaves it implicit; we make it explicit and
record it in EXPERIMENTS.md): for each query, route once with the hybrid
combiner and once with the convolution baseline, evaluate *both* returned
paths under the exact ground-truth traffic model, and report the mean
relative improvement of the hybrid path's on-time probability::

    gain = (P_truth(path_hybrid) - P_truth(path_conv)) / P_truth(path_conv)

averaged over the band's queries (queries where both paths coincide
contribute zero gain).

:func:`run_budget_sweep_experiment` is the paper's budget-vs-reliability
trade-off at workload scale: every workload query is answered for a whole
vector of budget factors through the ``multi_budget`` strategy (one label
search per query instead of one per factor), and the table reports the mean
arrival probability per band and factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..routing import RoutingEngine, RoutingResult, normalize_budgets
from ..trajectories import CongestionModel
from .config import DistanceBand
from .tables import format_percent, render_table
from .workloads import BandedQuery

__all__ = [
    "BudgetSweepRow",
    "BudgetSweepTable",
    "QualityCell",
    "QualityRow",
    "QualityTable",
    "run_budget_sweep_experiment",
    "run_quality_experiment",
]

_MIN_BASELINE_PROBABILITY = 1e-6


@dataclass(frozen=True)
class QualityCell:
    """Mean gain for one (band, time-limit) combination."""

    label: str
    mean_gain: float
    num_queries: int
    num_wins: int
    num_ties: int


@dataclass(frozen=True)
class QualityRow:
    """One distance band: P∞ plus each anytime limit."""

    band: DistanceBand
    cells: tuple[QualityCell, ...]


@dataclass(frozen=True)
class QualityTable:
    """The full Quality table plus its rendering."""

    rows: tuple[QualityRow, ...]
    anytime_limits: tuple[float, ...]

    def render(self) -> str:
        headers = ["Dist (km)", "P-inf"] + [
            f"P{limit:g}s" for limit in self.anytime_limits
        ]
        body = []
        for row in self.rows:
            body.append(
                [row.band.label]
                + [format_percent(cell.mean_gain) for cell in row.cells]
            )
        return render_table(headers, body, title="Quality (hybrid gain over convolution routing)")


def _truth_probability(
    truth: CongestionModel, result: RoutingResult, budget: int
) -> float:
    if not result.found:
        return 0.0
    return truth.path_probability_within(list(result.path), budget)


def _gain(hybrid_prob: float, conv_prob: float) -> float:
    baseline = max(conv_prob, _MIN_BASELINE_PROBABILITY)
    return (hybrid_prob - conv_prob) / baseline


def run_quality_experiment(
    network: RoadNetwork,
    hybrid: CostCombiner,
    convolution: CostCombiner,
    truth: CongestionModel,
    workload: dict[DistanceBand, list[BandedQuery]],
    *,
    anytime_limits: tuple[float, ...] = (),
) -> QualityTable:
    """Regenerate the Quality table on a prepared workload.

    The convolution baseline always runs unbounded (it is the reference
    policy); the hybrid runs unbounded for P∞ and once per anytime limit.
    """
    hybrid_engine = RoutingEngine(network, hybrid)
    convolution_engine = RoutingEngine(network, convolution)

    rows = []
    for band, queries in workload.items():
        per_limit_gains: dict[str, list[float]] = {"inf": []}
        wins: dict[str, int] = {"inf": 0}
        ties: dict[str, int] = {"inf": 0}
        for limit in anytime_limits:
            per_limit_gains[f"{limit:g}"] = []
            wins[f"{limit:g}"] = 0
            ties[f"{limit:g}"] = 0

        for banded in queries:
            query = banded.query
            conv_result = convolution_engine.route(query)
            conv_prob = _truth_probability(truth, conv_result, query.budget)

            unbounded = hybrid_engine.route(query)
            h_prob = _truth_probability(truth, unbounded, query.budget)
            per_limit_gains["inf"].append(_gain(h_prob, conv_prob))
            if h_prob > conv_prob + 1e-12:
                wins["inf"] += 1
            elif abs(h_prob - conv_prob) <= 1e-12:
                ties["inf"] += 1

            for limit in anytime_limits:
                bounded = hybrid_engine.route(
                    query, strategy="anytime", time_limit_seconds=limit
                )
                b_prob = _truth_probability(truth, bounded, query.budget)
                key = f"{limit:g}"
                per_limit_gains[key].append(_gain(b_prob, conv_prob))
                if b_prob > conv_prob + 1e-12:
                    wins[key] += 1
                elif abs(b_prob - conv_prob) <= 1e-12:
                    ties[key] += 1

        cells = []
        for key in ("inf", *(f"{limit:g}" for limit in anytime_limits)):
            gains = per_limit_gains[key]
            cells.append(
                QualityCell(
                    label=key,
                    mean_gain=sum(gains) / len(gains) if gains else 0.0,
                    num_queries=len(gains),
                    num_wins=wins[key],
                    num_ties=ties[key],
                )
            )
        rows.append(QualityRow(band=band, cells=tuple(cells)))
    return QualityTable(rows=tuple(rows), anytime_limits=tuple(anytime_limits))


@dataclass(frozen=True)
class BudgetSweepRow:
    """Mean arrival probability per budget factor for one distance band."""

    band: DistanceBand
    factors: tuple[float, ...]
    mean_probabilities: tuple[float, ...]
    num_queries: int


@dataclass(frozen=True)
class BudgetSweepTable:
    rows: tuple[BudgetSweepRow, ...]

    def render(self) -> str:
        factors = self.rows[0].factors if self.rows else ()
        headers = ["Dist (km)", *(f"x{factor:g}" for factor in factors)]
        body = [
            [
                row.band.label,
                *(format_percent(p, digits=1) for p in row.mean_probabilities),
            ]
            for row in self.rows
        ]
        return render_table(
            headers, body, title="Arrival probability vs budget factor"
        )


def run_budget_sweep_experiment(
    network: RoadNetwork,
    combiner: CostCombiner,
    workload: dict[DistanceBand, list[BandedQuery]],
    *,
    factors: Sequence[float] = (1.1, 1.3, 1.6, 2.0),
) -> BudgetSweepTable:
    """Answer every workload query over a budget-factor vector at once.

    Each query's budget vector is ``ceil(factor * optimistic_ticks)`` per
    factor, served by one ``multi_budget`` search; probabilities are read
    back per factor (factors that collapse onto the same tick budget share
    one answer).
    """
    factors = tuple(factors)
    if not factors or any(f <= 1.0 for f in factors):
        raise ValueError("budget factors must all exceed 1")
    engine = RoutingEngine(network, combiner)
    rows = []
    for band, members in workload.items():
        sums = [0.0] * len(factors)
        for banded in members:
            per_factor = [
                max(1, int(math.ceil(factor * banded.optimistic_ticks)))
                for factor in factors
            ]
            answer = engine.route_multi_budget(
                banded.query.source, banded.query.target, normalize_budgets(per_factor)
            )
            for i, budget in enumerate(per_factor):
                sums[i] += answer.best_for(budget).probability
        rows.append(
            BudgetSweepRow(
                band=band,
                factors=factors,
                mean_probabilities=tuple(s / len(members) for s in sums),
                num_queries=len(members),
            )
        )
    return BudgetSweepTable(rows=tuple(rows))
