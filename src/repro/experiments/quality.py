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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..routing import RoutingEngine, RoutingResult
from ..trajectories import CongestionModel
from .config import DistanceBand
from .tables import format_percent, render_table
from .workloads import BandedQuery

__all__ = [
    "QualityCell",
    "QualityRow",
    "QualityTable",
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
