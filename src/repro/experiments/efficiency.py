"""E6 — the Efficiency table.

The paper reports the mean PBR runtime per distance band on the Danish
network: 0.06 s for [0,1) km, 3.37 s for [1,5) km, 9.73 s for [5,10) km —
roughly two orders of magnitude growth from the shortest to the longest
band.  We reproduce the *shape* (monotone, super-linear growth with query
distance) on the synthetic network; absolute values differ because both the
substrate (Python vs the authors' testbed) and the graph scale differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..routing import RoutingEngine
from .config import DistanceBand
from .tables import format_seconds, render_table
from .workloads import BandedQuery

__all__ = ["EfficiencyRow", "EfficiencyTable", "run_efficiency_experiment"]


@dataclass(frozen=True)
class EfficiencyRow:
    """Mean runtime and search effort for one distance band."""

    band: DistanceBand
    mean_seconds: float
    max_seconds: float
    mean_labels_generated: float
    mean_labels_expanded: float
    num_queries: int


@dataclass(frozen=True)
class EfficiencyTable:
    rows: tuple[EfficiencyRow, ...]

    def render(self) -> str:
        headers = ["Dist (km)", "Mean (sec)", "Max (sec)", "Labels"]
        body = [
            [
                row.band.label,
                format_seconds(row.mean_seconds, digits=3),
                format_seconds(row.max_seconds, digits=3),
                f"{row.mean_labels_generated:.0f}",
            ]
            for row in self.rows
        ]
        return render_table(headers, body, title="Efficiency (PBR, full pruning)")


def run_efficiency_experiment(
    network: RoadNetwork,
    combiner: CostCombiner,
    workload: dict[DistanceBand, list[BandedQuery]],
    *,
    engine: RoutingEngine | None = None,
) -> EfficiencyTable:
    """Time the unbounded PBR search on every workload query.

    ``engine`` lets the orchestration runner supply its shared
    :class:`RoutingEngine` (warm caches); by default a fresh one is built
    over ``(network, combiner)`` with full pruning.  A supplied engine
    must agree with the explicit arguments — a mismatch would time one
    configuration while the table claims another.
    """
    if engine is None:
        engine = RoutingEngine(network, combiner)
    elif engine.network is not network or engine.combiner is not combiner:
        raise ValueError("engine disagrees with the explicit network/combiner arguments")
    rows = []
    for band, queries in workload.items():
        seconds: list[float] = []
        generated: list[int] = []
        expanded: list[int] = []
        for banded in queries:
            begin = time.perf_counter()
            result = engine.route(banded.query)
            seconds.append(time.perf_counter() - begin)
            generated.append(result.stats.labels_generated)
            expanded.append(result.stats.labels_expanded)
        rows.append(
            EfficiencyRow(
                band=band,
                mean_seconds=sum(seconds) / len(seconds),
                max_seconds=max(seconds),
                mean_labels_generated=sum(generated) / len(generated),
                mean_labels_expanded=sum(expanded) / len(expanded),
                num_queries=len(queries),
            )
        )
    return EfficiencyTable(rows=tuple(rows))
