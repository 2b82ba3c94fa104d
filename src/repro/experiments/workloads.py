"""Query workload generation in the paper's distance bands.

The paper poses routing queries grouped by distance category ([0,1), [1,5),
[5,10) km).  We measure distance as *network* distance (shortest-path metres)
— straight-line distance misclassifies town-to-town queries — and derive each
query's time budget from the optimistic minimum travel time, so budgets are
tight enough that arrival probabilities are informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.costs import EdgeCostTable
from ..network import RoadNetwork
from ..network.paths import dijkstra
from ..routing import RoutingQuery
from ..routing.heuristics import min_tick_bounds, vertex_indexing
from .config import DistanceBand

__all__ = ["BandedQuery", "WorkloadGenerator"]

MAX_ATTEMPTS = 200  # sources tried per sample before a band counts one failure


@dataclass(frozen=True)
class BandedQuery:
    """A routing query with the band and measured distance that produced it."""

    query: RoutingQuery
    band: DistanceBand
    network_distance_km: float
    optimistic_ticks: int


class WorkloadGenerator:
    """Samples queries whose network distance falls in a requested band."""

    def __init__(
        self,
        network: RoadNetwork,
        costs: EdgeCostTable,
        *,
        budget_factor: float = 1.3,
        seed: int = 0,
    ) -> None:
        if budget_factor <= 1.0:
            raise ValueError("budget_factor must exceed 1")
        self.network = network
        self.costs = costs
        self.budget_factor = budget_factor
        self._rng = np.random.default_rng(seed)
        self._vertex_ids = sorted(network.vertex_ids())

    def _sample_one(self, band: DistanceBand) -> BandedQuery | None:
        for _ in range(MAX_ATTEMPTS):
            source = int(self._rng.choice(self._vertex_ids))
            lengths, _ = dijkstra(
                self.network, source, weight=lambda edge: edge.length
            )
            candidates = [
                vertex
                for vertex, metres in lengths.items()
                if vertex != source and band.contains(metres / 1000.0)
            ]
            if not candidates:
                continue
            target = int(self._rng.choice(candidates))
            bounds = min_tick_bounds(self.network, self.costs, target)
            optimistic = bounds[vertex_indexing(self.network)[1][source]]
            if not 1 <= optimistic < math.inf:
                continue
            budget = int(math.ceil(self.budget_factor * optimistic))
            return BandedQuery(
                query=RoutingQuery(source, target, budget=max(budget, 1)),
                band=band,
                network_distance_km=lengths[target] / 1000.0,
                optimistic_ticks=int(optimistic),
            )
        return None

    def generate_band(self, band: DistanceBand, count: int) -> list[BandedQuery]:
        """``count`` queries in one band.

        Raises ``RuntimeError`` when the network simply does not contain OD
        pairs at the requested distance (e.g. a [5,10) km band on a 2 km
        network) — surfacing a mis-scoped preset beats silently thin data.
        """
        out: list[BandedQuery] = []
        failures = 0
        while len(out) < count:
            sample = self._sample_one(band)
            if sample is None:
                failures += 1
                if failures >= 3:
                    raise RuntimeError(
                        f"could not sample queries in band {band.label}; "
                        "network extent is likely too small for this band"
                    )
                continue
            out.append(sample)
        return out

    def generate(
        self, bands: tuple[DistanceBand, ...], count_per_band: int
    ) -> dict[DistanceBand, list[BandedQuery]]:
        """The full experiment workload, band by band."""
        return {band: self.generate_band(band, count_per_band) for band in bands}
