"""Synthetic trip generation: the corpus the learning pipeline trains on.

Generates random origin–destination trips routed along fastest free-flow
paths, samples per-edge travel times from the congestion ground truth, and
optionally emits noisy GPS fixes (to exercise the map matcher, completing the
raw-GPS-to-histogram pipeline the paper's data preparation uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..network import Edge, RoadNetwork, free_flow_weight, reconstruct_path
from ..network.paths import dijkstra
from .congestion import CongestionModel
from .types import GpsPoint, GpsTrajectory, MatchedTrajectory

__all__ = ["TripConfig", "TripGenerator", "emit_gps"]

#: OD draws allowed per requested trip before :meth:`TripGenerator.generate` gives up.
MAX_ATTEMPTS_FACTOR = 20


@dataclass(frozen=True)
class TripConfig:
    """Trip-generation parameters.

    ``min_edges`` discards trivial trips (a single edge yields no pair
    observations); ``max_edges`` bounds route length so corpus cost stays
    predictable.
    """

    min_edges: int = 2
    max_edges: int = 60

    def __post_init__(self) -> None:
        if self.min_edges < 1:
            raise ValueError("min_edges must be >= 1")
        if self.max_edges < self.min_edges:
            raise ValueError("max_edges must be >= min_edges")


class TripGenerator:
    """Random OD trips over a network, timed by the congestion ground truth."""

    def __init__(
        self,
        network: RoadNetwork,
        model: CongestionModel,
        *,
        config: TripConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.model = model
        self.config = config or TripConfig()
        self._rng = np.random.default_rng(seed)
        self._vertex_ids = sorted(network.vertex_ids())
        self._next_id = 0

    def random_route(self) -> list[Edge] | None:
        """One random OD shortest route, or ``None`` when unusable.

        Routes outside ``[min_edges, max_edges]`` and unreachable OD pairs
        are rejected; callers loop until enough routes accumulate.
        """
        source, target = self._rng.choice(self._vertex_ids, size=2, replace=False)
        dist, parent = dijkstra(
            self.network, int(source), weight=free_flow_weight, targets={int(target)}
        )
        if int(target) not in dist:
            return None
        route = reconstruct_path(parent, int(source), int(target))
        if not self.config.min_edges <= len(route) <= self.config.max_edges:
            return None
        return route

    def generate_trip(self) -> MatchedTrajectory | None:
        """One matched trip with ground-truth sampled travel times."""
        route = self.random_route()
        if route is None:
            return None
        times = self.model.sample_path_times(route, self._rng)
        trip = MatchedTrajectory.from_times(
            self._next_id, [edge.id for edge in route], times
        )
        self._next_id += 1
        return trip

    def generate(self, num_trips: int) -> Iterator[MatchedTrajectory]:
        """Yield ``num_trips`` trips (skipping rejected OD draws).

        Raises ``RuntimeError`` when the rejection rate is so high that
        ``num_trips * MAX_ATTEMPTS_FACTOR`` draws do not suffice — a sign the
        network or config is degenerate, better surfaced than looped forever.
        """
        produced = 0
        attempts = 0
        while produced < num_trips:
            if attempts >= num_trips * MAX_ATTEMPTS_FACTOR:
                raise RuntimeError(
                    f"only generated {produced}/{num_trips} trips in {attempts} attempts"
                )
            attempts += 1
            trip = self.generate_trip()
            if trip is None:
                continue
            produced += 1
            yield trip


def emit_gps(
    network: RoadNetwork,
    route: Sequence[Edge],
    travel_times: Sequence[int],
    *,
    resolution: float,
    trajectory_id: int = 0,
    interval: float = 10.0,
    noise_std: float = 5.0,
    rng: np.random.Generator | None = None,
) -> GpsTrajectory:
    """Emit noisy GPS fixes along a timed route.

    The vehicle moves at constant speed within each edge (piecewise-linear
    position over time); fixes are taken every ``interval`` seconds with
    isotropic Gaussian noise of ``noise_std`` metres.
    """
    if len(route) != len(travel_times):
        raise ValueError("route and travel_times must have equal length")
    if interval <= 0:
        raise ValueError("interval must be positive")
    rng = rng or np.random.default_rng(0)

    # Piecewise-linear trajectory: breakpoints at edge boundaries.
    breakpoints: list[tuple[float, float, float]] = []  # (time_s, x, y)
    clock = 0.0
    first = network.vertex(route[0].source)
    breakpoints.append((0.0, first.x, first.y))
    for edge, ticks in zip(route, travel_times):
        clock += float(ticks) * resolution
        vertex = network.vertex(edge.target)
        breakpoints.append((clock, vertex.x, vertex.y))

    points: list[GpsPoint] = []
    total = breakpoints[-1][0]
    t = 0.0
    segment = 0
    while t <= total + 1e-9:
        while segment + 1 < len(breakpoints) - 1 and breakpoints[segment + 1][0] < t:
            segment += 1
        t0, x0, y0 = breakpoints[segment]
        t1, x1, y1 = breakpoints[segment + 1]
        frac = 0.0 if t1 <= t0 else min(1.0, max(0.0, (t - t0) / (t1 - t0)))
        x = x0 + frac * (x1 - x0) + float(rng.normal(0.0, noise_std))
        y = y0 + frac * (y1 - y0) + float(rng.normal(0.0, noise_std))
        points.append(GpsPoint(t, x, y))
        t += interval
    # Always include the arrival fix so short edges are observable.
    xf, yf = breakpoints[-1][1], breakpoints[-1][2]
    if not points or points[-1].t < total:
        points.append(
            GpsPoint(
                total,
                xf + float(rng.normal(0.0, noise_std)),
                yf + float(rng.normal(0.0, noise_std)),
            )
        )
    return GpsTrajectory(trajectory_id, tuple(points))
