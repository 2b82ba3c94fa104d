"""Trajectory substrate.

Congestion-state ground-truth traffic model (exact marginals, pair joints and
path distributions), synthetic trip generation with GPS emission, HMM map
matching, the trajectory store, and dependence statistics.
"""

from .congestion import STRUCTURED_CONFIG, CongestionConfig, CongestionModel
from .generator import TripConfig, TripGenerator, emit_gps
from .matching import HmmMapMatcher, MatcherConfig
from .statistics import (
    DependenceReport,
    PairDependence,
    dependence_report,
    pair_dependence,
)
from .store import TrajectoryStore
from .types import EdgeTraversal, GpsPoint, GpsTrajectory, MatchedTrajectory

__all__ = [
    "CongestionConfig",
    "CongestionModel",
    "DependenceReport",
    "EdgeTraversal",
    "GpsPoint",
    "GpsTrajectory",
    "HmmMapMatcher",
    "MatchedTrajectory",
    "MatcherConfig",
    "PairDependence",
    "STRUCTURED_CONFIG",
    "TrajectoryStore",
    "TripConfig",
    "TripGenerator",
    "dependence_report",
    "emit_gps",
    "pair_dependence",
]
