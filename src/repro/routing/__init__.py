"""Probabilistic budget routing.

The public entry point is :class:`RoutingEngine` — one facade over the
paper's best-first PBR search (with the four prunings), the anytime
extension, the baselines (expected-time Dijkstra, exhaustive oracle), serial
target-grouped batch routing, streaming anytime sweeps, multi-budget vectors
and k-best route frontiers.  Strategies plug in through
:func:`register_strategy`.
"""

from .baselines import all_simple_paths, exhaustive_best_path, expected_time_path
from .budget import PruningConfig
from .engine import (
    BatchResult,
    RoutingEngine,
    available_strategies,
    register_strategy,
)
from .heuristics import OptimisticHeuristic, clear_heuristic_cache
from .query import (
    MAX_BUDGET_TICKS,
    DepartWhenResult,
    KBestResult,
    MultiBudgetResult,
    RoutingQuery,
    RoutingResult,
    SearchStats,
    budget_ticks_for_departure,
    normalize_budgets,
    normalize_departures,
    result_from_dict,
)

__all__ = [
    "BatchResult",
    "DepartWhenResult",
    "KBestResult",
    "MAX_BUDGET_TICKS",
    "MultiBudgetResult",
    "OptimisticHeuristic",
    "PruningConfig",
    "RoutingEngine",
    "RoutingQuery",
    "RoutingResult",
    "SearchStats",
    "all_simple_paths",
    "available_strategies",
    "budget_ticks_for_departure",
    "clear_heuristic_cache",
    "exhaustive_best_path",
    "expected_time_path",
    "normalize_budgets",
    "normalize_departures",
    "register_strategy",
    "result_from_dict",
]
