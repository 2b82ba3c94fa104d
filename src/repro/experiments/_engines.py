"""Shared validation for experiment drivers that accept a RoutingEngine.

Drivers take explicit ``network``/``combiner`` (and sometimes ``pruning``)
arguments for standalone use plus an optional pre-warmed engine (the
benches pass the orchestration runner's).  A mismatch between the two would
measure one configuration while the rendered table claims another, so it is
rejected here rather than silently resolved in the engine's favour.
"""

from __future__ import annotations

from ..core.models import CostCombiner
from ..network import RoadNetwork
from ..routing import PruningConfig, RoutingEngine

__all__ = ["require_matching_engine"]


def require_matching_engine(
    engine: RoutingEngine,
    network: RoadNetwork,
    combiner: CostCombiner,
    *,
    pruning: PruningConfig | None = None,
) -> RoutingEngine:
    """Validate that ``engine`` wraps exactly the explicit arguments.

    ``pruning`` is only compared when the caller passed one explicitly
    (``None`` means "engine's default is fine").  Returns the engine so
    call sites can validate and assign in one expression.
    """
    if (
        engine.network is not network
        or engine.combiner is not combiner
        or (pruning is not None and engine.pruning != pruning)
    ):
        raise ValueError(
            "engine disagrees with the explicit network/combiner/pruning "
            "arguments; pass engine.combiner (etc.) or drop the engine"
        )
    return engine
