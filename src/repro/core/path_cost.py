"""Iterative path-cost computation with the virtual-edge trick.

The paper: "Path cost computation is an iterative process, as the cost of a
path is computed by repeatedly combining the cost of the path so far with the
cost of the next edge until the last edge is reached.  We can use the
distribution estimation model built for short paths to estimate the costs of
longer paths by treating the path so far (pre-path) as a 'virtual' edge."

:func:`path_cost` implements exactly that recursion over any
:class:`~repro.core.models.CostCombiner`.
"""

from __future__ import annotations

from typing import Sequence

from ..histograms import DiscreteDistribution
from ..network import Edge
from .models import CostCombiner

__all__ = ["path_cost"]


def path_cost(combiner: CostCombiner, path: Sequence[Edge]) -> DiscreteDistribution:
    """Fold ``combiner`` over ``path``: ``cost(e1..ek) = combine(cost(e1..ek-1), ek)``."""
    if len(path) == 0:
        raise ValueError("path must contain at least one edge")
    current = combiner.edge_cost(path[0])
    for previous, edge in zip(path, path[1:]):
        if previous.target != edge.source:
            raise ValueError(f"edges {previous.id} -> {edge.id} are not consecutive")
        current = combiner.combine(current, edge)
    return current
