"""Iterative path-cost computation with the virtual-edge trick.

The paper: "Path cost computation is an iterative process, as the cost of a
path is computed by repeatedly combining the cost of the path so far with the
cost of the next edge until the last edge is reached.  We can use the
distribution estimation model built for short paths to estimate the costs of
longer paths by treating the path so far (pre-path) as a 'virtual' edge."

:class:`PathCostComputer` implements exactly that recursion over any
:class:`~repro.core.models.CostCombiner`, with optional support truncation so
cost vectors stay bounded on long paths.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..histograms import DiscreteDistribution
from ..network import Edge
from .models import CostCombiner

__all__ = ["PathCostComputer"]


class PathCostComputer:
    """Folds a combiner over a path: ``cost(e1..ek) = combine(cost(e1..ek-1), ek)``.

    ``max_support`` bounds each intermediate distribution's support (tail
    mass folds into the final cell), keeping the per-step cost constant on
    long paths; ``None`` disables truncation.
    """

    def __init__(self, combiner: CostCombiner, *, max_support: int | None = None) -> None:
        if max_support is not None and max_support < 2:
            raise ValueError("max_support must be >= 2 when given")
        self.combiner = combiner
        self.max_support = max_support

    def _clip(self, dist: DiscreteDistribution) -> DiscreteDistribution:
        if self.max_support is not None:
            return dist.truncate(self.max_support)
        return dist

    def cost(self, path: Sequence[Edge]) -> DiscreteDistribution:
        """Cost distribution of a whole path."""
        current: DiscreteDistribution | None = None
        for current in self.prefix_costs(path):
            pass
        assert current is not None  # prefix_costs raises on empty paths
        return current

    def prefix_costs(self, path: Sequence[Edge]) -> Iterator[DiscreteDistribution]:
        """Yield the cost distribution of every prefix of ``path``.

        ``prefix_costs(p)[-1] == cost(p)``; useful for anytime monitoring and
        for tests asserting the recursion's intermediate states.
        """
        if len(path) == 0:
            raise ValueError("path must contain at least one edge")
        current = self._clip(self.combiner.edge_cost(path[0]))
        yield current
        for previous, edge in zip(path, path[1:]):
            if previous.target != edge.source:
                raise ValueError(
                    f"edges {previous.id} -> {edge.id} are not consecutive"
                )
            current = self._clip(self.combiner.combine(current, edge))
            yield current
