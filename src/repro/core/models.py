"""Cost combiners: convolution, pure estimation, and the Hybrid Model.

A *cost combiner* answers two questions for path-cost computation:

* ``edge_cost(edge)`` — the cost distribution of a path's first edge,
* ``combine(pre, edge)`` — the cost distribution of "pre-path then edge".

:class:`ConvolutionModel` is the classical independence baseline;
:class:`EstimationModel` always trusts the learned estimator; and
:class:`HybridModel` — the paper's contribution — lets the dependence
classifier arbitrate per intersection crossing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..histograms import DiscreteDistribution
from ..network import Edge
from .classifier import DependenceClassifier
from .costs import EdgeCostTable
from .estimator import DistributionEstimator
from .features import PairFeatureExtractor

__all__ = [
    "CostCombiner",
    "ConvolutionModel",
    "EstimationModel",
    "HybridModel",
    "HybridStats",
]


class CostCombiner(abc.ABC):
    """Interface the routing algorithms program against."""

    #: Whether folding tail mass beyond the budget into a single cell leaves
    #: this combiner's results exact for the budget objective.  True for
    #: convolution (linear in the distribution); False for learned combiners,
    #: whose feature extraction would see the folded spike and whose output
    #: window would re-spread that mass below the budget.  The router only
    #: truncates search labels when this is True.
    exact_under_truncation: bool = False

    #: Whether ``combine`` is exactly ``pre.convolve(edge_cost(edge))`` — a
    #: linear convolution the columnar search core can evaluate for a whole
    #: frontier generation as one batched kernel.  Learned combiners
    #: transform distributions nonlinearly (classifier arbitration, estimator
    #: output), so they must keep the scalar label-at-a-time loop.
    vectorized_convolution: bool = False

    def __init__(self, costs: EdgeCostTable) -> None:
        self.costs = costs

    def edge_cost(self, edge: Edge) -> DiscreteDistribution:
        """Cost distribution of a single edge: one coherent read of the
        cost table's current publication cell, so ``set_cost`` /
        ``apply_deltas`` / ``publish`` edits are always observed."""
        return self.costs.cost(edge)

    @abc.abstractmethod
    def combine(
        self, pre: DiscreteDistribution, edge: Edge
    ) -> DiscreteDistribution:
        """Cost distribution of traversing ``pre``-path then ``edge``."""


class ConvolutionModel(CostCombiner):
    """The classical baseline: every intersection treated as independent."""

    exact_under_truncation = True
    vectorized_convolution = True

    def combine(self, pre: DiscreteDistribution, edge: Edge) -> DiscreteDistribution:
        return pre.convolve(self.edge_cost(edge))


@dataclass
class HybridStats:
    """Counts of combiner decisions during a computation (observability)."""

    convolutions: int = 0
    estimations: int = 0

    @property
    def total(self) -> int:
        return self.convolutions + self.estimations

    @property
    def estimation_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.estimations / self.total

    def reset(self) -> None:
        self.convolutions = 0
        self.estimations = 0


class EstimationModel(CostCombiner):
    """Always use the learned estimator (ablation / upper-trust variant)."""

    def __init__(
        self,
        costs: EdgeCostTable,
        estimator: DistributionEstimator,
        features: PairFeatureExtractor,
    ) -> None:
        super().__init__(costs)
        self.estimator = estimator
        self.features = features

    def combine(self, pre: DiscreteDistribution, edge: Edge) -> DiscreteDistribution:
        edge_cost = self.edge_cost(edge)
        vector = self.features.extract(pre, edge, edge_cost)
        return self.estimator.predict_distribution(vector, pre, edge_cost)


class HybridModel(CostCombiner):
    """The paper's Hybrid Model: classifier-arbitrated combination.

    At each intersection crossing the dependence classifier inspects the
    (pre-path, next-edge) features; convolution is used when the intersection
    looks independent, the estimation model otherwise.  Decision counts are
    recorded in :attr:`stats`.
    """

    def __init__(
        self,
        costs: EdgeCostTable,
        estimator: DistributionEstimator,
        classifier: DependenceClassifier,
        features: PairFeatureExtractor,
    ) -> None:
        super().__init__(costs)
        self.estimator = estimator
        self.classifier = classifier
        self.features = features
        self.stats = HybridStats()

    def combine(self, pre: DiscreteDistribution, edge: Edge) -> DiscreteDistribution:
        edge_cost = self.edge_cost(edge)
        vector = self.features.extract(pre, edge, edge_cost)
        if self.classifier.should_estimate(vector):
            self.stats.estimations += 1
            return self.estimator.predict_distribution(vector, pre, edge_cost)
        self.stats.convolutions += 1
        return pre.convolve(edge_cost)
