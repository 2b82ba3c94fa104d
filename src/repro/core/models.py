"""Cost combiners: convolution, pure estimation, and the Hybrid Model.

A *cost combiner* answers two questions for path-cost computation:

* ``edge_cost(edge)`` — the cost distribution of a path's first edge,
* ``combine(pre, edge)`` — the cost distribution of "pre-path then edge",
  and ``combine_edges(pre, edges)`` — the same for a label's whole out-edge
  block at once, which is how the search asks.

:class:`ConvolutionModel` is the classical independence baseline;
:class:`EstimationModel` always trusts the learned estimator; and
:class:`HybridModel` — the paper's contribution — lets the dependence
classifier arbitrate per intersection crossing.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Sequence

import numpy as np

from ..derived import Memo
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

    def combine_edges(
        self, pre: DiscreteDistribution, edges: Sequence[Edge]
    ) -> list[DiscreteDistribution]:
        """``combine(pre, edge)`` for each of ``edges``, in order: the search
        asks once per expanded label, so a learned combiner can batch."""
        return [self.combine(pre, edge) for edge in edges]


class ConvolutionModel(CostCombiner):
    """The classical baseline: every intersection treated as independent."""

    exact_under_truncation = True
    vectorized_convolution = True

    def combine(self, pre: DiscreteDistribution, edge: Edge) -> DiscreteDistribution:
        return pre.convolve(self.edge_cost(edge))


@dataclass
class HybridStats:
    """Counts of combiner decisions during a computation (observability);
    each block's counts land as one update under the class's lock."""

    _lock: ClassVar[threading.Lock] = threading.Lock()
    convolutions: int = 0
    estimations: int = 0

    def add(self, convolutions: int, estimations: int) -> None:
        with self._lock:
            self.convolutions += convolutions
            self.estimations += estimations

    @property
    def total(self) -> int:
        return self.convolutions + self.estimations

    @property
    def estimation_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.estimations / self.total

    def reset(self) -> None:
        with self._lock:
            self.convolutions = 0
            self.estimations = 0


class HybridModel(CostCombiner):
    """The paper's Hybrid Model: classifier-arbitrated combination.

    At each intersection crossing the dependence classifier inspects the
    (pre-path, next-edge) features; convolution is used when the intersection
    looks independent, the estimation model otherwise.  Decision counts are
    recorded in :attr:`stats`.

    :meth:`combine_edges` answers a label's out-edges as one block (see
    PERFORMANCE.md "Hybrid expansion blocks"); ``combine`` is its one-edge
    case.  Each edge's half of the feature rows is built once per published
    cost cell, in a store on the table's holder keyed on the extractor's
    ``token``.
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
        return self.combine_edges(pre, (edge,))[0]

    def combine_edges(
        self, pre: DiscreteDistribution, edges: Sequence[Edge]
    ) -> list[DiscreteDistribution]:
        if not edges:
            return []
        extractor = self.features
        store = self.costs.derived(extractor.network).get(("edge_rows", extractor.token), Memo)
        costs = [self.edge_cost(edge) for edge in edges]
        rows = [
            store.get(edge.id, partial(extractor.edge_features, edge, cost))
            for edge, cost in zip(edges, costs)
        ]
        head = extractor.pre_features(pre)
        matrix = np.empty((len(rows), extractor.num_features))
        matrix[:, : head.size] = head
        matrix[:, head.size :] = rows
        estimate = self.classifier.decide_rows(matrix).tolist()
        picked = [i for i, chosen in enumerate(estimate) if chosen]
        estimated = iter(
            self.estimator.predict_distributions(matrix[picked], pre, [costs[i] for i in picked])
            if picked
            else ()
        )
        self.stats.add(len(edges) - len(picked), len(picked))
        return [
            next(estimated) if chosen else pre.convolve(cost)
            for chosen, cost in zip(estimate, costs)
        ]


class EstimationModel(HybridModel):
    """Always use the learned estimator (ablation / upper-trust variant): the
    Hybrid Model under a classifier that always answers "estimate"."""

    def __init__(
        self,
        costs: EdgeCostTable,
        estimator: DistributionEstimator,
        features: PairFeatureExtractor,
    ) -> None:
        always = DependenceClassifier().fit(np.zeros((1, 1)), np.ones(1, dtype=np.int64))
        super().__init__(costs, estimator, always, features)
