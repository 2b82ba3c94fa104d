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
    def estimation_fraction(self) -> float:
        with self._lock:
            total = self.convolutions + self.estimations
            return self.estimations / total if total else 0.0


#: Blocks kept per published cost cell and set of trained stages, least
#: recently used first out: the bench hybrid world's whole working set is
#: 7,242 blocks at ~4.5 KiB resident each (PERFORMANCE.md "Hybrid expansion
#: blocks").
BLOCK_MEMO_SIZE = 8192


def _block_memo() -> Memo:
    return Memo(bound=lambda: BLOCK_MEMO_SIZE)  # read at every insert


class HybridModel(CostCombiner):
    """The paper's Hybrid Model: classifier-arbitrated combination.

    At each intersection crossing the dependence classifier inspects the
    (pre-path, next-edge) features; convolution is used when the intersection
    looks independent, the estimation model otherwise.  Decision counts are
    recorded in :attr:`stats`.

    :meth:`combine_edges` answers a label's out-edges as one block (see
    PERFORMANCE.md "Hybrid expansion blocks"); ``combine`` is its one-edge
    case.  A feature row is ``[pre half | edge half]``: each edge's half is
    built once per published cost cell, in a store on the table's holder
    keyed on the extractor's ``token``, and a block sets its pre half beside
    them and asks both stages for the whole rows at once
    (:meth:`~DependenceClassifier.decide_rows`,
    :meth:`~DistributionEstimator.predict_distributions`), each row its own
    product, so row ``i`` is its one-row call's bit for bit.
    A block is a pure function of the pre-path distribution and the edge ids
    within that store's scope, so a bounded memo beside it answers a repeated
    block with one lookup; every call still counts its decisions in
    :attr:`stats` and gets fresh distribution objects.
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
        tokens = (self.features.token, self.classifier.token, self.estimator.token)
        blocks = self.costs.derived(self.features.network).get(("blocks", *tokens), _block_memo)
        key = (pre.offset, pre.probs.tobytes(), tuple(edge.id for edge in edges))
        rows, counts = blocks.get(key, partial(self._block, pre, edges))
        self.stats.add(*counts)
        return [DiscreteDistribution._trusted(offset, probs) for offset, probs in rows]

    def _block(
        self, pre: DiscreteDistribution, edges: Sequence[Edge]
    ) -> tuple[list[tuple[int, np.ndarray]], tuple[int, int]]:
        """One block computed: its rows as ``(offset, probs)`` pairs, and its
        ``(convolutions, estimations)`` counts."""
        extractor = self.features
        store = self.costs.derived(extractor.network).get(("edge_rows", extractor.token), Memo)
        costs = [self.edge_cost(edge) for edge in edges]
        tails = [
            store.get(edge.id, partial(extractor.edge_features, edge, cost))
            for edge, cost in zip(edges, costs)
        ]
        X = np.concatenate((extractor.pre_features(pre)[None].repeat(len(tails), 0), tails), 1)
        estimate = self.classifier.decide_rows(X).tolist()
        picked = [i for i, chosen in enumerate(estimate) if chosen]
        estimated = iter(
            self.estimator.predict_distributions(X[picked], pre, [costs[i] for i in picked])
            if picked
            else ()
        )
        rows = [
            next(estimated) if chosen else pre.convolve(cost)
            for chosen, cost in zip(estimate, costs)
        ]
        return [(row.offset, row.probs) for row in rows], (len(edges) - len(picked), len(picked))


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
