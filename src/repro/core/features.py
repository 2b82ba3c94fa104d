"""Feature extraction for (pre-path, next-edge) combinations.

The estimation model and the dependence classifier both consume a fixed
feature vector describing:

* the **pre-path** ("virtual edge") — shape and moments of the cost
  distribution of the path so far,
* the **next edge** — static attributes (length, free-flow time, road
  category) and the moments of its marginal cost histogram,
* the **intersection** joining them — degrees plus an *observed dependence
  score*: the mean mutual information of the empirical pair joints recorded
  at that intersection during training.  This is the historical-data signal
  that lets the classifier predict, at query time, whether the intersection
  couples adjacent travel times (the ground-truth coupling itself is never
  visible to the models).

The same extractor serves training pairs (pre-path = first edge) and routing
(pre-path = the accumulated virtual edge), which is exactly what makes the
paper's virtual-edge trick work.  A vector is two halves, the pre-path's and
the edge's; the Hybrid Model builds the second once per published cost cell
and sets a block's first beside it, so both learned stages read whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..histograms import DiscreteDistribution, shape_profile
from ..network import Edge, RoadCategory, RoadNetwork

__all__ = ["FeatureConfig", "IntersectionStats", "PairFeatureExtractor"]

_CATEGORIES = list(RoadCategory)


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-vector layout parameters.

    ``profile_bins`` controls how many leading delay bins of the pre-path
    distribution are fed to the models (the final bin accumulates the tail).
    """

    profile_bins: int = 12

    def __post_init__(self) -> None:
        if self.profile_bins < 2:
            raise ValueError("profile_bins must be >= 2")


@dataclass(frozen=True)
class IntersectionStats:
    """Historical dependence evidence at one intersection."""

    mean_mutual_information: float
    num_pairs_observed: int
    num_samples: int


class PairFeatureExtractor:
    """Builds model inputs for a (pre-path distribution, next edge) pair."""

    def __init__(
        self,
        network: RoadNetwork,
        *,
        config: FeatureConfig | None = None,
        intersection_stats: dict[int, IntersectionStats] | None = None,
    ) -> None:
        self.network = network
        self.config = config or FeatureConfig()
        self.set_intersection_stats(intersection_stats or {})

    @property
    def num_features(self) -> int:
        """Length of the produced feature vector."""
        # pre-path summary (5) + pre shape profile + edge numeric (5) + edge
        # cost shape profile + category one-hot + intersection (4)
        return 5 + 2 * self.config.profile_bins + 5 + len(_CATEGORIES) + 4

    def set_intersection_stats(self, stats: dict[int, IntersectionStats]) -> None:
        """Install historical dependence evidence (training-time product) and
        a new :attr:`token`, the key of the Hybrid Model's edge-row store."""
        self._stats = stats
        self.token = object()  # after the stats: whoever sees it reads them

    def intersection_stats(self, vertex_id: int) -> IntersectionStats:
        """Stats for one intersection; zeros when never observed."""
        return self._stats.get(
            vertex_id, IntersectionStats(0.0, 0, 0)
        )

    def extract(
        self,
        pre: DiscreteDistribution,
        edge: Edge,
        edge_cost: DiscreteDistribution,
    ) -> np.ndarray:
        """Feature vector for combining ``pre`` with ``edge``.

        ``edge_cost`` is the next edge's marginal cost histogram (the model
        may not peek at ground truth, so the caller passes whatever cost
        table routing itself uses).
        """
        return np.concatenate([self.pre_features(pre), self.edge_features(edge, edge_cost)])

    def pre_features(self, pre: DiscreteDistribution) -> np.ndarray:
        """The leading half of :meth:`extract`: the pre-path's summary and shape."""
        pre_profile, pre_width = shape_profile(pre, num_bins=self.config.profile_bins)
        pre_summary = [
            pre.mean() - pre.min_value,
            pre.std(),
            float(pre.support_size),
            pre.entropy(),
            float(pre_width),
        ]
        return np.concatenate([np.asarray(pre_summary, dtype=np.float64), pre_profile])

    def edge_features(self, edge: Edge, edge_cost: DiscreteDistribution) -> np.ndarray:
        """The trailing half of :meth:`extract`: edge, category and intersection."""
        edge_profile, edge_width = shape_profile(
            edge_cost, num_bins=self.config.profile_bins
        )
        edge_numeric = [
            edge.length / 1000.0,
            edge.free_flow_time / 60.0,
            edge_cost.mean() - edge_cost.min_value,
            edge_cost.std(),
            float(edge_width),
        ]
        category = np.zeros(len(_CATEGORIES))
        category[_CATEGORIES.index(edge.category)] = 1.0

        stats = self.intersection_stats(edge.source)
        intersection = [
            float(self.network.out_degree(edge.source)),
            float(self.network.in_degree(edge.source)),
            stats.mean_mutual_information,
            float(np.log1p(stats.num_samples)),
        ]
        return np.concatenate(
            [
                np.asarray(edge_numeric, dtype=np.float64),
                edge_profile,
                category,
                np.asarray(intersection, dtype=np.float64),
            ]
        )
