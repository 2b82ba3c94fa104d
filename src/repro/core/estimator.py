"""The distribution estimation model.

Component (i) of the paper's Hybrid Model: a learned regressor that, given a
(pre-path, next-edge) feature vector, outputs the *dependent* cost
distribution of traversing both — the quantity convolution gets wrong at
spatially dependent intersections.

The output is a probability vector over ``num_bins`` delay bins anchored at
the optimistic minimum ``pre.min + edge.min`` (the minimum is identical under
any dependence structure because the marginals are fixed), which makes the
representation translation-invariant: the model learns distribution *shapes*,
and the anchor restores absolute travel times at prediction time.

Bins have an **adaptive width**: ``width = ceil((|pre| + |edge| - 1) /
num_bins)`` ticks, where ``|.|`` is support size.  For the two-edge training
pairs this is almost always one tick (full resolution); when routing folds a
long pre-path into a virtual edge the width grows so the window still covers
the achievable delay range instead of folding most of the tail into the last
bin.  The width is a pure function of the inputs, so training targets and
inference reconstructions always agree on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..histograms import DiscreteDistribution, from_delay_profiles
from ..ml import MlpConfig, MlpDistributionRegressor, StandardScaler


__all__ = ["EstimatorConfig", "DistributionEstimator"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimation-model hyper-parameters.

    ``num_bins`` bounds the predicted support: bins ``0 .. num_bins-2`` are
    exact delays beyond the optimistic minimum, the final bin holds the tail.
    """

    num_bins: int = 24
    mlp: MlpConfig = MlpConfig(hidden_sizes=(64, 64), max_epochs=150)

    def __post_init__(self) -> None:
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")


class DistributionEstimator:
    """MLP-backed two-distribution combiner (the learned half of the hybrid)."""

    def __init__(self, config: EstimatorConfig | None = None) -> None:
        self.config = config or EstimatorConfig()
        self._scaler = StandardScaler()
        self._mlp = MlpDistributionRegressor(self.config.mlp)
        self._fitted = False
        self.token = object()

    # ------------------------------------------------------------------
    # Target construction
    # ------------------------------------------------------------------

    def bin_width(
        self, pre: DiscreteDistribution, edge_cost: DiscreteDistribution
    ) -> int:
        """Adaptive tick width of one output bin for this combination."""
        reach = pre.support_size + edge_cost.support_size - 1
        return max(1, -(-reach // self.config.num_bins))  # ceil division

    def target_profile(
        self,
        truth: DiscreteDistribution,
        pre: DiscreteDistribution,
        edge_cost: DiscreteDistribution,
    ) -> np.ndarray:
        """Ground-truth combined cost as a delay profile over the model bins.

        Bin ``i`` holds the truth mass with delay (beyond the anchor
        ``pre.min + edge.min``) in ``[i*w, (i+1)*w)`` where ``w`` is the
        adaptive :meth:`bin_width`; the last bin also takes any residual
        tail.  Ground-truth mass below the anchor (possible in noisy
        empirical joints) is clamped into bin 0 so profiles remain valid
        distributions.
        """
        anchor = pre.min_value + edge_cost.min_value
        width = self.bin_width(pre, edge_cost)
        profile = np.zeros(self.config.num_bins)
        for tick, p in truth:
            index = min(max((tick - anchor) // width, 0), self.config.num_bins - 1)
            profile[index] += p
        return profile

    # ------------------------------------------------------------------
    # Training / prediction
    # ------------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DistributionEstimator":
        """Train on stacked feature rows and delay-profile targets."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape[1] != self.config.num_bins:
            raise ValueError(
                f"targets must have {self.config.num_bins} bins, got {targets.shape[1]}"
            )
        scaled = self._scaler.fit_transform(features)
        self._mlp.fit(scaled, targets)
        self._fitted = True
        self.token = object()  # after the weights: whoever sees it reads them
        return self

    def predict_profiles(self, features: np.ndarray) -> np.ndarray:
        """Predicted delay profiles for a feature batch."""
        if not self._fitted:
            raise RuntimeError("DistributionEstimator is not fitted")
        return self._mlp.predict(self._scaler.transform(features))

    def predict_distribution(
        self,
        features: np.ndarray,
        pre: DiscreteDistribution,
        edge_cost: DiscreteDistribution,
    ) -> DiscreteDistribution:
        """Predicted combined cost distribution, re-anchored at the optimistic
        minimum of the combination: the one-row :meth:`predict_distributions`.
        """
        return self.predict_distributions(features, pre, [edge_cost])[0]

    def predict_distributions(
        self,
        features: np.ndarray,
        pre: DiscreteDistribution,
        edge_costs: list[DiscreteDistribution],
    ) -> list[DiscreteDistribution]:
        """Predicted cost of ``pre`` then each edge, one whole feature row per
        edge: every MLP layer takes each row alone
        (:meth:`~repro.ml.MlpDistributionRegressor.predict_rows`) and one
        :func:`from_delay_profiles` pass re-anchors them all.  Each bin's
        mass is spread uniformly over the ``width`` ticks it covers, so
        wide-bin predictions stay smooth instead of spiking at boundaries.
        """
        if not self._fitted:
            raise RuntimeError("DistributionEstimator is not fitted")
        profiles = self._mlp.predict_rows(self._scaler.transform(features))
        widths = [self.bin_width(pre, edge_cost) for edge_cost in edge_costs]
        return from_delay_profiles(
            [np.repeat(p / w, w) if w > 1 else p for p, w in zip(profiles, widths)],
            [pre.min_value + edge_cost.min_value for edge_cost in edge_costs],
        )
