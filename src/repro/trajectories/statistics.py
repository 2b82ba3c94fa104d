"""Corpus statistics: empirical histograms and dependence analysis.

Implements the measurement behind the paper's headline data statistic —
"approximately 75 % of all edge pairs with data are dependent" — as a
chi-square independence test over each pair's empirical joint.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.special import chdtrc

from ..histograms import JointDistribution
from .store import PairKey, TrajectoryStore

__all__ = [
    "PairDependence",
    "pair_dependence",
    "dependence_report",
    "DependenceReport",
]

#: Significance level of the chi-square independence test.
ALPHA = 0.05


@dataclass(frozen=True)
class PairDependence:
    """Result of the independence test for one edge pair."""

    key: PairKey
    num_samples: int
    statistic: float
    p_value: float
    mutual_information: float

    def is_dependent(self) -> bool:
        """Reject independence at significance level :data:`ALPHA`."""
        return self.p_value < ALPHA


def pair_dependence(
    store: TrajectoryStore, key: PairKey, *, min_samples: int = 30
) -> PairDependence:
    """Chi-square independence test on one pair's empirical joint."""
    samples = store.pair_samples(key)
    if len(samples) < min_samples:
        raise ValueError(f"pair {key}: {len(samples)} samples < {min_samples}")
    joint = JointDistribution.from_samples(samples)
    statistic, dof = joint.chi_square_statistic(len(samples))
    p_value = float(chdtrc(dof, statistic))  # chi2.sf's own kernel, no scipy.stats import
    return PairDependence(
        key=key,
        num_samples=len(samples),
        statistic=statistic,
        p_value=p_value,
        mutual_information=joint.mutual_information(),
    )


@dataclass(frozen=True)
class DependenceReport:
    """Aggregate dependence statistics over all pairs with sufficient data."""

    num_pairs_tested: int
    num_dependent: int
    min_samples: int

    @property
    def dependent_fraction(self) -> float:
        """The paper's statistic: fraction of tested pairs that are dependent."""
        if self.num_pairs_tested == 0:
            return 0.0
        return self.num_dependent / self.num_pairs_tested


def dependence_report(
    store: TrajectoryStore,
    *,
    min_samples: int = 30,
) -> DependenceReport:
    """Test every pair with >= ``min_samples`` observations for dependence."""
    keys = store.pair_keys_with_data(min_samples=min_samples)
    dependent = 0
    for key in keys:
        result = pair_dependence(store, key, min_samples=min_samples)
        if result.is_dependent():
            dependent += 1
    return DependenceReport(
        num_pairs_tested=len(keys),
        num_dependent=dependent,
        min_samples=min_samples,
    )
