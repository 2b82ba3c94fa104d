"""Travel-time histogram algebra.

Uniform-grid discrete distributions with exact convolution, cost shifting,
stochastic dominance, the KL-divergence metric and 2-D joints for
edge-pair dependence analysis — the substrate under both the hybrid model and
probabilistic budget routing.
"""

from .distribution import DiscreteDistribution
from .dominance import (
    DOMINANCE_TOL,
    ParetoFrontier,
    cdf_dominance_matrix,
    dominates,
    weakly_dominates,
)
from .joint import JointDistribution
from .metrics import kl_divergence
from .operations import (
    batched_window_convolve,
    shape_profile,
    from_delay_profile,
    from_delay_profiles,
    mixture,
    project_onto_window,
    scale_values,
    trim_window_rows,
)

__all__ = [
    "DOMINANCE_TOL",
    "DiscreteDistribution",
    "JointDistribution",
    "ParetoFrontier",
    "batched_window_convolve",
    "cdf_dominance_matrix",
    "dominates",
    "from_delay_profile",
    "from_delay_profiles",
    "kl_divergence",
    "mixture",
    "project_onto_window",
    "scale_values",
    "shape_profile",
    "trim_window_rows",
    "weakly_dominates",
]
