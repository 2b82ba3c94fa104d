"""Travel-time histogram algebra.

Uniform-grid discrete distributions with exact convolution, cost shifting,
stochastic dominance, distribution metrics (KL et al.) and 2-D joints for
edge-pair dependence analysis — the substrate under both the hybrid model and
probabilistic budget routing.
"""

from .distribution import DiscreteDistribution
from .dominance import (
    DOMINANCE_TOL,
    ParetoFrontier,
    cdf_dominance_matrix,
    dominates,
    non_dominated,
    weakly_dominates,
)
from .joint import JointDistribution
from .metrics import (
    cross_entropy,
    hellinger,
    js_divergence,
    kl_divergence,
    total_variation,
    wasserstein,
)
from .operations import (
    batched_window_convolve,
    shape_profile,
    delay_profile,
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
    "cross_entropy",
    "delay_profile",
    "dominates",
    "from_delay_profile",
    "from_delay_profiles",
    "hellinger",
    "js_divergence",
    "kl_divergence",
    "mixture",
    "non_dominated",
    "project_onto_window",
    "scale_values",
    "shape_profile",
    "total_variation",
    "trim_window_rows",
    "wasserstein",
    "weakly_dominates",
]
