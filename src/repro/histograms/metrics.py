"""Distance between travel-time distributions.

The paper evaluates its estimation model with the KL-divergence between the
model output and ground-truth trajectories; this module provides that metric,
defined on :class:`~repro.histograms.DiscreteDistribution` pairs aligned onto
a common grid.
"""

from __future__ import annotations

import numpy as np

from .distribution import DiscreteDistribution

__all__ = ["kl_divergence"]

#: Additive smoothing applied to the reference distribution in KL-style
#: metrics so that ground-truth mass outside the model's support yields a
#: large-but-finite penalty instead of ``inf``.
SMOOTHING = 1e-9


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """``KL(p || q)`` in nats — the paper's model-quality metric.

    ``p`` plays the role of the ground truth and ``q`` the model output.
    ``q`` is smoothed with :data:`SMOOTHING` uniform mass so the divergence stays
    finite when the model misses part of the true support.
    """
    _, pa, qa = p.aligned_with(q)
    qa = qa + SMOOTHING
    qa = qa / qa.sum()
    mask = pa > 0
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))
