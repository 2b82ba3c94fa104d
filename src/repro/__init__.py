"""repro — reproduction of "A Hybrid Learning Approach to Stochastic Routing"
(Pedersen, Yang, Jensen; ICDE 2020).

Subpackages
-----------
``repro.histograms``
    Travel-time distribution algebra (convolution, dominance, KL, joints).
``repro.network``
    Road-network graphs, OSM import, synthetic generators, shortest paths.
``repro.trajectories``
    Ground-truth congestion model, trip generation, map matching, corpus.
``repro.ml``
    From-scratch NumPy ML stack (MLP estimator, logistic classifier).
``repro.core``
    The paper's Hybrid Model: estimator + classifier + path-cost recursion.
``repro.routing``
    Probabilistic budget routing with pruning and the anytime extension.
``repro.experiments``
    Workloads and experiments regenerating every table in the paper.
``repro.service``
    Serving layer: versioned result cache, live cost updates, time slices.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "experiments",
    "histograms",
    "ml",
    "network",
    "routing",
    "service",
    "trajectories",
]
