"""Iterative distributional re-estimation of per-edge travel-time histograms.

The scalar exemplar (taxisim's ``TrafficEstimation.estimate_travel_times``)
re-estimates one mean travel time per link by repeatedly splitting each
trip's observed duration across its links in proportion to the current
estimates.  Ours is **distributional**: the same EM-style reallocation loop,
but what comes out per edge is a full :class:`DiscreteDistribution`
histogram — the object the PBR search convolves.

Why reallocate at all: a map-matched trip's per-edge times are an
*allocation* of the (trustworthy) trip duration, seeded by free-flow
proportions (:meth:`HmmMapMatcher.match`).  Free flow is systematically
wrong under congestion — a slow arterial edge is under-credited.  Each
iteration re-splits every trip's duration by the current per-edge mean
estimates (E-step) and rebuilds the per-edge sample sets from the new
splits (M-step); the fixed point credits each edge with the share of trip
time the corpus as a whole says it deserves.  Convergence is tracked per
edge (largest mean movement in the last iteration).

Low-sample edges are stabilised with **priors**: the final histogram is a
pseudo-count mixture ``(n * empirical + k * prior) / (n + k)`` where ``k``
is ``prior_weight`` and the prior comes from whatever table is currently
serving (so a freshly observed edge moves *away* from the serving estimate
only as fast as its evidence warrants).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..histograms import DiscreteDistribution, mixture
from ..network import RoadNetwork
from ..trajectories import MatchedTrajectory, TrajectoryStore

__all__ = [
    "EstimationConfig",
    "EdgeEstimate",
    "EstimationResult",
    "HistogramEstimator",
    "pooled_fallbacks",
]


@dataclass(frozen=True)
class EstimationConfig:
    """Re-estimation tuning parameters.

    ``max_iterations == 0`` disables reallocation (the store's observed
    allocations are used as-is — right when trips carry exact per-edge
    times, e.g. loop-detector joins).  ``tolerance_ticks`` is the per-edge
    mean movement below which an edge counts as converged; the loop stops
    early when *every* edge converges.  ``min_samples`` is the sufficiency
    bar an edge must clear to be estimated at all (the paper's "pairs with
    sufficient data" criterion).  ``prior_weight`` is the pseudo-count
    mass of the prior histogram blended into every estimate (0 = pure
    empirical).
    """

    min_samples: int = 5
    max_iterations: int = 8
    tolerance_ticks: float = 0.05
    prior_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.tolerance_ticks < 0:
            raise ValueError("tolerance_ticks must be >= 0")
        if self.prior_weight < 0:
            raise ValueError("prior_weight must be >= 0")


@dataclass(frozen=True)
class EdgeEstimate:
    """One edge's re-estimated histogram with its convergence evidence."""

    edge_id: int
    distribution: DiscreteDistribution
    num_samples: int
    mean_delta_ticks: float
    converged: bool


@dataclass(frozen=True)
class EstimationResult:
    """The outcome of one re-estimation pass over a corpus."""

    estimates: dict[int, EdgeEstimate] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    num_trips: int = 0

    def __len__(self) -> int:
        return len(self.estimates)

    def histograms(self) -> dict[int, DiscreteDistribution]:
        """The publishable per-edge histograms (feeds ``CostUpdate``)."""
        return {
            edge_id: estimate.distribution
            for edge_id, estimate in self.estimates.items()
        }


class HistogramEstimator:
    """EM-style per-edge histogram estimation over a trajectory corpus.

    ``priors`` maps edge ids to the histogram currently serving that edge
    (e.g. the live :class:`~repro.core.costs.EdgeCostTable` contents);
    edges without a prior are estimated purely empirically even when
    ``prior_weight`` is positive.
    """

    def __init__(
        self,
        *,
        config: EstimationConfig | None = None,
        priors: Mapping[int, DiscreteDistribution] | None = None,
    ) -> None:
        self.config = config or EstimationConfig()
        self.priors = dict(priors) if priors else {}

    # ------------------------------------------------------------------
    # The reallocation loop
    # ------------------------------------------------------------------

    @staticmethod
    def _means(samples: Mapping[int, list[int]]) -> dict[int, float]:
        return {
            edge_id: sum(values) / len(values)
            for edge_id, values in samples.items()
        }

    @staticmethod
    def _reallocate(
        trips: list[MatchedTrajectory], means: Mapping[int, float]
    ) -> dict[int, list[int]]:
        """E-step: re-split each trip's duration by the current means."""
        samples: dict[int, list[int]] = defaultdict(list)
        for trip in trips:
            duration = trip.total_travel_time
            edge_ids = trip.edge_ids
            shares = [means[edge_id] for edge_id in edge_ids]
            total = sum(shares)
            for edge_id, share in zip(edge_ids, shares):
                samples[edge_id].append(
                    max(1, int(round(duration * share / total)))
                )
        return samples

    def estimate(
        self, corpus: TrajectoryStore | Iterable[MatchedTrajectory]
    ) -> EstimationResult:
        """One full re-estimation pass over ``corpus``.

        Accepts a live :class:`TrajectoryStore` or any iterable of matched
        trips (the cross-validation gate trains on per-fold trip subsets).
        """
        trips = list(corpus)
        if not trips:
            return EstimationResult()

        # Iteration 0: the allocations the matcher (or feed) delivered.
        samples: dict[int, list[int]] = defaultdict(list)
        for trip in trips:
            for traversal in trip.traversals:
                samples[traversal.edge_id].append(traversal.travel_time)

        deltas: dict[int, float] = {edge_id: 0.0 for edge_id in samples}
        iterations = 0
        for _ in range(self.config.max_iterations):
            means = self._means(samples)
            new_samples = self._reallocate(trips, means)
            new_means = self._means(new_samples)
            deltas = {
                edge_id: abs(new_means[edge_id] - means[edge_id])
                for edge_id in new_means
            }
            samples = new_samples
            iterations += 1
            if max(deltas.values()) <= self.config.tolerance_ticks:
                break

        estimates: dict[int, EdgeEstimate] = {}
        for edge_id, values in samples.items():
            if len(values) < self.config.min_samples:
                continue
            empirical = DiscreteDistribution.from_samples(values)
            distribution = self._blend(edge_id, empirical, len(values))
            delta = deltas.get(edge_id, 0.0)
            estimates[edge_id] = EdgeEstimate(
                edge_id=edge_id,
                distribution=distribution,
                num_samples=len(values),
                mean_delta_ticks=delta,
                converged=delta <= self.config.tolerance_ticks,
            )
        return EstimationResult(
            estimates=estimates,
            iterations=iterations,
            converged=all(e.converged for e in estimates.values()),
            num_trips=len(trips),
        )

    def _blend(
        self, edge_id: int, empirical: DiscreteDistribution, num_samples: int
    ) -> DiscreteDistribution:
        """Pseudo-count blend of the empirical histogram with its prior."""
        prior = self.priors.get(edge_id)
        if prior is None or self.config.prior_weight <= 0:
            return empirical
        return mixture(
            [empirical, prior], [float(num_samples), self.config.prior_weight]
        )


def pooled_fallbacks(
    network: RoadNetwork,
    estimates: Mapping[int, EdgeEstimate],
    *,
    resolution: float,
    min_pool_weight: float = 30.0,
) -> dict[int, DiscreteDistribution]:
    """Partial pooling: histograms for edges the corpus never covered.

    A published table that mixes learned congestion histograms with the
    untouched free-flow *point masses* of unobserved edges is a trap: the
    router flees every well-observed (and therefore realistically slow)
    edge onto unobserved ones that still look perfectly free-flowing, and
    true route quality *drops* as the corpus grows.  The standard remedy is
    hierarchical shrinkage — what we can say about an unobserved edge is
    what the corpus says about edges *like it*.

    Each estimated edge contributes its histogram in **relative inflation**
    terms (ticks divided by the edge's free-flow ticks) to a pool for its
    road category — congestion severity is category-structured (arterials
    suffer more than side streets), so pooling by category captures the
    first-order signal.  A category whose pooled sample weight is below
    ``min_pool_weight`` falls back to the network-wide pool.  An unobserved
    edge then gets the pool's inflation distribution rescaled to its own
    free-flow time.

    Returns ``{edge_id: histogram}`` for exactly the edges *not* in
    ``estimates`` (empty when nothing was estimated — no evidence, no
    synthesis).
    """
    pools: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for estimate in estimates.values():
        edge = network.edge(estimate.edge_id)
        free_flow = max(1, int(round(edge.free_flow_time / resolution)))
        distribution = estimate.distribution
        for index, prob in enumerate(distribution.probs):
            if prob <= 0.0:
                continue
            ratio = (distribution.offset + index) / free_flow
            pools[edge.category].append(
                (ratio, float(prob) * estimate.num_samples)
            )
    global_pool = [item for items in pools.values() for item in items]
    if not global_pool:
        return {}
    fallbacks: dict[int, DiscreteDistribution] = {}
    for edge in network.edges:
        if edge.id in estimates:
            continue
        pool = pools.get(edge.category, [])
        if sum(weight for _, weight in pool) < min_pool_weight:
            pool = global_pool
        free_flow = max(1, int(round(edge.free_flow_time / resolution)))
        mapping: dict[int, float] = defaultdict(float)
        for ratio, weight in pool:
            mapping[max(1, int(round(ratio * free_flow)))] += weight
        fallbacks[edge.id] = DiscreteDistribution.from_mapping(mapping)
    return fallbacks
