"""Latent congestion-state traffic model — the ground-truth substitute.

The paper learns travel-time distributions from real Danish GPS trajectories,
where adjacent edges are spatially *dependent* (~75 % of pairs).  We replace
the proprietary trajectory corpus with a generative traffic model whose
dependence structure is known exactly, so model quality (KL) and routing
quality can be measured against closed-form ground truth:

* Each edge traversal happens under a latent **congestion state**
  (free / moderate / heavy by default).  Conditioned on the state, the edge's
  travel time follows a discrete distribution centred at
  ``free_flow_time * multiplier(state)`` with a binomial spread.
* Along a trajectory the state is a **Markov chain**: crossing intersection
  ``v``, the state persists with probability ``rho(v)`` and is otherwise
  redrawn from the stationary distribution.  ``rho(v) > 0`` makes the two
  adjacent edge travel times dependent — exactly the phenomenon that breaks
  convolution in the paper's motivating example.
* ``rho`` is sampled per intersection: dependent (``rho`` in a configurable
  range) with probability ``dependence_probability`` (default 0.75, the
  paper's measured Danish ratio) and zero otherwise.

Because the chain is Markov with a small state space, the *exact* marginal,
pair joint, and whole-path travel-time distributions are all computable in
closed form (:class:`CongestionModel` methods), while
:meth:`CongestionModel.sample_path_times` draws the synthetic trajectories
the learning pipeline trains on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from ..histograms import DiscreteDistribution, JointDistribution, mixture
from ..network import Edge, EdgePair, RoadCategory, RoadNetwork

__all__ = ["CongestionConfig", "CongestionModel", "STRUCTURED_CONFIG"]


@dataclass(frozen=True)
class CongestionConfig:
    """Parameters of the latent congestion-state traffic model.

    Attributes
    ----------
    resolution:
        Seconds per distribution grid tick.
    multipliers:
        Travel-time multiplier per congestion state (state 0 = free flow).
    stationary:
        Stationary probability of each state; must match ``multipliers`` in
        length and sum to 1.
    relative_spread:
        Half-width of each conditional distribution as a fraction of its
        central travel time (binomial spread around the centre).
    dependence_probability:
        Probability that an intersection couples adjacent edges (paper: 0.75).
    rho_range:
        Persistence probability range for dependent intersections.
    category_multipliers:
        Optional per-road-category override of ``multipliers`` (keyed by
        :class:`~repro.network.RoadCategory` value strings).  Real congestion
        hits arterials harder than side streets; structuring severity by
        category creates the arterial-vs-residential risk trade-off the
        paper's deadline example rests on.  Marginals stay exact because the
        latent state chain itself is unchanged.
    category_dependence:
        Optional per-category dependence probability for intersections (an
        intersection takes the value of its highest-capacity incident edge),
        modelling congestion propagating along major corridors.
    """

    resolution: float = 5.0
    multipliers: tuple[float, ...] = (1.0, 1.6, 2.6)
    stationary: tuple[float, ...] = (0.6, 0.3, 0.1)
    relative_spread: float = 0.25
    dependence_probability: float = 0.75
    rho_range: tuple[float, float] = (0.7, 0.98)
    category_multipliers: Mapping[str, tuple[float, ...]] | None = None
    category_dependence: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if len(self.multipliers) != len(self.stationary):
            raise ValueError("multipliers and stationary must have equal length")
        if len(self.multipliers) < 1:
            raise ValueError("need at least one congestion state")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive")
        if any(p < 0 for p in self.stationary):
            raise ValueError("stationary probabilities must be non-negative")
        if abs(sum(self.stationary) - 1.0) > 1e-9:
            raise ValueError("stationary probabilities must sum to 1")
        if not 0.0 <= self.dependence_probability <= 1.0:
            raise ValueError("dependence_probability must be in [0, 1]")
        lo, hi = self.rho_range
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("rho_range must satisfy 0 < lo <= hi <= 1")
        if self.category_multipliers is not None:
            for key, values in self.category_multipliers.items():
                RoadCategory(key)  # raises for unknown categories
                if len(values) != len(self.multipliers):
                    raise ValueError(
                        f"category_multipliers[{key!r}] must have "
                        f"{len(self.multipliers)} states"
                    )
                if any(m <= 0 for m in values):
                    raise ValueError("multipliers must be positive")
        if self.category_dependence is not None:
            for key, value in self.category_dependence.items():
                RoadCategory(key)
                if not 0.0 <= value <= 1.0:
                    raise ValueError("dependence probabilities must be in [0, 1]")

    @property
    def num_states(self) -> int:
        return len(self.multipliers)

    def multipliers_for(self, category: RoadCategory) -> tuple[float, ...]:
        """State multipliers for one road category."""
        if self.category_multipliers is not None:
            override = self.category_multipliers.get(category.value)
            if override is not None:
                return tuple(override)
        return self.multipliers

    def dependence_probability_for(self, category: RoadCategory) -> float:
        """Intersection dependence probability for one road category."""
        if self.category_dependence is not None:
            override = self.category_dependence.get(category.value)
            if override is not None:
                return float(override)
        return self.dependence_probability


#: A structured configuration modelling congestion that concentrates on, and
#: propagates along, high-capacity corridors: arterials suffer harsher
#: congested-state slowdowns and their junctions couple adjacent edges almost
#: surely, while residential streets are calmer and more independent.  The
#: blend keeps the overall dependent-pair ratio near the paper's 75 %.
STRUCTURED_CONFIG = CongestionConfig(
    category_multipliers={
        RoadCategory.MOTORWAY.value: (1.0, 1.5, 2.8),
        RoadCategory.TRUNK.value: (1.0, 1.6, 3.0),
        RoadCategory.PRIMARY.value: (1.0, 1.8, 3.4),
        RoadCategory.SECONDARY.value: (1.0, 1.7, 3.0),
        RoadCategory.TERTIARY.value: (1.0, 1.6, 2.6),
        RoadCategory.RESIDENTIAL.value: (1.0, 1.35, 1.9),
        RoadCategory.SERVICE.value: (1.0, 1.3, 1.7),
    },
    category_dependence={
        RoadCategory.MOTORWAY.value: 0.92,
        RoadCategory.TRUNK.value: 0.9,
        RoadCategory.PRIMARY.value: 0.85,
        RoadCategory.SECONDARY.value: 0.8,
        RoadCategory.TERTIARY.value: 0.65,
        RoadCategory.RESIDENTIAL.value: 0.5,
        RoadCategory.SERVICE.value: 0.4,
    },
)


def _binomial_weights(width: int) -> np.ndarray:
    """Symmetric binomial pmf over ``2 * width + 1`` cells."""
    n = 2 * width
    return np.array([comb(n, k) for k in range(n + 1)], dtype=np.float64) / float(2**n)


class CongestionModel:
    """Exact generative traffic model over a road network.

    Parameters
    ----------
    network:
        The road network the model covers.
    config:
        Model parameters; defaults reproduce the paper's dependence ratio.
    seed:
        Seed for the per-intersection dependence field.  The field is part of
        the *model* (ground truth), so it is drawn once at construction;
        trajectory sampling takes its own generator.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: CongestionConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.config = config or CongestionConfig()
        rng = np.random.default_rng(seed)
        self._rho: dict[int, float] = {}
        lo, hi = self.config.rho_range
        for vertex_id in sorted(network.vertex_ids()):
            incident = [*network.out_edges(vertex_id), *network.in_edges(vertex_id)]
            if incident:
                best = min(incident, key=lambda edge: edge.category.rank)
                p_dependent = self.config.dependence_probability_for(best.category)
            else:
                p_dependent = self.config.dependence_probability
            if rng.random() < p_dependent:
                self._rho[vertex_id] = float(rng.uniform(lo, hi))
            else:
                self._rho[vertex_id] = 0.0
        self._pi = np.asarray(self.config.stationary, dtype=np.float64)
        self._conditional_cache: dict[tuple[int, int], DiscreteDistribution] = {}
        self._marginal_cache: dict[int, DiscreteDistribution] = {}

    # ------------------------------------------------------------------
    # Dependence field
    # ------------------------------------------------------------------

    def dependent_vertex_fraction(self) -> float:
        """Fraction of intersections with positive persistence."""
        values = list(self._rho.values())
        return sum(1 for rho in values if rho > 0) / len(values)

    def transition_matrix(self, vertex_id: int) -> np.ndarray:
        """State transition matrix across intersection ``vertex_id``.

        ``T = rho * I + (1 - rho) * 1 pi^T`` — persist or redraw from the
        stationary distribution.  Stationarity is preserved exactly, so the
        marginal state distribution on *every* edge is ``pi``.
        """
        rho = self._rho[vertex_id]
        k = self.config.num_states
        return rho * np.eye(k) + (1.0 - rho) * np.tile(self._pi, (k, 1))

    # ------------------------------------------------------------------
    # Conditional and marginal edge distributions
    # ------------------------------------------------------------------

    def edge_ticks(self, edge: Edge) -> int:
        """Free-flow traversal time of ``edge`` in grid ticks (>= 1)."""
        return max(1, int(round(edge.free_flow_time / self.config.resolution)))

    def edge_state_distribution(self, edge: Edge, state: int) -> DiscreteDistribution:
        """``P(travel time | congestion state)`` for one edge.

        A symmetric binomial spread centred at ``free_flow_ticks * multiplier``
        with half-width ``relative_spread * centre`` (at least one tick when
        the centre exceeds one tick).
        """
        if not 0 <= state < self.config.num_states:
            raise ValueError(f"state {state} out of range")
        key = (edge.id, state)
        cached = self._conditional_cache.get(key)
        if cached is not None:
            return cached
        multiplier = self.config.multipliers_for(edge.category)[state]
        centre = max(1, int(round(self.edge_ticks(edge) * multiplier)))
        width = int(round(self.config.relative_spread * centre))
        if self.config.relative_spread > 0 and centre > 1:
            width = max(width, 1)
        lo = max(1, centre - width)
        width = centre - lo  # clip the spread so support stays >= 1 tick
        if width == 0:
            dist = DiscreteDistribution.point(centre)
        else:
            dist = DiscreteDistribution(lo, _binomial_weights(width), normalize=False)
        self._conditional_cache[key] = dist
        return dist

    def edge_marginal(self, edge: Edge) -> DiscreteDistribution:
        """Marginal travel-time distribution of one edge (mixture over ``pi``)."""
        cached = self._marginal_cache.get(edge.id)
        if cached is not None:
            return cached
        components = [
            self.edge_state_distribution(edge, s) for s in range(self.config.num_states)
        ]
        dist = mixture(components, self._pi)
        self._marginal_cache[edge.id] = dist
        return dist

    def slice_marginal(
        self, edge: Edge, weights: Sequence[float]
    ) -> DiscreteDistribution:
        """Edge marginal under a non-stationary congestion-state mix.

        Time-of-day cost-table slices (peak / off-peak / night; see
        :mod:`repro.service.scenarios`) are the same conditional edge
        distributions mixed with a *slice-specific* state weighting instead
        of the stationary ``pi`` — rush hour loads the heavy states, night
        collapses onto free flow.  ``weights`` must have one non-negative
        entry per congestion state with positive sum (normalised here).
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.config.num_states,):
            raise ValueError(
                f"weights must have one entry per congestion state "
                f"({self.config.num_states}), got shape {w.shape}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)) or float(w.sum()) <= 0:
            raise ValueError(
                "weights must be non-negative, finite, with positive sum"
            )
        components = [
            self.edge_state_distribution(edge, s)
            for s in range(self.config.num_states)
        ]
        return mixture(components, w / float(w.sum()))

    def cost_update(
        self, edges: Sequence[Edge], state: int
    ) -> dict[int, DiscreteDistribution]:
        """Per-edge histogram deltas for one congestion feed event.

        The adapter behind :meth:`repro.service.CostUpdate.from_congestion`:
        a feed reporting that ``edges`` (an incident corridor, say) are
        currently in latent ``state`` translates into the state-conditioned
        histograms routing should serve until the next report.  The returned
        mapping feeds :meth:`repro.core.costs.EdgeCostTable.apply_deltas`
        directly (one version bump for the whole event).
        """
        if not 0 <= state < self.config.num_states:
            raise ValueError(f"state {state} out of range")
        if len(edges) == 0:
            raise ValueError("a cost update needs at least one edge")
        return {
            edge.id: self.edge_state_distribution(edge, state) for edge in edges
        }

    # ------------------------------------------------------------------
    # Exact joints and path distributions
    # ------------------------------------------------------------------

    def pair_joint(self, pair: EdgePair) -> JointDistribution:
        """Exact joint ``P(t1, t2)`` for a consecutive edge pair.

        ``P(t1, t2) = sum_s pi_s D1_s(t1) sum_s' T(s, s') D2_s'(t2)``.
        """
        transition = self.transition_matrix(pair.intersection)
        first = [
            self.edge_state_distribution(pair.first, s)
            for s in range(self.config.num_states)
        ]
        second = [
            self.edge_state_distribution(pair.second, s)
            for s in range(self.config.num_states)
        ]
        lo1 = min(d.min_value for d in first)
        hi1 = max(d.max_value for d in first)
        lo2 = min(d.min_value for d in second)
        hi2 = max(d.max_value for d in second)
        probs = np.zeros((hi1 - lo1 + 1, hi2 - lo2 + 1), dtype=np.float64)
        for s in range(self.config.num_states):
            row = np.zeros(hi1 - lo1 + 1)
            start = first[s].min_value - lo1
            row[start : start + first[s].support_size] = first[s].probs
            col = np.zeros(hi2 - lo2 + 1)
            for s2 in range(self.config.num_states):
                start2 = second[s2].min_value - lo2
                col[start2 : start2 + second[s2].support_size] += (
                    transition[s, s2] * second[s2].probs
                )
            probs += self._pi[s] * np.outer(row, col)
        return JointDistribution(lo1, lo2, probs, normalize=False)

    def pair_ground_truth(self, pair: EdgePair) -> DiscreteDistribution:
        """Exact distribution of ``t1 + t2`` for an edge pair."""
        return self.pair_joint(pair).total_cost()

    def path_distribution(self, edges: Sequence[Edge]) -> DiscreteDistribution:
        """Exact travel-time distribution of a whole path.

        Dynamic programming over the state chain: carry, per congestion
        state, the sub-distribution of accumulated time; at each intersection
        apply the transition matrix, then convolve each state's
        sub-distribution with that state's conditional edge distribution.
        This is the ground truth routing quality is judged against.
        """
        if len(edges) == 0:
            raise ValueError("path must contain at least one edge")
        k = self.config.num_states

        def state_convolve(sub: list[np.ndarray], offset: int, edge: Edge) -> tuple[list[np.ndarray], int]:
            conditionals = [self.edge_state_distribution(edge, s) for s in range(k)]
            lo = min(c.min_value for c in conditionals)
            hi = max(c.max_value for c in conditionals)
            width = hi - lo + 1
            out = []
            for s in range(k):
                c = conditionals[s]
                padded = np.zeros(width)
                padded[c.min_value - lo : c.min_value - lo + c.support_size] = c.probs
                out.append(np.convolve(sub[s], padded))
            return out, offset + lo

        sub: list[np.ndarray] = [self._pi[s] * np.ones(1) for s in range(k)]
        offset = 0
        sub, offset = state_convolve(sub, offset, edges[0])
        for previous, edge in zip(edges, edges[1:]):
            if previous.target != edge.source:
                raise ValueError("edges do not form a path")
            transition = self.transition_matrix(previous.target)
            size = max(arr.size for arr in sub)
            stacked = np.zeros((k, size))
            for s in range(k):
                stacked[s, : sub[s].size] = sub[s]
            mixed = transition.T @ stacked
            sub = [mixed[s] for s in range(k)]
            sub, offset = state_convolve(sub, offset, edge)
        total = sub[0]
        for s in range(1, k):
            total = total + sub[s]
        return DiscreteDistribution(offset, total, normalize=False)

    def path_probability_within(self, edges: Sequence[Edge], budget_ticks: int) -> float:
        """Ground-truth ``P(path cost <= budget)`` — the quality yardstick."""
        return self.path_distribution(edges).prob_within(budget_ticks)

    # ------------------------------------------------------------------
    # Sampling (synthetic trajectory generation)
    # ------------------------------------------------------------------

    def sample_path_times(
        self, edges: Sequence[Edge], rng: np.random.Generator
    ) -> list[int]:
        """Draw one vehicle's per-edge travel times (ticks) along ``edges``."""
        if len(edges) == 0:
            return []
        times: list[int] = []
        state = int(rng.choice(self.config.num_states, p=self._pi))
        times.append(self.edge_state_distribution(edges[0], state).sample(rng))
        for previous, edge in zip(edges, edges[1:]):
            if previous.target != edge.source:
                raise ValueError("edges do not form a path")
            if rng.random() >= self._rho[previous.target]:
                state = int(rng.choice(self.config.num_states, p=self._pi))
            times.append(self.edge_state_distribution(edge, state).sample(rng))
        return times
