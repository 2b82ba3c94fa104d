"""The two worlds the benchmark serves, pinned independently of ``--seed``.

*Scale world*: the 160x160 jittered grid (101,760 edges) with the 80/20
deterministic/stochastic tick costs of ``bench_hot_paths._scale_world``,
re-stated here, behind a ``ConvolutionModel``.

*Hybrid world*: the ``small`` preset's network, traffic model and training
pipeline behind the paper's ``HybridModel``.  The corpus and epoch count
are cut (5,000 trips, 30 epochs, no refinement rounds) so that the server
trains in ~3 s instead of ~14 s: the driver repeats set-up on every run
under a wall-clock cap, and the benchmark measures the *serving* cost of
the combiner, which does not depend on how long the MLP trained.

The load generator must derive budgets without asking the server, so each
world also has a light form: topology plus per-edge minimum ticks, with no
histogram objects (scale) or no training (hybrid).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import (
    ConvolutionModel,
    CostCombiner,
    EdgeCostTable,
    EstimatorConfig,
    TrainedHybrid,
    train_hybrid,
)
from repro.experiments.config import ExperimentPreset, get_preset
from repro.histograms import DiscreteDistribution
from repro.ml import MlpConfig
from repro.network import RoadNetwork, denmark_like_network
from repro.network.generators import grid_network
from repro.trajectories import (
    CongestionModel,
    TrajectoryStore,
    TripConfig,
    TripGenerator,
)

SCALE_GRID = (160, 160)
SCALE_SEED = 42
SCALE_DETERMINISTIC_SHARE = 0.8

HYBRID_PRESET = "small"
HYBRID_TRIPS = 5000
HYBRID_EPOCHS = 30
HYBRID_MIN_PAIR_SAMPLES = 30

WORLD_NAMES = ("scale", "hybrid")


@dataclass
class World:
    """A built world: what a server serves and what an oracle re-derives."""

    name: str
    network: RoadNetwork
    costs: EdgeCostTable
    #: Builds a *fresh* combiner over a given cost table, sharing no memo
    #: with the one the service under test holds.
    combiner_for: Callable[[EdgeCostTable], CostCombiner]
    #: A (source, target) pair a server routes once to warm its kernels.
    warm_pair: tuple[int, int]
    #: Wall-clock seconds of each build stage, by per-layer metric name.
    timings: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Scale world
# ----------------------------------------------------------------------


def scale_network() -> RoadNetwork:
    return grid_network(*SCALE_GRID, jitter=0.2, seed=SCALE_SEED)


def _scale_draws(num_edges: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per edge id: offset, is-stochastic flag, support size, raw weights.

    The one statement of the scale world's random stream; the light and
    the full form both read it, so they cannot drift apart.  The recipe is
    ``bench_hot_paths._scale_world``'s (offsets 1-3, 80 % point masses,
    else 2-3 ticks of support with weights ``U(0.1, 1.1)`` normalised) but
    drawn as four vectors rather than edge by edge, which takes ~2 s off
    every server start.
    """
    rng = np.random.default_rng(SCALE_SEED)
    offsets = rng.integers(1, 4, size=num_edges)
    stochastic = rng.random(num_edges) >= SCALE_DETERMINISTIC_SHARE
    sizes = rng.integers(2, 4, size=num_edges)
    weights = rng.random((num_edges, 3)) + 0.1
    return offsets, stochastic, sizes, weights


def scale_min_ticks(network: RoadNetwork) -> list[int]:
    """Minimum ticks per edge id: the offset, as every weight is positive."""
    return _scale_draws(network.num_edges)[0].tolist()


def scale_costs(network: RoadNetwork) -> EdgeCostTable:
    offsets, stochastic, sizes, weights = _scale_draws(network.num_edges)
    costs = EdgeCostTable(network, resolution=1.0)
    # Distributions are immutable, so the three point masses are shared.
    points = {ticks: DiscreteDistribution.point(ticks) for ticks in (1, 2, 3)}
    for edge_id, offset in enumerate(offsets.tolist()):
        if stochastic[edge_id]:
            support = weights[edge_id, : sizes[edge_id]]
            costs.set_cost(
                edge_id, DiscreteDistribution(offset, support / support.sum())
            )
        else:
            costs.set_cost(edge_id, points[offset])
    return costs


def build_scale_world() -> World:
    begin = time.perf_counter()
    network = scale_network()
    grid_done = time.perf_counter()
    costs = scale_costs(network)
    return World(
        name="scale",
        network=network,
        costs=costs,
        combiner_for=ConvolutionModel,
        warm_pair=(60 * SCALE_GRID[1] + 55, 80 * SCALE_GRID[1] + 80),
        timings={
            "network.grid_build_s": grid_done - begin,
            "core.costs.table_build_s": time.perf_counter() - grid_done,
        },
    )


# ----------------------------------------------------------------------
# Hybrid world
# ----------------------------------------------------------------------


def _hybrid_corpus() -> tuple[ExperimentPreset, RoadNetwork, CongestionModel, TrajectoryStore]:
    preset = get_preset(HYBRID_PRESET)
    network = denmark_like_network(
        num_towns=preset.num_towns,
        town_rows=preset.town_rows,
        town_cols=preset.town_cols,
        intercity_distance=preset.intercity_distance,
        seed=preset.seed,
    )
    traffic = CongestionModel(network, preset.congestion, seed=preset.seed)
    trips = TripGenerator(
        network,
        traffic,
        config=TripConfig(max_edges=preset.max_trip_edges),
        seed=preset.seed,
    )
    store = TrajectoryStore()
    store.add_all(trips.generate(HYBRID_TRIPS))
    return preset, network, traffic, store


def hybrid_light() -> tuple[RoadNetwork, EdgeCostTable]:
    """Network and cost table of the hybrid world, without training.

    The table is what ``train_hybrid`` builds first from the same corpus,
    so the generator's optimistic distances match the server's.
    """
    preset, network, _, store = _hybrid_corpus()
    costs = EdgeCostTable.from_store(
        network,
        store,
        resolution=preset.training.resolution,
        min_samples=preset.training.min_edge_samples,
    )
    return network, costs


def build_hybrid_world() -> World:
    begin = time.perf_counter()
    preset, network, traffic, store = _hybrid_corpus()
    corpus_done = time.perf_counter()
    config = dataclasses.replace(
        preset.training,
        refinement_rounds=0,
        min_pair_samples=HYBRID_MIN_PAIR_SAMPLES,
        estimator=EstimatorConfig(
            num_bins=preset.training.estimator.num_bins,
            mlp=MlpConfig(
                hidden_sizes=preset.training.estimator.mlp.hidden_sizes,
                max_epochs=HYBRID_EPOCHS,
                seed=0,
            ),
        ),
    )
    trained: TrainedHybrid = train_hybrid(
        network, store, config, traffic_model=traffic
    )

    def combiner_for(costs: EdgeCostTable) -> CostCombiner:
        # A new HybridModel per call: its edge memo and HybridStats start
        # empty, while the trained (read-only) parts are shared.
        return dataclasses.replace(trained, costs=costs).hybrid_model()

    return World(
        name="hybrid",
        network=network,
        costs=trained.costs,
        combiner_for=combiner_for,
        warm_pair=(min(network.vertex_ids()), max(network.vertex_ids())),
        timings={
            "trajectories.corpus_build_s": corpus_done - begin,
            "core.training.train_s": time.perf_counter() - corpus_done,
        },
    )


def build_world(name: str) -> World:
    if name == "scale":
        return build_scale_world()
    if name == "hybrid":
        return build_hybrid_world()
    raise ValueError(f"unknown world {name!r}; expected one of {WORLD_NAMES}")
