"""Experiment orchestration: build once, run every table.

:class:`ReproductionRunner` assembles the full stack for a preset — network,
ground-truth traffic model, trajectory corpus, trained hybrid — lazily and
exactly once, and hands out one warm :class:`RoutingEngine` per model for the
table drivers.  Benches and examples share runners through :func:`get_runner`
so a pytest-benchmark session pays the corpus/training cost once.
"""

from __future__ import annotations

from ..core import TrainedHybrid, train_hybrid
from ..network import RoadNetwork, denmark_like_network
from ..routing import RoutingEngine
from ..trajectories import (
    CongestionModel,
    TrajectoryStore,
    TripConfig,
    TripGenerator,
)
from .config import DistanceBand, ExperimentPreset, get_preset
from .dependence import DependenceResult, run_dependence_experiment
from .model_eval import ModelEvaluation, evaluate_model
from .workloads import BandedQuery, WorkloadGenerator

__all__ = ["ReproductionRunner", "get_runner"]

_RUNNER_CACHE: dict[str, "ReproductionRunner"] = {}


class ReproductionRunner:
    """Lazily-built shared state for one preset's experiments."""

    def __init__(self, preset: ExperimentPreset) -> None:
        self.preset = preset
        self._network: RoadNetwork | None = None
        self._model: CongestionModel | None = None
        self._store: TrajectoryStore | None = None
        self._trained: TrainedHybrid | None = None
        self._workload: dict[DistanceBand, list[BandedQuery]] | None = None
        self._engines: dict[str, RoutingEngine] = {}

    # ------------------------------------------------------------------
    # Lazy construction
    # ------------------------------------------------------------------

    @property
    def network(self) -> RoadNetwork:
        if self._network is None:
            preset = self.preset
            self._network = denmark_like_network(
                num_towns=preset.num_towns,
                town_rows=preset.town_rows,
                town_cols=preset.town_cols,
                intercity_distance=preset.intercity_distance,
                seed=preset.seed,
            )
        return self._network

    @property
    def traffic_model(self) -> CongestionModel:
        if self._model is None:
            self._model = CongestionModel(
                self.network, self.preset.congestion, seed=self.preset.seed
            )
        return self._model

    @property
    def store(self) -> TrajectoryStore:
        if self._store is None:
            generator = TripGenerator(
                self.network,
                self.traffic_model,
                config=TripConfig(max_edges=self.preset.max_trip_edges),
                seed=self.preset.seed,
            )
            store = TrajectoryStore()
            store.add_all(generator.generate(self.preset.num_trips))
            self._store = store
        return self._store

    @property
    def trained(self) -> TrainedHybrid:
        if self._trained is None:
            self._trained = train_hybrid(
                self.network,
                self.store,
                self.preset.training,
                traffic_model=self.traffic_model,
            )
        return self._trained

    @property
    def workload(self) -> dict[DistanceBand, list[BandedQuery]]:
        if self._workload is None:
            generator = WorkloadGenerator(
                self.network,
                self.trained.costs,
                budget_factor=self.preset.budget_factor,
                seed=self.preset.seed + 1,
            )
            self._workload = generator.generate(
                self.preset.bands, self.preset.queries_per_band
            )
        return self._workload

    def engine(self, model: str = "hybrid") -> RoutingEngine:
        """The preset's shared :class:`RoutingEngine` for ``model``.

        ``model`` is ``"hybrid"`` or ``"convolution"``.  Engines are cached
        per model so every experiment, bench and example run through the
        same facade and share its heuristic/CDF caches.
        """
        engine = self._engines.get(model)
        if engine is None:
            if model == "hybrid":
                combiner = self.trained.hybrid_model()
            elif model == "convolution":
                combiner = self.trained.convolution_model()
            else:
                raise KeyError(f"unknown engine model {model!r}")
            engine = RoutingEngine(self.network, combiner)
            self._engines[model] = engine
        return engine

    # ------------------------------------------------------------------
    # Experiments (one per paper artefact)
    # ------------------------------------------------------------------

    def run_model_evaluation(self) -> ModelEvaluation:
        """E4: held-out KL of convolution / estimation / hybrid."""
        return evaluate_model(self.trained)

    def run_dependence(self) -> DependenceResult:
        """E3: fraction of observed edge pairs that are dependent."""
        return run_dependence_experiment(
            self.store,
            self.traffic_model,
            min_samples=self.preset.training.min_pair_samples,
        )


def get_runner(preset_name: str) -> ReproductionRunner:
    """Shared runner per preset (corpus and training built once)."""
    runner = _RUNNER_CACHE.get(preset_name)
    if runner is None:
        runner = ReproductionRunner(get_preset(preset_name))
        _RUNNER_CACHE[preset_name] = runner
    return runner
