"""Experiment presets: one place defining every reproduction run's scale.

The paper's testbed is the full Danish road network with a national GPS
corpus; our presets re-create its structure at laptop scale (see DESIGN.md's
substitution table).  ``small`` keeps CI fast, ``medium`` is the default for
the reported numbers in EXPERIMENTS.md, ``large`` stresses the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import EstimatorConfig, FeatureConfig, TrainingConfig
from ..ml import MlpConfig
from ..trajectories import STRUCTURED_CONFIG, CongestionConfig

__all__ = ["DistanceBand", "ExperimentPreset", "PRESETS", "get_preset"]


@dataclass(frozen=True)
class DistanceBand:
    """One of the paper's query distance categories, in kilometres."""

    low_km: float
    high_km: float

    def __post_init__(self) -> None:
        if not 0 <= self.low_km < self.high_km:
            raise ValueError("band must satisfy 0 <= low < high")

    @property
    def label(self) -> str:
        return f"[{self.low_km:g}, {self.high_km:g})"

    def contains(self, distance_km: float) -> bool:
        return self.low_km <= distance_km < self.high_km


#: The paper's three distance categories.
PAPER_BANDS = (
    DistanceBand(0.0, 1.0),
    DistanceBand(1.0, 5.0),
    DistanceBand(5.0, 10.0),
)


@dataclass(frozen=True)
class ExperimentPreset:
    """Everything an experiment run needs, deterministically seeded."""

    name: str
    # network scale (denmark-like generator)
    num_towns: int
    town_rows: int
    town_cols: int
    intercity_distance: float
    # corpus
    num_trips: int
    max_trip_edges: int
    congestion = STRUCTURED_CONFIG  # not a field: every preset's ground truth
    # training
    training: TrainingConfig = field(default_factory=TrainingConfig)
    # workload
    bands: tuple[DistanceBand, ...] = PAPER_BANDS
    queries_per_band: int = 20
    budget_factor: float = 1.5
    # anytime limits in seconds (the paper's P1/P5/P10, scaled to our testbed)
    anytime_limits: tuple[float, ...] = (0.05, 0.25, 1.0)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_trips < 1:
            raise ValueError("num_trips must be >= 1")
        if self.queries_per_band < 1:
            raise ValueError("queries_per_band must be >= 1")
        if self.budget_factor <= 1.0:
            raise ValueError("budget_factor must exceed 1 (budgets below the "
                             "minimum travel time make every probability 0)")


def _training(num_train: int, num_test: int, *, min_pair_samples: int, epochs: int) -> TrainingConfig:
    return TrainingConfig(
        num_train_pairs=num_train,
        num_test_pairs=num_test,
        min_pair_samples=min_pair_samples,
        min_edge_samples=10,
        num_virtual_examples=max(600, num_train // 2),
        virtual_max_prepath=45,
        refinement_rounds=2,
        estimator=EstimatorConfig(
            num_bins=48,
            mlp=MlpConfig(hidden_sizes=(64, 64), max_epochs=epochs, seed=0),
        ),
        features=FeatureConfig(profile_bins=16),
        seed=0,
    )


PRESETS: dict[str, ExperimentPreset] = {
    # CI-scale: one town, small corpus, two bands reachable.
    "small": ExperimentPreset(
        name="small",
        num_towns=1,
        town_rows=8,
        town_cols=8,
        intercity_distance=0.0,
        num_trips=15000,
        max_trip_edges=40,
        training=_training(400, 100, min_pair_samples=60, epochs=100),
        bands=(DistanceBand(0.0, 1.0), DistanceBand(1.0, 5.0)),
        queries_per_band=8,
        anytime_limits=(0.01, 0.05, 0.2),
    ),
    # Default reproduction scale: 4 towns joined by motorways, all 3 bands.
    "medium": ExperimentPreset(
        name="medium",
        num_towns=4,
        town_rows=9,
        town_cols=9,
        intercity_distance=3500.0,
        num_trips=20000,
        max_trip_edges=60,
        training=_training(4000, 1000, min_pair_samples=40, epochs=120),
        queries_per_band=15,
        anytime_limits=(0.05, 0.25, 1.0),
    ),
    # Stress scale for efficiency curves.
    "large": ExperimentPreset(
        name="large",
        num_towns=6,
        town_rows=12,
        town_cols=12,
        intercity_distance=4000.0,
        num_trips=40000,
        max_trip_edges=80,
        training=_training(4000, 1000, min_pair_samples=40, epochs=120),
        queries_per_band=20,
        anytime_limits=(0.1, 0.5, 2.0),
    ),
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a preset by name with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
