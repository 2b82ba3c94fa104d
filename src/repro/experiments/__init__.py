"""Experiment harness regenerating every table/figure of the paper.

Presets, distance-banded workloads, the quality/efficiency/model-KL/
dependence experiments and the shared orchestration runner.
"""

from .config import PRESETS, DistanceBand, ExperimentPreset, get_preset
from .dependence import DependenceResult, run_dependence_experiment
from .efficiency import EfficiencyRow, EfficiencyTable, run_efficiency_experiment
from .model_eval import ModelEvaluation, evaluate_model
from .quality import (
    QualityCell,
    QualityRow,
    QualityTable,
    run_quality_experiment,
)
from .runner import ReproductionRunner, get_runner
from .tables import format_percent, format_seconds, render_table
from .workloads import BandedQuery, WorkloadGenerator

__all__ = [
    "BandedQuery",
    "DependenceResult",
    "DistanceBand",
    "EfficiencyRow",
    "EfficiencyTable",
    "ExperimentPreset",
    "ModelEvaluation",
    "PRESETS",
    "QualityCell",
    "QualityRow",
    "QualityTable",
    "ReproductionRunner",
    "WorkloadGenerator",
    "evaluate_model",
    "format_percent",
    "format_seconds",
    "get_preset",
    "get_runner",
    "render_table",
    "run_dependence_experiment",
    "run_efficiency_experiment",
    "run_quality_experiment",
]
