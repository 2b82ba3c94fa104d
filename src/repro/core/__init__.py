"""The paper's core contribution: the Hybrid Model.

Distribution-estimation model + dependence classifier + convolution,
arbitrated per intersection; iterative path-cost computation with the
virtual-edge trick; training pipeline and persistence.
"""

from .classifier import ClassifierConfig, DependenceClassifier
from .costs import EdgeCostTable
from .estimator import DistributionEstimator, EstimatorConfig
from .features import FeatureConfig, IntersectionStats, PairFeatureExtractor
from .models import (
    ConvolutionModel,
    CostCombiner,
    EstimationModel,
    HybridModel,
    HybridStats,
)
from .path_cost import path_cost
from .persistence import load_hybrid, save_hybrid
from .training import (
    PairExample,
    TrainedHybrid,
    TrainingConfig,
    TrainingReport,
    train_hybrid,
)

__all__ = [
    "ClassifierConfig",
    "ConvolutionModel",
    "CostCombiner",
    "DependenceClassifier",
    "DistributionEstimator",
    "EdgeCostTable",
    "EstimationModel",
    "EstimatorConfig",
    "FeatureConfig",
    "HybridModel",
    "HybridStats",
    "IntersectionStats",
    "PairExample",
    "PairFeatureExtractor",
    "TrainedHybrid",
    "TrainingConfig",
    "TrainingReport",
    "load_hybrid",
    "path_cost",
    "save_hybrid",
    "train_hybrid",
]
