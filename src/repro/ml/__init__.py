"""From-scratch NumPy ML stack: the Hybrid Model's two learned stages.

A softmax MLP (:class:`MlpDistributionRegressor`, the paper's distribution
estimation model) and a logistic regression (:class:`LogisticRegression`,
the dependence classifier), each behind a :class:`StandardScaler`, plus the
k-fold splitter and the accuracy metric their training paths use.  Losses
and the Adam optimizer live in :mod:`.losses` and :mod:`.optimizers`.
"""

from .linear import LogisticRegression
from .metrics import accuracy
from .mlp import MlpConfig, MlpDistributionRegressor, MlpNetwork
from .model_selection import kfold_indices
from .preprocessing import StandardScaler

__all__ = [
    "LogisticRegression",
    "MlpConfig",
    "MlpDistributionRegressor",
    "MlpNetwork",
    "StandardScaler",
    "accuracy",
    "kfold_indices",
]
