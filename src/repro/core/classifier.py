"""The convolution-vs-estimation dependence classifier.

Component (ii) of the paper's Hybrid Model: a binary classifier that decides,
per intersection crossing, whether the classical convolution is safe (edges
independent) or the learned estimator should be used (edges dependent).

Training labels are *outcome-based*, matching the paper's criterion: a
combination is labelled "estimate" exactly when the estimator's KL-divergence
to the ground-truth combined distribution beats convolution's on held-in
data.  The classifier then generalises that decision to unseen combinations
from the same features the estimator sees (including the intersection's
historical dependence score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml import LogisticRegression, StandardScaler

__all__ = ["ClassifierConfig", "DependenceClassifier"]

#: Label value meaning "use the estimation model".
USE_ESTIMATION = 1
#: Label value meaning "use convolution".
USE_CONVOLUTION = 0


@dataclass(frozen=True)
class ClassifierConfig:
    """Dependence-classifier settings.

    The learner is a logistic regression (fast, deterministic,
    well-calibrated).  ``threshold`` is the estimation-probability cut-off;
    values above 0.5 bias the hybrid towards convolution, which is the
    cheaper and safer default at independent intersections.
    """

    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")


class DependenceClassifier:
    """Binary classifier choosing convolution vs estimation per combination:
    a logistic regression, or a constant when training saw one class."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()
        self._scaler = StandardScaler()
        self._model = LogisticRegression()
        self._fitted = False
        self._constant_label: int | None = None
        self.token = object()

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DependenceClassifier":
        """Train from feature rows and 0/1 labels (1 = use estimation).

        Degenerate single-class training sets (every pair independent, or
        every pair dependent) are handled by collapsing to a constant
        decision instead of erroring.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if labels.size != features.shape[0]:
            raise ValueError("features and labels must have the same length")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        unique = np.unique(labels)
        if unique.size == 1:
            self._constant_label = int(unique[0])
        else:
            self._constant_label = None
            scaled = self._scaler.fit_transform(features)
            self._model.fit(scaled, labels)
        self._fitted = True
        self.token = object()  # after the weights: whoever sees it reads them
        return self

    def estimation_probability(self, features: np.ndarray) -> np.ndarray:
        """``P(use estimation)`` per feature row."""
        if not self._fitted:
            raise RuntimeError("DependenceClassifier is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._constant_label is not None:
            return np.full(features.shape[0], float(self._constant_label))
        probs = self._model.predict_proba(self._scaler.transform(features))
        return probs[:, USE_ESTIMATION]

    def should_estimate(self, features: np.ndarray) -> bool:
        """Decision for a single combination."""
        return bool(self.decide_rows(features)[0])

    def decide_rows(self, features: np.ndarray) -> np.ndarray:
        """Decisions for whole feature rows, each row's logit its own
        ``(1, d)`` product, so row ``i`` is bit for bit its one-row call's
        (``X @ w`` on a block may pick a kernel that rounds otherwise); a
        constant reads no feature."""
        if not self._fitted:
            raise RuntimeError("DependenceClassifier is not fitted")
        if self._constant_label is not None:
            return np.full(len(np.atleast_2d(features)), self._constant_label == USE_ESTIMATION)
        model, scaled = self._model, self._scaler.transform(features)
        logits = (scaled[:, None, :] @ model.coef_)[:, 0] + model.intercept_
        return LogisticRegression._sigmoid(logits) >= self.config.threshold

    def decide_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorised decisions (bool array) for a feature batch."""
        return self.estimation_probability(features) >= self.config.threshold
