"""Random forest on top of the CART trees.

Bootstrap-aggregated trees with per-node feature subsampling — the stronger
alternative dependence classifier when intersections need non-linear decision
boundaries.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Classifier, Regressor, check_2d, check_fitted
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class RandomForestClassifier(Classifier):
    """Bagged CART classifiers, probability-averaged."""

    def __init__(
        self,
        *,
        num_trees: int = 25,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ) -> None:
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        self.num_trees = num_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] = []
        self.num_classes_: int | None = None

    def _resolve_max_features(self, num_features: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(num_features)))
        return int(self.max_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = check_2d(X)
        labels = np.asarray(y, dtype=np.int64).ravel()
        if labels.size != X.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        self.num_classes_ = int(labels.max()) + 1
        rng = np.random.default_rng(self.seed)
        max_features = self._resolve_max_features(X.shape[1])
        self.trees_ = []
        n = X.shape[0]
        for t in range(self.num_trees):
            idx = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            # A bootstrap sample can miss the highest class; the tree's
            # probability rows are then narrower and predict_proba pads them.
            tree.fit(X[idx], labels[idx])
            self.trees_.append(tree)
        self._fitted = True
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self)
        assert self.num_classes_ is not None
        X = check_2d(X)
        out = np.zeros((X.shape[0], self.num_classes_))
        for tree in self.trees_:
            probs = tree.predict_proba(X)
            out[:, : probs.shape[1]] += probs
        return out / len(self.trees_)


class RandomForestRegressor(Regressor):
    """Bagged CART regressors, mean-averaged."""

    def __init__(
        self,
        *,
        num_trees: int = 25,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ) -> None:
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        self.num_trees = num_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = check_2d(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != X.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        rng = np.random.default_rng(self.seed)
        if self.max_features == "sqrt":
            max_features: int | None = max(1, int(math.sqrt(X.shape[1])))
        else:
            max_features = self.max_features  # type: ignore[assignment]
        self.trees_ = []
        n = X.shape[0]
        for _ in range(self.num_trees):
            idx = rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self)
        X = check_2d(X)
        out = np.zeros(X.shape[0])
        for tree in self.trees_:
            out += tree.predict(X)
        return out / len(self.trees_)
