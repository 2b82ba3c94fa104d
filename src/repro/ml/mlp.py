"""Multilayer perceptron with manual backpropagation.

:class:`MlpDistributionRegressor` is the paper's *distribution estimation
model*: a softmax MLP trained with soft-target cross-entropy, taking the
features of an edge pair (or virtual-edge/edge pair) and returning a
probability vector over travel-time delay bins.

Implementation notes: dense layers with ReLU or tanh, He/Xavier
initialisation from an explicit seed, minibatch training with
:class:`~repro.ml.optimizers.Adam`, optional L2 regularisation and early
stopping on a validation split.  Gradients are verified against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import check_2d, check_fitted
from .losses import cross_entropy_from_logits, cross_entropy_gradient, softmax
from .optimizers import Adam

__all__ = ["MlpConfig", "MlpNetwork", "MlpDistributionRegressor"]


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and training hyper-parameters."""

    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    l2: float = 1e-5
    early_stopping_patience: int = 20
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


class MlpNetwork:
    """The bare network: parameters, forward pass, and backprop."""

    def __init__(
        self,
        input_size: int,
        hidden_sizes: tuple[int, ...],
        output_size: int,
        *,
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        if input_size < 1 or output_size < 1:
            raise ValueError("input and output sizes must be >= 1")
        self.activation = activation
        rng = np.random.default_rng(seed)
        sizes = (input_size, *hidden_sizes, output_size)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            if activation == "relu":
                scale = np.sqrt(2.0 / fan_in)  # He initialisation
            else:
                scale = np.sqrt(1.0 / fan_in)  # Xavier-ish for tanh
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    def _act(self, z: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)

    def _act_grad(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return (z > 0.0).astype(np.float64)
        return 1.0 - a * a

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Return ``(logits, pre_activations, activations)`` for backprop."""
        pre: list[np.ndarray] = []
        act: list[np.ndarray] = [X]
        h = X
        last = len(self.weights) - 1
        for layer, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            pre.append(z)
            h = z if layer == last else self._act(z)
            act.append(h)
        return act[-1], pre, act

    def predict_logits(self, X: np.ndarray) -> np.ndarray:
        logits, _, _ = self.forward(X)
        return logits

    def backward(
        self,
        logit_grad: np.ndarray,
        pre: list[np.ndarray],
        act: list[np.ndarray],
        *,
        l2: float = 0.0,
    ) -> list[np.ndarray]:
        """Backprop a gradient at the logits into parameter gradients.

        Returns gradients aligned with :attr:`parameters`
        (weights first, then biases).
        """
        weight_grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        delta = logit_grad
        for layer in range(len(self.weights) - 1, -1, -1):
            weight_grads[layer] = act[layer].T @ delta + l2 * self.weights[layer]
            bias_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * self._act_grad(
                    pre[layer - 1], act[layer]
                )
        return [*weight_grads, *bias_grads]


class MlpDistributionRegressor:
    """Softmax MLP trained against soft target distributions.

    ``fit(X, Y)`` takes target rows that are probability vectors; ``predict``
    returns predicted probability vectors (rows sum to 1).
    """

    def __init__(self, config: MlpConfig | None = None) -> None:
        self.config = config or MlpConfig()
        self.network: MlpNetwork | None = None
        self.history_: list[float] = []
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MlpDistributionRegressor":
        X = check_2d(X)
        targets = check_2d(y, name="y")
        if X.shape[0] != targets.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if np.any(targets < 0):
            raise ValueError("target distributions must be non-negative")
        sums = targets.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("target rows must sum to 1")
        config = self.config
        rng = np.random.default_rng(config.seed)
        self.network = MlpNetwork(
            X.shape[1],
            config.hidden_sizes,
            targets.shape[1],
            activation=config.activation,
            seed=config.seed,
        )
        optimizer = Adam(learning_rate=config.learning_rate)

        n = X.shape[0]
        if config.validation_fraction > 0.0 and n >= 10:
            num_val = max(1, int(round(n * config.validation_fraction)))
            order = rng.permutation(n)
            val_idx, train_idx = order[:num_val], order[num_val:]
            X_train, T_train = X[train_idx], targets[train_idx]
            X_val, T_val = X[val_idx], targets[val_idx]
        else:
            X_train, T_train = X, targets
            X_val = T_val = None

        best_val = np.inf
        best_params: list[np.ndarray] | None = None
        patience = 0
        self.history_ = []
        for _ in range(config.max_epochs):
            order = rng.permutation(X_train.shape[0])
            for start in range(0, X_train.shape[0], config.batch_size):
                batch = order[start : start + config.batch_size]
                logits, pre, act = self.network.forward(X_train[batch])
                grad = cross_entropy_gradient(logits, T_train[batch])
                grads = self.network.backward(grad, pre, act, l2=config.l2)
                optimizer.step(self.network.parameters, grads)
            if X_val is not None:
                val_loss = cross_entropy_from_logits(
                    self.network.predict_logits(X_val), T_val
                )
                self.history_.append(val_loss)
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_params = [p.copy() for p in self.network.parameters]
                    patience = 0
                else:
                    patience += 1
                    if patience >= config.early_stopping_patience:
                        break
            else:
                self.history_.append(
                    cross_entropy_from_logits(
                        self.network.predict_logits(X_train), T_train
                    )
                )
        if best_params is not None:
            for current, best in zip(self.network.parameters, best_params):
                current[...] = best
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self)
        assert self.network is not None
        return softmax(self.network.predict_logits(check_2d(X)))

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` with every layer taking each row as its own
        ``(1, d)`` matrix: numpy loops the one-row BLAS call, so row ``i`` is
        bit for bit the one-row call's (``X @ W`` on a block may pick a
        kernel that rounds otherwise)."""
        check_fitted(self)
        assert self.network is not None
        network, h = self.network, np.asarray(X, dtype=np.float64)[:, None, :]
        for layer, (W, b) in enumerate(zip(network.weights, network.biases)):
            h = (network._act(h) if layer else h) @ W + b
        return softmax(h[:, 0])
