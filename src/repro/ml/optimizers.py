"""The gradient-descent optimizer the MLP trains with."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``step`` updates a list of parameter arrays in place from matching
    gradients; a new instance starts with no accumulated state.
    """

    def __init__(self, learning_rate: float = 1e-3) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update; ``params[i]`` is modified in place."""
        if self._m is None or self._v is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bias1 = 1.0 - _BETA1**self._t
        bias2 = 1.0 - _BETA2**self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _EPSILON)
