"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..errors import ConfigurationError, NonFiniteError
from .tensor import Tensor, all_finite


class Adam:
    """First/second-moment adaptive gradient descent with bias correction.

    Moments are keyed by parameter name and persist across steps, so the
    same optimizer instance must be reused for the whole run.  Every named
    parameter must carry a populated ``grad`` when ``step`` is called;
    parameters a training step did not touch should be zero-filled first
    (see ``zero_grads``).
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigurationError(f"lr must be finite and positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: Mapping[str, Tensor]) -> None:
        """Apply one update in sorted-name order (order-stable determinism).

        Every gradient is checked first: a missing one raises
        ConfigurationError and a non-finite one NonFiniteError, before any
        parameter or moment changes."""
        for name in sorted(params):
            if params[name].grad is None:
                raise ConfigurationError(f"parameter '{name}' has no gradient")
            if not all_finite(params[name].grad):
                raise NonFiniteError(f"parameter '{name}' has a non-finite gradient")
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for name in sorted(params):
            p = params[name]
            g = p.grad
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def zero_grads(params: Mapping[str, Tensor]) -> None:
    """Reset every named parameter's gradient buffer to zeros."""
    for p in params.values():
        p.zero_grad()
