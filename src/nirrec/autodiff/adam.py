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
        # Two rows of scratch as long as the largest parameter, shared by
        # every parameter's update as views.
        self._scratch = np.empty((2, 0))

    def step(self, params: Mapping[str, Tensor]) -> None:
        """Apply one update in sorted-name order (order-stable determinism).

        Every gradient is checked first: a missing one raises
        ConfigurationError and a non-finite one NonFiniteError, before any
        parameter or moment changes.  Moments and parameters are updated in
        place, with the operations of

            m = β1·m + (1 − β1)·g,   v = β2·v + (1 − β2)·(g·g),
            p −= lr·(m / bc1) / (√(v / bc2) + eps)

        in that order, so the values are those of the expressions."""
        for name in sorted(params):
            if params[name].grad is None:
                raise ConfigurationError(f"parameter '{name}' has no gradient")
            if not all_finite(params[name].grad):
                raise NonFiniteError(f"parameter '{name}' has a non-finite gradient")
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        largest = max((p.data.size for p in params.values()), default=0)
        if self._scratch.shape[1] < largest:
            self._scratch = np.empty((2, largest))
        for name in sorted(params):
            p = params[name]
            g = p.grad
            if name not in self._m:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            m, v = self._m[name], self._v[name]
            a, b = (row[: p.data.size].reshape(p.data.shape) for row in self._scratch)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a


def zero_grads(params: Mapping[str, Tensor]) -> None:
    """Reset every named parameter's gradient buffer to zeros."""
    for p in params.values():
        p.zero_grad()
