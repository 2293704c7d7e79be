"""Adam over flat parameter vectors, and the package's one seeding policy."""

from __future__ import annotations

import numpy as np

from .errors import require


def keyed_rng(key: int) -> np.random.Generator:
    """Every random stream in the package: Philox is counter-based, so a
    stream depends only on its key, never on draws made elsewhere."""
    return np.random.Generator(np.random.Philox(key=key))


def minibatches(seed: int, epoch: int, n: int, size: int) -> list[np.ndarray]:
    """Runs of ``size`` rows (the last may be shorter) of a shuffle of
    ``range(n)`` keyed by the seed in the high 32 bits, the epoch below."""
    perm = keyed_rng((int(seed) << 32) + epoch).permutation(n)
    return [perm[start : start + size] for start in range(0, n, size)]


# Adam's moment decay rates and denominator guard; no caller tunes them.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias-corrected moment estimates.

    State arrays match the parameter vector; ``step`` returns the stepped
    parameters and writes into neither argument. The update sequence is
    deterministic given the gradient sequence.
    """

    def __init__(self, dim: int, learning_rate: float) -> None:
        require("positive", learning_rate=learning_rate)
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        m_hat = self.m / (1.0 - BETA1**self.t)
        v_hat = self.v / (1.0 - BETA2**self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
