"""Dropout TPP with explicit state, as used in the fused BERT layers.

LIBXSMM's dropout TPP consumes an RNG state and produces a bitmask that the
backward pass reuses.  We reproduce that contract: the forward call stores
the mask; ``DropoutBwdTPP`` applies it.  Deterministic given the seed, so
fused-layer tests are reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP
from .dtypes import Precision

__all__ = ["DropoutTPP", "DropoutBwdTPP"]


class DropoutTPP(BlockTPP):
    """Inverted dropout on an (m, n) block: out = in * mask / (1 - p)."""

    name = "dropout"

    def __init__(self, m: int, n: int, p: float = 0.1, seed: int = 0,
                 precision: Precision = Precision()):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        super().__init__(m, n, precision)
        self.p = float(p)
        self._rng = np.random.default_rng(seed)
        self.last_mask: np.ndarray | None = None

    def _execute(self, inp: np.ndarray, out: np.ndarray | None = None,
                 training: bool = True) -> np.ndarray:
        self._check(inp)
        if out is None:
            out = inp
        if not training or self.p == 0.0:
            self.last_mask = np.ones((self.m, self.n), dtype=bool)
            self._store(out, self._in(inp))
            return out
        mask = self._rng.random((self.m, self.n)) >= self.p
        self.last_mask = mask
        scale = 1.0 / (1.0 - self.p)
        self._store(out, self._in(inp) * mask * scale)
        return out


class DropoutBwdTPP(BlockTPP):
    """Dropout backward: grad_in = grad_out * mask / (1 - p)."""

    name = "dropout_bwd"

    def __init__(self, m: int, n: int, p: float = 0.1,
                 precision: Precision = Precision()):
        super().__init__(m, n, precision)
        self.p = float(p)

    def _execute(self, grad_out: np.ndarray, mask: np.ndarray,
                 grad_in: np.ndarray | None = None) -> np.ndarray:
        if grad_in is None:
            grad_in = grad_out
        scale = 1.0 / (1.0 - self.p) if self.p > 0 else 1.0
        self._store(grad_in, self._in(grad_out) * mask * scale)
        return grad_in
