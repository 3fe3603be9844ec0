"""Unary Tensor Processing Primitives.

The unary TPP family covers elementwise activation functions, data movement
(copy/zero/broadcast), and math functions.  Each primitive operates on a 2D
``(m, n)`` block, the TPP granularity of the paper.  All primitives support
in-place operation (``out is inp``) and a separate output block.

Activation functions additionally expose the *backward* form used by the
training workloads (ResNet-50, BERT fine-tuning).
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP
from .dtypes import Precision

__all__ = [
    "UnaryTPP",
    "ZeroTPP",
    "CopyTPP",
    "IdentityTPP",
    "ReluTPP",
    "ReluBwdTPP",
    "GeluTPP",
    "GeluBwdTPP",
    "TanhTPP",
    "SigmoidTPP",
    "ExpTPP",
    "SqrtTPP",
    "RcpTPP",
    "SquareTPP",
    "NegTPP",
    "BroadcastRowTPP",
    "BroadcastColTPP",
    "relu",
    "gelu",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU in compute precision; the one formula behind :class:`ReluTPP`
    and the stacked activations of :mod:`repro.tpp.batched`."""
    return np.where(x > 0, x, np.zeros((), dtype=x.dtype))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation, as used by BERT) in compute precision."""
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3)))


class UnaryTPP(BlockTPP):
    """Common base: elementwise unary operator on an (m, n) block."""

    def _check(self, x: np.ndarray) -> None:
        # admits leading batch axes over the (m, n) block
        if x.shape[-2:] != (self.m, self.n):
            raise ValueError(
                f"{self.name} TPP expects block ({self.m},{self.n}), "
                f"got {x.shape}"
            )

    def _apply(self, x: np.ndarray) -> np.ndarray:  # override
        raise NotImplementedError

    def _execute(self, inp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._check(inp)
        if out is None:
            out = inp
        result = self._apply(self._in(inp))
        self._store(out, result)
        return out


class ZeroTPP(UnaryTPP):
    """Set a 2D block to zero (the paper's ``zero_tpp``, Listing 1 line 15)."""

    name = "zero"

    def _execute(self, out: np.ndarray) -> np.ndarray:
        self._check(out)
        out[...] = 0
        return out


class CopyTPP(UnaryTPP):
    """Copy (identity) on a 2D block; also used for precision conversion."""

    name = "copy"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x


IdentityTPP = CopyTPP


class ReluTPP(UnaryTPP):
    """Rectified Linear Unit.  Optionally records a bitmask for the
    backward pass (as LIBXSMM's relu with bitmask flag does)."""

    name = "relu"

    def __init__(self, m, n, precision=Precision(), record_mask: bool = False):
        super().__init__(m, n, precision)
        self.record_mask = bool(record_mask)
        self.last_mask: np.ndarray | None = None

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self.record_mask:
            self.last_mask = x > 0
        return relu(x)


class ReluBwdTPP(UnaryTPP):
    """ReLU backward: grad_in = grad_out * (act > 0)."""

    name = "relu_bwd"

    def _execute(self, grad_out: np.ndarray, act: np.ndarray,
                 grad_in: np.ndarray | None = None) -> np.ndarray:
        self._check(grad_out)
        self._check(act)
        if grad_in is None:
            grad_in = grad_out
        g = self._in(grad_out) * (self._in(act) > 0)
        self._store(grad_in, g)
        return grad_in


class GeluTPP(UnaryTPP):
    """Gaussian Error Linear Unit (tanh approximation, as used by BERT)."""

    name = "gelu"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return gelu(x)


class GeluBwdTPP(UnaryTPP):
    """GELU backward (derivative of the tanh approximation)."""

    name = "gelu_bwd"

    def _execute(self, grad_out: np.ndarray, x: np.ndarray,
                 grad_in: np.ndarray | None = None) -> np.ndarray:
        self._check(grad_out)
        self._check(x)
        if grad_in is None:
            grad_in = grad_out
        xf = self._in(x)
        u = _SQRT_2_OVER_PI * (xf + 0.044715 * xf**3)
        t = np.tanh(u)
        du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * xf**2)
        d = 0.5 * (1.0 + t) + 0.5 * xf * (1.0 - t**2) * du
        self._store(grad_in, self._in(grad_out) * d)
        return grad_in


class TanhTPP(UnaryTPP):
    name = "tanh"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class SigmoidTPP(UnaryTPP):
    name = "sigmoid"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))


class ExpTPP(UnaryTPP):
    name = "exp"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)


class SqrtTPP(UnaryTPP):
    name = "sqrt"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)


class RcpTPP(UnaryTPP):
    """Reciprocal (used by layernorm / softmax normalisation)."""

    name = "rcp"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / x


class SquareTPP(UnaryTPP):
    name = "square"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x * x


class NegTPP(UnaryTPP):
    name = "neg"

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return -x


class BroadcastRowTPP(UnaryTPP):
    """Broadcast a length-n row vector across m rows (bias replication)."""

    name = "bcast_row"

    def _execute(self, row: np.ndarray, out: np.ndarray) -> np.ndarray:
        row = np.asarray(row)
        if row.shape[-1] != self.n:
            raise ValueError(f"bcast_row expects row of length {self.n}, got {row.shape}")
        self._check(out)
        self._store(out, np.broadcast_to(self._in(row).reshape(1, self.n),
                                         (self.m, self.n)))
        return out


class BroadcastColTPP(UnaryTPP):
    """Broadcast a length-m column vector across n columns."""

    name = "bcast_col"

    def _execute(self, col: np.ndarray, out: np.ndarray) -> np.ndarray:
        col = np.asarray(col)
        if col.shape[-1] != self.m:
            raise ValueError(f"bcast_col expects col of length {self.m}, got {col.shape}")
        self._check(out)
        self._store(out, np.broadcast_to(self._in(col).reshape(self.m, 1),
                                         (self.m, self.n)))
        return out
