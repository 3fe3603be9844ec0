"""Binary Tensor Processing Primitives.

Elementwise binary operators on 2D blocks plus the broadcast variants the
paper's fused DL layers rely on (bias add is an ``add`` with row
broadcast; residual add is plain ``add``; scale is ``mul`` with scalar or
column broadcast).
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP

__all__ = [
    "BinaryTPP",
    "AddTPP",
    "SubTPP",
    "MulTPP",
    "DivTPP",
    "MaxTPP",
    "MinTPP",
    "BiasAddTPP",
    "ScaleTPP",
    "MulAddTPP",
]


class BinaryTPP(BlockTPP):
    """Elementwise binary operator on (m, n) blocks: out = op(in0, in1)."""

    def _apply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _execute(self, in0: np.ndarray, in1: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        self._check(in0)
        self._check(in1)
        if out is None:
            out = in0
        self._store(out, self._apply(self._in(in0), self._in(in1)))
        return out


class AddTPP(BinaryTPP):
    name = "add"

    def _apply(self, a, b):
        return a + b


class SubTPP(BinaryTPP):
    name = "sub"

    def _apply(self, a, b):
        return a - b


class MulTPP(BinaryTPP):
    name = "mul"

    def _apply(self, a, b):
        return a * b


class DivTPP(BinaryTPP):
    name = "div"

    def _apply(self, a, b):
        return a / b


class MaxTPP(BinaryTPP):
    name = "max"

    def _apply(self, a, b):
        return np.maximum(a, b)


class MinTPP(BinaryTPP):
    name = "min"

    def _apply(self, a, b):
        return np.minimum(a, b)


class BiasAddTPP(BinaryTPP):
    """Add a length-n bias row to every row of an (m, n) block.

    This is the TPP behind the MLP "Bias-Add" fusion of Fig 3 and the BERT
    intermediate/output layers (§IV-A).
    """

    name = "bias_add"

    def _execute(self, block: np.ndarray, bias: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        self._check(block)
        bias = np.asarray(bias)
        if bias.reshape(-1).shape[0] != self.n:
            raise ValueError(f"bias_add expects bias of length {self.n}, "
                             f"got {bias.shape}")
        if out is None:
            out = block
        self._store(out, self._in(block) + self._in(bias).reshape(1, self.n))
        return out


class BiasAddColTPP(BinaryTPP):
    """Add a length-m bias *column* to every column of an (m, n) block.

    The fully-connected layers of §III-A compute ``O = W x I`` with
    M = output features, so the per-feature bias broadcasts down the
    columns (LIBXSMM's colbcast binary add).
    """

    name = "bias_add_col"

    def _execute(self, block: np.ndarray, bias: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        self._check(block)
        bias = np.asarray(bias)
        if bias.reshape(-1).shape[0] != self.m:
            raise ValueError(f"bias_add_col expects bias of length {self.m}, "
                             f"got {bias.shape}")
        if out is None:
            out = block
        self._store(out, self._in(block) + self._in(bias).reshape(self.m, 1))
        return out


class ScaleTPP(BinaryTPP):
    """Multiply an (m, n) block by a scalar or per-row/per-column vector."""

    name = "scale"

    def _execute(self, block: np.ndarray, factor, out: np.ndarray | None = None
                 ) -> np.ndarray:
        self._check(block)
        if out is None:
            out = block
        f = np.asarray(factor, dtype=np.float32)
        if f.ndim == 1:
            if f.shape[0] == self.n:
                f = f.reshape(1, self.n)
            elif f.shape[0] == self.m:
                f = f.reshape(self.m, 1)
            else:
                raise ValueError(
                    f"scale vector length {f.shape[0]} matches neither "
                    f"m={self.m} nor n={self.n}")
        self._store(out, self._in(block) * f)
        return out


class MulAddTPP(BinaryTPP):
    """Fused multiply-add: out = in0 * in1 + out (ternary accumulate)."""

    name = "muladd"

    def _execute(self, in0: np.ndarray, in1: np.ndarray, out: np.ndarray
                 ) -> np.ndarray:
        self._check(in0)
        self._check(in1)
        self._check(out)
        acc = self._in(out) + self._in(in0) * self._in(in1)
        self._store(out, acc)
        return out
