"""Reduction Tensor Processing Primitives.

Row/column/full reductions (sum, max, mean, squared-sum) over a 2D block.
These are the building blocks of the softmax and layernorm equation TPPs
and of the norm computations the paper lists among DL/HPC kernel classes
(§I: "tensor norm computations").
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP
from .dtypes import Precision

__all__ = ["ReduceTPP", "ReduceKind", "ReduceAxis"]


class ReduceKind:
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    MEAN = "mean"
    SQSUM = "sqsum"  # sum of squares
    ABSMAX = "absmax"

    ALL = (SUM, MAX, MIN, MEAN, SQSUM, ABSMAX)


class ReduceAxis:
    ROWS = "rows"  # reduce over rows -> length-n result
    COLS = "cols"  # reduce over cols -> length-m result
    FULL = "full"  # reduce to a scalar

    ALL = (ROWS, COLS, FULL)


_NUMPY_OP = {
    ReduceKind.SUM: lambda x, axis: np.sum(x, axis=axis),
    ReduceKind.MAX: lambda x, axis: np.max(x, axis=axis),
    ReduceKind.MIN: lambda x, axis: np.min(x, axis=axis),
    ReduceKind.MEAN: lambda x, axis: np.mean(x, axis=axis),
    ReduceKind.SQSUM: lambda x, axis: np.sum(x * x, axis=axis),
    ReduceKind.ABSMAX: lambda x, axis: np.max(np.abs(x), axis=axis),
}

_AXIS = {ReduceAxis.ROWS: 0, ReduceAxis.COLS: 1, ReduceAxis.FULL: None}


class ReduceTPP(BlockTPP):
    """Reduction over a 2D (m, n) block.

    ``axis=ROWS`` reduces the m dimension producing a length-n vector,
    ``axis=COLS`` reduces the n dimension producing a length-m vector, and
    ``axis=FULL`` produces a scalar (returned as a 0-d array).
    """

    name = "reduce"

    def __init__(self, m: int, n: int, kind: str = ReduceKind.SUM,
                 axis: str = ReduceAxis.ROWS,
                 precision: Precision = Precision()):
        if kind not in ReduceKind.ALL:
            raise ValueError(f"unknown reduce kind {kind!r}")
        if axis not in ReduceAxis.ALL:
            raise ValueError(f"unknown reduce axis {axis!r}")
        super().__init__(m, n, precision)
        self.kind = kind
        self.axis = axis

    @property
    def out_shape(self) -> tuple:
        return {ReduceAxis.ROWS: (self.n,),
                ReduceAxis.COLS: (self.m,),
                ReduceAxis.FULL: ()}[self.axis]

    def _execute(self, inp: np.ndarray, out: np.ndarray | None = None,
                 accumulate: bool = False) -> np.ndarray:
        self._check(inp)
        result = _NUMPY_OP[self.kind](self._in(inp), _AXIS[self.axis])
        result = np.asarray(result, dtype=self.precision.comp.np)
        if out is None:
            return self._out(result)
        if out.shape != self.out_shape:
            raise ValueError(
                f"reduce output shape {out.shape} != expected {self.out_shape}")
        if accumulate:
            if self.kind in (ReduceKind.MAX, ReduceKind.ABSMAX):
                result = np.maximum(self._in(out), result)
            elif self.kind == ReduceKind.MIN:
                result = np.minimum(self._in(out), result)
            else:
                result = self._in(out) + result
        self._store(out, result)
        return out
