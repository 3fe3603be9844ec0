"""Softmax equation TPP.

The paper's BERT Self-Attention layer fuses "scale, add, dropout and
softmax TPP blocks" (§IV-A).  LIBXSMM expresses softmax as an *equation*
of simpler TPPs (reduce-max, sub, exp, reduce-sum, rcp, mul); we provide
both the fused operator and the step-by-step equation form so tests can
validate that the composition equals the monolith.
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP
from .dtypes import Precision
from .reduce import ReduceAxis, ReduceKind, ReduceTPP
from .unary import ExpTPP, RcpTPP

__all__ = ["SoftmaxTPP", "SoftmaxBwdTPP", "softmax_equation"]


class SoftmaxTPP(BlockTPP):
    """Numerically-stable row-wise softmax over an (m, n) block.

    Each of the m rows is normalised independently: the attention use-case
    has m = query positions and n = key positions.
    """

    name = "softmax"

    def _execute(self, inp: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        self._check(inp)
        if out is None:
            out = inp
        x = self._in(inp)
        x = x - np.max(x, axis=1, keepdims=True)
        e = np.exp(x)
        self._store(out, e / np.sum(e, axis=1, keepdims=True))
        return out


class SoftmaxBwdTPP(BlockTPP):
    """Softmax backward: grad_in = y * (grad_out - sum(grad_out * y, row))."""

    name = "softmax_bwd"

    def _execute(self, grad_out: np.ndarray, y: np.ndarray,
                 grad_in: np.ndarray | None = None) -> np.ndarray:
        if grad_in is None:
            grad_in = grad_out
        g = self._in(grad_out)
        yf = self._in(y)
        dot = np.sum(g * yf, axis=1, keepdims=True)
        self._store(grad_in, yf * (g - dot))
        return grad_in


def softmax_equation(x: np.ndarray, precision: Precision = Precision()
                     ) -> np.ndarray:
    """Softmax expressed as an equation of elementary TPPs.

    Demonstrates (and lets tests verify) that the TPP collection is
    *compositional*: reduce-max → sub → exp → reduce-sum → rcp → scale.
    """
    m, n = x.shape
    work = np.array(x, dtype=np.float32, copy=True)
    rmax = ReduceTPP(m, n, ReduceKind.MAX, ReduceAxis.COLS, precision)
    rsum = ReduceTPP(m, n, ReduceKind.SUM, ReduceAxis.COLS, precision)
    exp = ExpTPP(m, n, precision)
    rcp = RcpTPP(m, 1, precision)

    mx = np.empty((m,), dtype=np.float32)
    rmax(work, mx)
    work -= mx.reshape(m, 1)
    exp(work)
    s = np.empty((m,), dtype=np.float32)
    rsum(work, s)
    inv = s.reshape(m, 1).copy()
    rcp(inv)
    work *= inv
    return work
