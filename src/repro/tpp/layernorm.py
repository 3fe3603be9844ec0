"""Layer-normalization equation TPPs (forward + backward).

The BERT Output/SelfOutput fused layers end with "layernorm-equation TPPs"
(§IV-A, Listing 6).  Normalisation is per row of the (m, n) block — in the
transformer use-case a row is one token's hidden vector.
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP
from .dtypes import Precision

__all__ = ["LayerNormTPP", "LayerNormBwdTPP", "BatchNormStatsTPP",
           "BatchNormApplyTPP"]


class LayerNormTPP(BlockTPP):
    """Row-wise layernorm: y = (x - mean) / sqrt(var + eps) * gamma + beta."""

    name = "layernorm"

    def __init__(self, m: int, n: int, eps: float = 1e-5,
                 precision: Precision = Precision()):
        super().__init__(m, n, precision)
        self.eps = float(eps)

    def _execute(self, inp: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 out: np.ndarray | None = None,
                 save_stats: dict | None = None) -> np.ndarray:
        self._check(inp)
        if out is None:
            out = inp
        x = self._in(inp)
        mean = np.mean(x, axis=1, keepdims=True)
        var = np.var(x, axis=1, keepdims=True)
        rstd = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * rstd
        if save_stats is not None:
            save_stats["mean"] = mean.reshape(-1)
            save_stats["rstd"] = rstd.reshape(-1)
            save_stats["xhat"] = xhat
        g = self._in(np.asarray(gamma)).reshape(1, self.n)
        b = self._in(np.asarray(beta)).reshape(1, self.n)
        self._store(out, xhat * g + b)
        return out


class LayerNormBwdTPP(BlockTPP):
    """Layernorm backward producing grad_x, grad_gamma, grad_beta."""

    name = "layernorm_bwd"

    def _execute(self, grad_out: np.ndarray, xhat: np.ndarray,
                 rstd: np.ndarray, gamma: np.ndarray):
        g = np.asarray(grad_out, dtype=np.float32)
        xh = np.asarray(xhat, dtype=np.float32)
        rs = np.asarray(rstd, dtype=np.float32).reshape(self.m, 1)
        gm = np.asarray(gamma, dtype=np.float32).reshape(1, self.n)
        grad_gamma = np.sum(g * xh, axis=0)
        grad_beta = np.sum(g, axis=0)
        gxh = g * gm
        n = self.n
        grad_x = (gxh - np.mean(gxh, axis=1, keepdims=True)
                  - xh * np.mean(gxh * xh, axis=1, keepdims=True)) * rs
        return (self._out(grad_x), self._out(grad_gamma),
                self._out(grad_beta))


class BatchNormStatsTPP(BlockTPP):
    """Per-channel mean/variance over an (m, n) block where columns are
    channels — the stats half of the batchnorm used by ResNet-50 (§IV-C)."""

    name = "batchnorm_stats"

    def _execute(self, inp: np.ndarray):
        x = self._in(inp)
        return np.mean(x, axis=0), np.var(x, axis=0)


class BatchNormApplyTPP(BlockTPP):
    """Apply per-channel (column) normalisation with scale and shift."""

    name = "batchnorm_apply"

    def __init__(self, m: int, n: int, eps: float = 1e-5,
                 precision: Precision = Precision()):
        super().__init__(m, n, precision)
        self.eps = float(eps)

    def _execute(self, inp: np.ndarray, mean: np.ndarray, var: np.ndarray,
                 gamma: np.ndarray, beta: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = inp
        x = self._in(inp)
        rstd = 1.0 / np.sqrt(np.asarray(var, np.float32) + self.eps)
        y = ((x - np.asarray(mean, np.float32)) * rstd
             * np.asarray(gamma, np.float32) + np.asarray(beta, np.float32))
        self._store(out, y)
        return out
