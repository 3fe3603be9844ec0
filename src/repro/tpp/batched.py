"""Batched (stacked) TPP evaluation for the tile-level execution backend.

Each helper applies one TPP's exact arithmetic to a whole *stack* of
blocks at once — the same compute-precision cast, accumulate order, and
store-time down-conversion as the scalar TPPs in :mod:`repro.tpp.gemm` /
:mod:`repro.tpp.unary` / :mod:`repro.tpp.binary`, just over a leading
batch axis.  Under the verifier's integer-valued-tensor contract every
partial sum is exactly representable, so the batched contraction is
bit-identical to the per-block one regardless of the backend BLAS's
reduction order (the fuzzer asserts this per family).

Helpers return the *stored* values (down-converted to the output
container dtype); scattering them back into the destination tensor is
the caller's job, since only the kernel knows its layout.
"""

from __future__ import annotations

import numpy as np

from .dtypes import Precision, from_compute
from .unary import gelu, relu

__all__ = ["batched_brgemm", "batched_spmm", "batched_bias_add_col",
           "batched_unary"]


def _store_values(v: np.ndarray, precision: Precision,
                  container: np.dtype) -> np.ndarray:
    """What ``TPP._store`` would write: down-convert then cast."""
    return from_compute(v, precision.out).astype(container, copy=False)


def batched_brgemm(a_blocks: np.ndarray, b_blocks: np.ndarray,
                   old: np.ndarray, beta: float,
                   precision: Precision) -> np.ndarray:
    """Stacked batch-reduce GEMM: one ``BRGemmTPP`` call per batch row.

    ``a_blocks (x, br, bm, bk)`` x ``b_blocks (x, br, bk, bn)`` reduced
    into ``(x, bm, bn)``, accumulated onto ``old`` (the current stored C
    values; pass zeros for a first touch, mirroring ``ZeroTPP`` + the
    ``acc + beta*0`` the interpreter performs).
    """
    comp = precision.comp.np
    acc = np.einsum("ximk,xikn->xmn",
                    a_blocks.astype(comp, copy=False),
                    b_blocks.astype(comp, copy=False),
                    optimize=True)
    if beta != 0.0:
        acc = acc + beta * np.asarray(old, dtype=comp)
    return _store_values(acc, precision, np.asarray(old).dtype)


def batched_spmm(a_blocks: np.ndarray, b_blocks: np.ndarray,
                 old: np.ndarray, precision: Precision) -> np.ndarray:
    """Stacked ``BlockSpMMTPP`` (beta = 0): row ``x`` accumulates
    ``a_blocks[x, j] @ b_blocks[x, j]`` over ``j`` in order, the
    microkernel's ``acc + a @ b`` chain, and stores over ``old``'s
    container."""
    comp = precision.comp.np
    acc = np.zeros(old.shape, dtype=comp)
    for j in range(a_blocks.shape[1]):
        acc = acc + np.matmul(a_blocks[:, j].astype(comp, copy=False),
                              b_blocks[:, j].astype(comp, copy=False))
    return _store_values(acc, precision, old.dtype)


def batched_bias_add_col(blocks: np.ndarray, bias_cols: np.ndarray,
                         precision: Precision) -> np.ndarray:
    """Stacked ``BiasAddColTPP``: ``blocks (x, m, n)`` + per-row bias
    columns ``bias_cols (x, m)`` broadcast down the n axis."""
    comp = precision.comp.np
    v = np.asarray(blocks, dtype=comp) \
        + np.asarray(bias_cols, dtype=comp)[:, :, None]
    return _store_values(v, precision, np.asarray(blocks).dtype)


def batched_unary(blocks: np.ndarray, op: str,
                  precision: Precision) -> np.ndarray:
    """Stacked elementwise activation (``ReluTPP`` / ``GeluTPP``)."""
    x = np.asarray(blocks, dtype=precision.comp.np)
    if op == "relu":
        v = relu(x)
    elif op == "gelu":
        v = gelu(x)
    else:
        raise ValueError(f"unsupported batched unary op {op!r}")
    return _store_values(v, precision, np.asarray(blocks).dtype)
