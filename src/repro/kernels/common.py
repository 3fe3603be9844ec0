"""Shared helpers for PARLOOPER/TPP kernels: blocked tensor layouts.

The paper's kernels operate on *blocked* tensor layouts (Listing 1 lines
1-3): logical 2D matrices stored as 4D arrays of contiguous TPP-sized
blocks.  These helpers pack/unpack between flat and blocked layouts and
allocate blocked buffers.
"""

from __future__ import annotations

import numpy as np

from ..tpp.dtypes import DType, from_compute

__all__ = ["pack_a_blocked", "pack_b_blocked", "pack_c_blocked",
           "unpack_c_blocked", "alloc_blocked_c", "as_dtype",
           "divisible", "tiles"]


def divisible(value: int, block: int, what: str) -> None:
    if value % block:
        raise ValueError(f"{what}={value} is not a multiple of its block "
                         f"size {block}")


def as_dtype(x: np.ndarray, dtype: DType) -> np.ndarray:
    """Constrain an array to the storage precision (bf16 rounding etc.)."""
    return from_compute(np.asarray(x, dtype=np.float32), dtype)


def pack_a_blocked(a: np.ndarray, bm: int, bk: int,
                   dtype: DType = DType.F32) -> np.ndarray:
    """(M, K) -> A[Mb][Kb][bm][bk] (Listing 1: stride_A = bm*bk)."""
    m, k = a.shape
    divisible(m, bm, "M")
    divisible(k, bk, "K")
    blocked = a.reshape(m // bm, bm, k // bk, bk).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(as_dtype(blocked, dtype))


def pack_b_blocked(b: np.ndarray, bk: int, bn: int,
                   dtype: DType = DType.F32) -> np.ndarray:
    """(K, N) -> B[Nb][Kb][bk][bn] (Listing 1: stride_B = bk*bn)."""
    k, n = b.shape
    divisible(k, bk, "K")
    divisible(n, bn, "N")
    blocked = b.reshape(k // bk, bk, n // bn, bn).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(as_dtype(blocked, dtype))


def pack_c_blocked(c: np.ndarray, bm: int, bn: int,
                   dtype: DType = DType.F32) -> np.ndarray:
    """(M, N) -> C[Nb][Mb][bm][bn] (Listing 1 line 15 indexing order)."""
    m, n = c.shape
    divisible(m, bm, "M")
    divisible(n, bn, "N")
    blocked = c.reshape(m // bm, bm, n // bn, bn).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(as_dtype(blocked, dtype))


def tiles(x: np.ndarray, r: int, c: int) -> np.ndarray:
    """A flat (R, C) matrix seen, without a copy, as ``[R/r][C/c]``
    blocks of (r, c)."""
    return x.reshape(x.shape[0] // r, r, x.shape[1] // c, c).swapaxes(1, 2)


def unpack_c_blocked(cb: np.ndarray) -> np.ndarray:
    """C[Nb][Mb][bm][bn] -> (M, N)."""
    nb, mb, bm, bn = cb.shape
    return np.ascontiguousarray(
        cb.transpose(1, 2, 0, 3).reshape(mb * bm, nb * bn))


def alloc_blocked_c(m: int, n: int, bm: int, bn: int,
                    dtype: DType = DType.F32) -> np.ndarray:
    divisible(m, bm, "M")
    divisible(n, bn, "N")
    return np.zeros((n // bn, m // bm, bm, bn), dtype=dtype.np)
