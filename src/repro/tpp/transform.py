"""Data-layout transformation TPPs.

Covers the "generalized tensor re-orderings" kernel class (§I) and the
reformatting primitives required by hardware-accelerated contractions:

* transpose and blocked-layout packing/unpacking,
* **VNNI** packing for x86 low-precision FMA/AMX (pairs of rows from the K
  dimension are interleaved so a 32-bit lane holds 2 BF16 values),
* **MMLA** packing for Arm SVE: A is reformatted into 2×4 sub-tiles and B
  into 4×2 sub-tiles so the BFMMLA instruction's register view matches
  memory (§III-A2).

All transforms are exact inverses of their unpack counterparts; property
tests assert the round trip.
"""

from __future__ import annotations

import numpy as np

from .base import BlockTPP

__all__ = [
    "TransposeTPP",
    "vnni_pack",
    "vnni_unpack",
    "mmla_pack_a",
    "mmla_unpack_a",
    "mmla_pack_b",
    "mmla_unpack_b",
    "block_2d",
    "unblock_2d",
]


class TransposeTPP(BlockTPP):
    """Out-of-place transpose of an (m, n) block."""

    name = "transpose"

    def _execute(self, inp: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._check(inp)
        if out.shape != (self.n, self.m):
            raise ValueError(
                f"transpose output must be ({self.n},{self.m}), got {out.shape}")
        self._store(out, self._in(inp).T)
        return out


def vnni_pack(x: np.ndarray, vnni: int = 2) -> np.ndarray:
    """Pack a (K, N) matrix into VNNI layout (K/v, N, v).

    ``vnni=2`` is the BF16 layout (pairs of K rows interleaved); ``vnni=4``
    is the INT8 layout.  Listing 5 of the paper pre-formats the dense B of
    Block-SpMM this way ("B is pre-formatted in VNNI layout ... where v is
    the vnni blocking-factor").
    """
    k, n = x.shape
    if k % vnni != 0:
        raise ValueError(f"K={k} not divisible by vnni factor {vnni}")
    return np.ascontiguousarray(
        x.reshape(k // vnni, vnni, n).transpose(0, 2, 1))


def vnni_unpack(xp: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vnni_pack`: (K/v, N, v) -> (K, N)."""
    kb, n, v = xp.shape
    return np.ascontiguousarray(xp.transpose(0, 2, 1).reshape(kb * v, n))


def mmla_pack_a(a: np.ndarray, rows: int = 2, cols: int = 4) -> np.ndarray:
    """Pack an (M, K) matrix into MMLA A-layout (M/r, K/c, r, c).

    Each (r, c)=(2, 4) sub-tile occupies one 128-bit SVE segment for the
    BF16 BFMMLA instruction.
    """
    m, k = a.shape
    if m % rows or k % cols:
        raise ValueError(f"({m},{k}) not divisible by MMLA tile ({rows},{cols})")
    return np.ascontiguousarray(
        a.reshape(m // rows, rows, k // cols, cols).transpose(0, 2, 1, 3))


def mmla_unpack_a(ap: np.ndarray) -> np.ndarray:
    mb, kb, r, c = ap.shape
    return np.ascontiguousarray(
        ap.transpose(0, 2, 1, 3).reshape(mb * r, kb * c))


def mmla_pack_b(b: np.ndarray, rows: int = 4, cols: int = 2) -> np.ndarray:
    """Pack a (K, N) matrix into MMLA B-layout (K/r, N/c, c, r).

    The BFMMLA second operand is a 4×2 tile stored column-major within the
    128-bit segment, i.e. each of the c output columns carries its r=4
    K-values contiguously.
    """
    k, n = b.shape
    if k % rows or n % cols:
        raise ValueError(f"({k},{n}) not divisible by MMLA tile ({rows},{cols})")
    return np.ascontiguousarray(
        b.reshape(k // rows, rows, n // cols, cols).transpose(0, 2, 3, 1))


def mmla_unpack_b(bp: np.ndarray) -> np.ndarray:
    kb, nb, c, r = bp.shape
    return np.ascontiguousarray(
        bp.transpose(0, 3, 1, 2).reshape(kb * r, nb * c))


def block_2d(x: np.ndarray, bm: int, bn: int) -> np.ndarray:
    """Reorder an (M, N) matrix into blocked layout (N/bn, M/bm, bm, bn).

    This is the paper's blocked tensor layout from Listing 1
    (``C[Nb][Mb][bm][bn]``): the outer dims index blocks, the inner dims
    are the contiguous 2D sub-tensors TPPs operate on.
    """
    m, n = x.shape
    if m % bm or n % bn:
        raise ValueError(f"({m},{n}) not divisible by block ({bm},{bn})")
    return np.ascontiguousarray(
        x.reshape(m // bm, bm, n // bn, bn).transpose(2, 0, 1, 3))


def unblock_2d(xb: np.ndarray) -> np.ndarray:
    """Inverse of :func:`block_2d`: (N/bn, M/bm, bm, bn) -> (M, N)."""
    nb, mb, bm, bn = xb.shape
    return np.ascontiguousarray(
        xb.transpose(1, 2, 0, 3).reshape(mb * bm, nb * bn))
