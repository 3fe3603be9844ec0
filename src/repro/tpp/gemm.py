"""GEMM and Batch-Reduce GEMM (BRGEMM) Tensor Processing Primitives.

BRGEMM is "the main tensor contraction tool in the TPP collection" (§II-A):

    C = beta * C + sum_{i=0}^{brcount-1} A_i x B_i

with blocks ``A_i (bm x bk)`` and ``B_i (bk x bn)`` reduced into
``C (bm x bn)``.  Three addressing variants are supported, as in LIBXSMM:

* **stride**: ``addr(A_i) = addr(A_{i-1}) + stride_a`` (Listing 1),
* **offset**: per-iteration element-offset arrays (used to fold the R and S
  loops of convolutions into the BRGEMM, §III-B),
* **address**: explicit lists of blocks.

Low-precision behaviour matches the hardware the paper targets: BF16 inputs
are consumed in pairs (VNNI) / 2x4 tiles (MMLA) and accumulated in FP32;
the output is rounded to the storage precision once, at store time.
"""

from __future__ import annotations

import numpy as np

from .base import TPP
from .dtypes import Precision
from .memory import Ptr

__all__ = ["GemmTPP", "BRGemmTPP"]


def _as_ptr(x) -> Ptr:
    if isinstance(x, Ptr):
        return x
    if isinstance(x, np.ndarray):
        return Ptr.of(x)
    raise TypeError(f"expected ndarray or Ptr, got {type(x).__name__}")


class GemmTPP(TPP):
    """Plain small GEMM on contiguous blocks: C = beta*C + A(bm,bk) @ B(bk,bn)."""

    name = "gemm"

    def __init__(self, bm: int, bn: int, bk: int, beta: float = 1.0,
                 trans_a: bool = False, trans_b: bool = False,
                 precision: Precision = Precision()):
        super().__init__(precision)
        for nm, v in (("bm", bm), ("bn", bn), ("bk", bk)):
            if v <= 0:
                raise ValueError(f"{nm} must be positive, got {v}")
        self.bm, self.bn, self.bk = int(bm), int(bn), int(bk)
        self.beta = float(beta)
        self.trans_a = bool(trans_a)
        self.trans_b = bool(trans_b)

    def _execute(self, a: np.ndarray, b: np.ndarray, c: np.ndarray
                 ) -> np.ndarray:
        af = self._in(a.T if self.trans_a else a)
        bf = self._in(b.T if self.trans_b else b)
        if af.shape != (self.bm, self.bk) or bf.shape != (self.bk, self.bn):
            raise ValueError(
                f"gemm TPP ({self.bm},{self.bn},{self.bk}) got A{af.shape} "
                f"B{bf.shape}")
        acc = af @ bf
        if self.beta != 0.0:
            acc = acc + self.beta * self._in(c)
        self._store(c, acc)
        return c


class BRGemmTPP(TPP):
    """Batch-Reduce GEMM: C = beta*C + sum_i A_i @ B_i.

    Construct once per (shape, precision, variant) — the LIBXSMM JIT point —
    then invoke with runtime ``brcount`` (Listing 1 passes ``&brcount`` at
    call time).

    Parameters
    ----------
    bm, bn, bk : block shape.
    stride_a, stride_b : element strides between consecutive blocks
        (stride variant).  Listing 1 uses ``stride_A = bk*bm`` and
        ``stride_B = bn*bk``.
    variant : "stride" | "offset" | "address".
    beta : 0.0 (overwrite) or 1.0 (accumulate).
    b_vnni : VNNI blocking factor of B (1 = flat (bk, bn); 2 = BF16 VNNI
        layout (bk/2, bn, 2)).  The paper's SVE backend also supports
        on-line packing of flat B (§III-A2) — functionally identical.
    """

    name = "brgemm"

    def __init__(self, bm: int, bn: int, bk: int,
                 stride_a: int = 0, stride_b: int = 0,
                 variant: str = "stride", beta: float = 1.0,
                 b_vnni: int = 1,
                 precision: Precision = Precision()):
        super().__init__(precision)
        for nm, v in (("bm", bm), ("bn", bn), ("bk", bk)):
            if v <= 0:
                raise ValueError(f"{nm} must be positive, got {v}")
        if variant not in ("stride", "offset", "address"):
            raise ValueError(f"unknown BRGEMM variant {variant!r}")
        if b_vnni not in (1, 2, 4):
            raise ValueError(f"b_vnni must be 1, 2 or 4, got {b_vnni}")
        if b_vnni > 1 and bk % b_vnni:
            raise ValueError(f"bk={bk} not divisible by vnni factor {b_vnni}")
        self.bm, self.bn, self.bk = int(bm), int(bn), int(bk)
        self.stride_a = int(stride_a)
        self.stride_b = int(stride_b)
        self.variant = variant
        self.beta = float(beta)
        self.b_vnni = int(b_vnni)

    # -- block gathering per variant ------------------------------------
    def _gather_stride(self, a, b, brcount):
        ap, bp = _as_ptr(a), _as_ptr(b)
        a_blocks = ap.batch(brcount, (self.bm, self.bk), self.stride_a)
        if self.b_vnni > 1:
            v = self.b_vnni
            raw = bp.batch(brcount, (self.bk // v, self.bn, v), self.stride_b)
            b_blocks = raw.transpose(0, 1, 3, 2).reshape(
                brcount, self.bk, self.bn)
        else:
            b_blocks = bp.batch(brcount, (self.bk, self.bn), self.stride_b)
        return a_blocks, b_blocks

    def _gather_offset(self, a, b, brcount, a_offsets, b_offsets):
        ap, bp = _as_ptr(a), _as_ptr(b)
        if len(a_offsets) < brcount or len(b_offsets) < brcount:
            raise ValueError(
                f"offset arrays shorter than brcount={brcount}")
        a_blocks = np.stack([ap.block((self.bm, self.bk), int(a_offsets[i]))
                             for i in range(brcount)])
        if self.b_vnni > 1:
            v = self.b_vnni
            b_blocks = np.stack([
                bp.block((self.bk // v, self.bn, v), int(b_offsets[i]))
                .transpose(0, 2, 1).reshape(self.bk, self.bn)
                for i in range(brcount)])
        else:
            b_blocks = np.stack([bp.block((self.bk, self.bn), int(b_offsets[i]))
                                 for i in range(brcount)])
        return a_blocks, b_blocks

    def _gather_address(self, a_list, b_list, brcount):
        if len(a_list) < brcount or len(b_list) < brcount:
            raise ValueError(f"address lists shorter than brcount={brcount}")
        a_blocks = np.stack([np.asarray(a_list[i]) for i in range(brcount)])
        b_blocks = np.stack([np.asarray(b_list[i]) for i in range(brcount)])
        return a_blocks, b_blocks

    # -- execution -------------------------------------------------------
    def _execute(self, a, b, c, brcount: int = 1,
                 a_offsets=None, b_offsets=None) -> np.ndarray:
        """Apply the batch-reduce contraction into block *c*.

        ``a``/``b`` are ndarrays or :class:`Ptr`\\ s (stride/offset
        variants) or sequences of blocks (address variant).  ``c`` must be
        a writable (bm, bn) block.
        """
        brcount = int(brcount)
        if brcount <= 0:
            raise ValueError(f"brcount must be positive, got {brcount}")
        if c.shape != (self.bm, self.bn):
            raise ValueError(
                f"brgemm C block must be ({self.bm},{self.bn}), got {c.shape}")

        if self.variant == "stride":
            a_blocks, b_blocks = self._gather_stride(a, b, brcount)
        elif self.variant == "offset":
            if a_offsets is None or b_offsets is None:
                raise ValueError("offset variant requires a_offsets/b_offsets")
            a_blocks, b_blocks = self._gather_offset(
                a, b, brcount, a_offsets, b_offsets)
        else:
            a_blocks, b_blocks = self._gather_address(a, b, brcount)

        if a_blocks.shape[1:] != (self.bm, self.bk):
            raise ValueError(
                f"brgemm A blocks must be ({self.bm},{self.bk}), "
                f"got {a_blocks.shape[1:]}")
        if b_blocks.shape[1:] != (self.bk, self.bn):
            raise ValueError(
                f"brgemm B blocks must be ({self.bk},{self.bn}), "
                f"got {b_blocks.shape[1:]}")

        comp = self.precision.comp.np
        # batch-reduce in compute precision (FP32 accumulation for BF16,
        # matching AMX/MMLA tile semantics)
        acc = np.einsum("imk,ikn->mn",
                        a_blocks.astype(comp, copy=False),
                        b_blocks.astype(comp, copy=False),
                        optimize=True)
        if self.beta != 0.0:
            acc = acc + self.beta * self._in(c)
        self._store(c, acc)
        return c
