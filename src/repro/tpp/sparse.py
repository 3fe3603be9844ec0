"""Block-Sparse x Dense matrix multiplication TPPs (§III-C).

The paper introduces "sparse x dense matrix multiplication TPPs with block
sparsity, low-precision support and hardware acceleration".  The sparse
matrix A is stored in **BCSC** (Block Compressed Sparse Columns) with a
parameterised ``bm x bk`` block size; B and C stay dense, with B optionally
pre-formatted in VNNI layout for low-precision FMA paths (Listing 5).

The microkernel contract follows the paper: "iterate over a block row of A
and for each non-empty block bm x bk, multiply it with the corresponding
dense block bk x bn of B", accumulating into the ``bm x bn`` C block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import TPP
from .dtypes import DType, Precision, from_compute
from .transform import vnni_pack

__all__ = ["BCSCMatrix", "BlockSpMMTPP"]


@dataclass
class BCSCMatrix:
    """Block Compressed Sparse Columns storage of an (M, K) matrix.

    ``col_ptr[j] : col_ptr[j+1]`` indexes the nonzero blocks of block-column
    j; ``row_idx`` holds their block-row indices; ``values[p]`` is the dense
    ``(bm, bk)`` content of nonzero block p.  A CSR-style secondary index
    (``row_ptr``/``col_idx``/``perm``) is built once so the SpMM microkernel
    can walk block *rows*, which is how the paper's kernel iterates.
    """

    m: int
    k: int
    bm: int
    bk: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray
    dtype: DType = DType.F32
    row_ptr: np.ndarray = field(init=False)
    col_idx: np.ndarray = field(init=False)
    perm: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.m % self.bm or self.k % self.bk:
            raise ValueError(
                f"matrix ({self.m},{self.k}) not divisible by block "
                f"({self.bm},{self.bk})")
        nbrow, nbcol = self.n_block_rows, self.n_block_cols
        if self.col_ptr.shape != (nbcol + 1,):
            raise ValueError("col_ptr must have n_block_cols + 1 entries")
        # build the block-row traversal index
        nnzb = len(self.row_idx)
        cols_of = np.empty(nnzb, dtype=np.int64)
        for j in range(nbcol):
            cols_of[self.col_ptr[j]:self.col_ptr[j + 1]] = j
        order = np.lexsort((cols_of, self.row_idx))
        self.perm = order
        self.col_idx = cols_of[order]
        counts = np.bincount(self.row_idx, minlength=nbrow)
        self.row_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    # -- construction ----------------------------------------------------
    @staticmethod
    def from_dense(a: np.ndarray, bm: int, bk: int,
                   dtype: DType = DType.F32,
                   tol: float = 0.0) -> "BCSCMatrix":
        """Compress a dense (M, K) matrix, dropping all-(near-)zero blocks."""
        m, k = a.shape
        if m % bm or k % bk:
            raise ValueError(f"({m},{k}) not divisible by ({bm},{bk})")
        nbrow, nbcol = m // bm, k // bk
        blocks = a.reshape(nbrow, bm, nbcol, bk).transpose(2, 0, 1, 3)
        col_ptr = [0]
        row_idx: list[int] = []
        vals: list[np.ndarray] = []
        for j in range(nbcol):
            for i in range(nbrow):
                blk = blocks[j, i]
                if np.max(np.abs(blk)) > tol:
                    row_idx.append(i)
                    vals.append(np.ascontiguousarray(blk, dtype=np.float32))
            col_ptr.append(len(row_idx))
        values = (np.stack(vals) if vals
                  else np.zeros((0, bm, bk), dtype=np.float32))
        if dtype is DType.BF16:
            values = from_compute(values, DType.BF16)
        return BCSCMatrix(m, k, bm, bk,
                          np.asarray(col_ptr, dtype=np.int64),
                          np.asarray(row_idx, dtype=np.int64),
                          values, dtype)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.k), dtype=np.float32)
        for j in range(self.n_block_cols):
            for p in range(self.col_ptr[j], self.col_ptr[j + 1]):
                i = self.row_idx[p]
                out[i * self.bm:(i + 1) * self.bm,
                    j * self.bk:(j + 1) * self.bk] = self.values[p]
        return out

    # -- properties --------------------------------------------------------
    @property
    def n_block_rows(self) -> int:
        return self.m // self.bm

    @property
    def n_block_cols(self) -> int:
        return self.k // self.bk

    @property
    def nnz_blocks(self) -> int:
        return int(len(self.row_idx))

    @property
    def density(self) -> float:
        total = self.n_block_rows * self.n_block_cols
        return self.nnz_blocks / total if total else 0.0

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    def nbytes(self) -> int:
        """Storage footprint: values in the logical dtype + index arrays."""
        return (self.values.size * self.dtype.nbytes
                + self.col_ptr.nbytes + self.row_idx.nbytes)

    def row_blocks(self, block_row: int):
        """Yield (block_col, value_block) pairs of one block row."""
        for q in range(self.row_ptr[block_row], self.row_ptr[block_row + 1]):
            yield int(self.col_idx[q]), self.values[self.perm[q]]


class BlockSpMMTPP(TPP):
    """BCSC block-row x dense-panel microkernel: C_blk = sum A_blk @ B_blk.

    One invocation computes a full ``(bm, bn)`` C block from block row
    ``block_row`` of A and the ``(K, bn)`` panel of B starting at column
    ``n_start``.  The surrounding PARLOOPER loops (Listing 5) iterate the
    block rows and the N panels.
    """

    name = "bcsc_spmm"

    def __init__(self, bm: int, bn: int, bk: int, beta: float = 0.0,
                 b_vnni: int = 1, precision: Precision = Precision()):
        super().__init__(precision)
        if b_vnni not in (1, 2, 4):
            raise ValueError(f"b_vnni must be 1, 2 or 4, got {b_vnni}")
        if b_vnni > 1 and bk % b_vnni:
            raise ValueError(f"bk={bk} not divisible by vnni factor {b_vnni}")
        self.bm, self.bn, self.bk = int(bm), int(bn), int(bk)
        self.beta = float(beta)
        self.b_vnni = int(b_vnni)

    def _b_block(self, b: np.ndarray, kc: int, n_start: int) -> np.ndarray:
        """Extract the (bk, bn) dense block of B for block-column kc."""
        if self.b_vnni > 1:
            v = self.b_vnni
            # B packed as (K/v, N, v)
            blk = b[kc * self.bk // v:(kc + 1) * self.bk // v,
                    n_start:n_start + self.bn, :]
            return blk.transpose(0, 2, 1).reshape(self.bk, self.bn)
        return b[kc * self.bk:(kc + 1) * self.bk, n_start:n_start + self.bn]

    def _execute(self, a: BCSCMatrix, b: np.ndarray, c: np.ndarray,
                 block_row: int, n_start: int = 0) -> np.ndarray:
        if not isinstance(a, BCSCMatrix):
            raise TypeError("BlockSpMM expects a BCSCMatrix as A")
        if a.bm != self.bm or a.bk != self.bk:
            raise ValueError(
                f"BCSC block ({a.bm},{a.bk}) != TPP block ({self.bm},{self.bk})")
        if c.shape != (self.bm, self.bn):
            raise ValueError(
                f"C block must be ({self.bm},{self.bn}), got {c.shape}")
        comp = self.precision.comp.np
        acc = (self.beta * self._in(c) if self.beta != 0.0
               else np.zeros((self.bm, self.bn), dtype=comp))
        for kc, a_blk in a.row_blocks(block_row):
            b_blk = self._b_block(b, kc, n_start)
            acc = acc + a_blk.astype(comp, copy=False) @ \
                b_blk.astype(comp, copy=False)
        self._store(c, acc)
        return c

    @staticmethod
    def pack_b(b: np.ndarray, vnni: int) -> np.ndarray:
        """Pre-format dense B in VNNI layout (Listing 5 lines 3-4)."""
        return b if vnni == 1 else vnni_pack(b, vnni)
