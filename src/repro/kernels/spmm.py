"""Block-Sparse x Dense GEMM via PARLOOPER — the paper's Listing 5 (§III-C).

Two logical loops drive the ``bcsc_spmm_tpp`` microkernel::

    a = block rows of sparse A     b = bn-wide panels of dense B/C

Each body call computes the full (bm x bn) C block from one A block row
(only its nonzero blocks) against the matching dense B blocks.  B may be
pre-formatted in VNNI layout for the low-precision paths (lines 3-4).
"""

from __future__ import annotations

import numpy as np

from ..core.loop_spec import LoopSpecs
from ..platform.machine import MachineModel
from ..simulator.cost import spmm_event
from ..tpp.batched import batched_spmm
from ..tpp.dtypes import DType, Precision
from ..tpp.sparse import BCSCMatrix, BlockSpMMTPP
from .abft import spmm_check
from .base import BlockMap, ParlooperKernel
from .common import as_dtype, divisible, tiles

__all__ = ["ParlooperSpmm", "DEFAULT_SPMM_SPEC"]

DEFAULT_SPMM_SPEC = "AB"


class ParlooperSpmm(ParlooperKernel):
    """C = A_sparse x B_dense with BCSC block sparsity."""

    kind = "spmm"
    tensors = ("Asp", "B", "C")

    def __init__(self, a: BCSCMatrix, N: int, bn: int = 64,
                 dtype: DType = DType.F32, b_vnni: int = 1,
                 spec_string: str = DEFAULT_SPMM_SPEC,
                 num_threads: int | None = None,
                 block_steps=((), ()),
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(N, bn, "N")
        self.a = a
        self.N = N
        self.bn = bn
        self.Nb = N // bn
        self.dtype = dtype
        self.b_vnni = b_vnni
        if b_vnni != 1:
            self._layout_gate = "VNNI-packed B requires per-block re-layout"

        prec = Precision.of(dtype)
        self.spmm_tpp = BlockSpMMTPP(a.bm, bn, a.bk, beta=0.0,
                                     b_vnni=b_vnni, precision=prec)
        super().__init__(
            [LoopSpecs(0, a.n_block_rows, 1, block_steps[0]),
             LoopSpecs(0, self.Nb, 1, block_steps[1])],
            spec_string, num_threads, backend, abft)
        if self.abft != "off" and b_vnni != 1:
            raise ValueError(
                "abft checksums need the flat (b_vnni=1) B layout; "
                f"got b_vnni={b_vnni}")
        # the body walks A's nonzero structure, which no shape tuple can
        # name — an owned sentinel keeps trace-cache keys collision-free
        self._a_token = object()

    # -- layout ------------------------------------------------------------
    def pack_b(self, b: np.ndarray) -> np.ndarray:
        if b.shape != (self.a.k, self.N):
            raise ValueError(
                f"B must be ({self.a.k},{self.N}), got {b.shape}")
        b = as_dtype(b, self.dtype)
        return BlockSpMMTPP.pack_b(np.ascontiguousarray(b), self.b_vnni)

    def alloc_c(self) -> np.ndarray:
        return np.zeros((self.a.m, self.N), dtype=self.dtype.np)

    # -- functional -------------------------------------------------------
    def __call__(self, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        self._compute(B, C)
        return C

    # -- the block map and its executors -----------------------------------
    def block_map(self, ind) -> BlockMap:
        """Listing 5's addresses: call ``(i_m, i_n)`` reduces the nonzero
        blocks of A's block row ``i_m`` (read from ``a.values`` by
        storage slot) against ``B[kc][i_n]`` into ``C[i_m][i_n]``, which
        it writes whole (beta = 0): every call starts and finishes it."""
        a = self.a
        i_m, i_n = ind[0], ind[1]
        start = a.row_ptr[i_m]
        count = a.row_ptr[i_m + 1] - start
        # a run pads its shorter block rows with any nonzero block
        q = [(start + j) % a.nnz_blocks
             for j in range(int(np.max(count, initial=0)))]
        return BlockMap(reads=([(a.perm[p],) for p in q],
                               [(a.col_idx[p], i_n) for p in q]),
                        write=(i_m, i_n), first=True, last=True, count=count)

    def _blocks(self, B, C):
        a = self.a          # VNNI B stays unblocked: only interpreted
        b = tiles(B, a.bk, self.bn) if self.b_vnni == 1 else B
        return (a.values, b), tiles(C, a.bm, self.bn)

    def _tpp_call(self, m, ins, c_blk, B, C):
        """Listing 5's body: one BCSC microkernel call per C block."""
        i_m, i_n = m.write
        self.spmm_tpp(self.a, B, c_blk, block_row=i_m,
                      n_start=i_n * self.bn)

    def _tpp_batched(self, reads, old):
        return batched_spmm(*reads, old, self.spmm_tpp.precision)

    def _checksum(self, B, C):
        # the column checksum sums out M, so it detects but cannot locate
        # the bad row: the ladder recomputes the nest
        return spmm_check(self, B, C)

    def run(self, b: np.ndarray) -> np.ndarray:
        C = self.alloc_c()
        self(self.pack_b(b), C)
        return C

    # -- performance ------------------------------------------------------
    @property
    def effective_flops(self) -> int:
        """Dense-equivalent flops (the paper's 'effective GFLOPS' y-axis
        in Fig 8 counts the full dense work)."""
        return 2 * self.a.m * self.a.k * self.N

    @property
    def actual_flops(self) -> int:
        return 2 * self.a.bm * self.a.bk * self.N * self.a.nnz_blocks

    @property
    def _score_flops(self) -> int:
        # predictions are scored in effective flops, like Fig 8
        return self.effective_flops

    def _slices(self, m: BlockMap) -> tuple:
        # A's blocks are named by (block row, block column), not by
        # storage slot
        return [(m.write[0], kc) for kc, _ in m.reads[1]], m.reads[1]

    def _events(self, machine, keys, c_key, first, last):
        # an empty block row still stores its (zero) C block: beta = 0
        return spmm_event(machine, self.dtype, self.a.bm, self.bn,
                          self.a.bk, len(keys[0]), *keys, c_key, beta=0.0)

    def _key_fields(self) -> tuple:
        return (self._a_token, self.N, self.bn, self.dtype)

    def effective_gflops(self, machine: MachineModel, session=None) -> float:
        """Dense-equivalent throughput (Fig 8 y-axis)."""
        res = self.simulate(machine, session=session)
        return self.effective_flops / res.seconds / 1e9
