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
from ..tpp.dtypes import DType, Precision
from ..tpp.sparse import BCSCMatrix, BlockSpMMTPP
from .abft import spmm_check
from .base import ParlooperKernel
from .batched import run_spmm_batched, spmm_batched_ok, spmm_trace_builder
from .common import as_dtype, divisible

__all__ = ["ParlooperSpmm", "DEFAULT_SPMM_SPEC"]

DEFAULT_SPMM_SPEC = "AB"


class ParlooperSpmm(ParlooperKernel):
    """C = A_sparse x B_dense with BCSC block sparsity."""

    kind = "spmm"

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

    def _batched_ok(self) -> tuple:
        return spmm_batched_ok(self)

    def _run_batched(self, B, C):
        run_spmm_batched(self, B, C)

    def _interp_body(self, B, C):
        bm = self.a.bm

        def body(ind):
            i_m, i_n = ind[0], ind[1]
            self.spmm_tpp(self.a, B,
                          C[i_m * bm:(i_m + 1) * bm,
                            i_n * self.bn:(i_n + 1) * self.bn],
                          block_row=i_m, n_start=i_n * self.bn)
        return body

    def _final_tile(self, B, C):
        # each spmm body call is the final write of its C block
        bm, bn = self.a.bm, self.bn
        return lambda ind: C[ind[0] * bm:(ind[0] + 1) * bm,
                             ind[1] * bn:(ind[1] + 1) * bn]

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

    def sim_body(self, machine: MachineModel):
        a = self.a

        def body(ind):
            i_m, i_n = ind[0], ind[1]
            cols = [kc for kc, _blk in a.row_blocks(i_m)]
            if not cols:
                return None
            a_keys = [("Asp", i_m, kc) for kc in cols]
            b_keys = [("B", kc, i_n) for kc in cols]
            return spmm_event(machine, self.dtype, a.bm, self.bn, a.bk,
                              len(cols), a_keys, b_keys,
                              ("C", i_m, i_n), beta=0.0)
        return body

    def trace_builder(self, machine: MachineModel):
        """``tid -> CompiledTrace`` twin of :meth:`sim_body` (empty block
        rows emit no event)."""
        return spmm_trace_builder(self, machine)

    def _key_fields(self) -> tuple:
        return (self._a_token, self.N, self.bn, self.dtype)

    def effective_gflops(self, machine: MachineModel, session=None) -> float:
        """Dense-equivalent throughput (Fig 8 y-axis)."""
        res = self.simulate(machine, session=session)
        return self.effective_flops / res.seconds / 1e9
