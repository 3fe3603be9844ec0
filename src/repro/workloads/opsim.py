"""Operator-level cost model for end-to-end workloads.

End-to-end pipelines (BERT, LLMs, ResNet-50) execute thousands of operator
invocations over a handful of *unique* shapes.  This model prices each
unique contraction once with the full trace engine (cached) and prices
elementwise/data-movement ops with a closed-form roofline, then composes
layer and step times.  Software-stack differences (fusion, unpad, loop
tuning, BF16 path) enter through a :class:`~repro.baselines.stacks.
StackModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.stacks import STACKS, StackModel
from ..kernels.gemm import ParlooperGemm
from ..platform.machine import MachineModel
from ..tpp.backend.dispatch import dispatch_brgemm
from ..tpp.backend.isa import ISA_SPECS, matrix_unit_efficiency
from ..tpp.dtypes import DType

__all__ = ["OpCostModel"]

GIGA = 1e9


@dataclass
class OpCostModel:
    """Prices operator invocations on one machine under one stack."""

    machine: MachineModel
    stack: StackModel = STACKS["parlooper"]
    num_threads: int | None = None
    #: optional :class:`~repro.tuner.online.OnlineTuner` — when set,
    #: every engine-priced GEMM shape gets an admission-time spec pick
    #: (model-screened, budgeted exact ladder) instead of the default
    #: spec, and the evaluation lands in the tuner's EvalCache corpus
    tuner: object = None

    def __post_init__(self):
        if self.num_threads is None:
            self.num_threads = self.machine.total_cores
        self._gemm_cache: dict = {}

    # -- contraction ops ---------------------------------------------------
    def _effective_dtype(self, dtype: DType) -> DType:
        if dtype.is_low_precision and not self.stack.bf16_native:
            return DType.F32  # reference/slow path executes at FP32 rate
        return dtype

    def gemm_seconds(self, M: int, N: int, K: int, dtype: DType) -> float:
        """One GEMM on this stack (engine-priced per unique shape)."""
        dt = self._effective_dtype(dtype)
        # quantise shapes so near-identical token counts share a price
        key = (self._round(M), self._round(N), self._round(K), dt)
        base = self._gemm_cache.get(key)
        if base is None:
            base = self._price_gemm(*key)
            self._gemm_cache[key] = base
        base = base * (M * N * K) / (key[0] * key[1] * key[2])
        t = base / self.stack.contraction_efficiency
        if dt is not dtype:
            # non-native low precision: reference kernels also up/down
            # convert operands every call
            t += (M * K + K * N) * 4 / (self.machine.dram_bw_gbytes * GIGA)
            t *= 3.0  # reference-impl inner loops, no blocking/JIT
        return t + self.stack.op_overhead_us * 1e-6

    def _price_gemm(self, M: int, N: int, K: int, dtype: DType) -> float:
        bm = self._block(M)
        bn = self._block(N)
        bk = self._block(K)
        if min(M, N, K) < 16 or (M * N * K) < 64**3:
            return self._roofline_gemm(M, N, K, dtype, bm, bn, bk)
        # round dims down to block multiples: edge blocks contribute
        # marginally at these sizes
        Mr, Nr, Kr = (M // bm) * bm, (N // bn) * bn, (K // bk) * bk
        kernel = ParlooperGemm(Mr, Nr, Kr, bm, bn, bk, dtype=dtype,
                               num_threads=self.num_threads)
        if self.tuner is not None:
            kernel = self.tuner.retune(kernel, self.machine) or kernel
        res = kernel.simulate(self.machine)
        return res.seconds * (M * N * K) / (Mr * Nr * Kr)

    def _roofline_gemm(self, M, N, K, dtype, bm, bn, bk) -> float:
        flops = 2.0 * M * N * K
        cfg = dispatch_brgemm(self.machine.isa_for(dtype), dtype,
                              max(1, bm), max(1, bn), max(1, bk))
        peak = (cfg.flops_per_cycle() * self.machine.freq_ghz * GIGA
                * min(self.num_threads, self.machine.total_cores))
        nbytes = (M * K + K * N + M * N) * dtype.nbytes
        bw = self.machine.dram_bw_gbytes * GIGA
        return max(flops / max(peak, 1e-9), nbytes / bw)

    @staticmethod
    def _round(dim: int) -> int:
        """Round a dimension to its pricing bucket (nearest block grid)."""
        if dim >= 64:
            return max(64, int(round(dim / 64)) * 64)
        b = 1
        while b * 2 <= dim:
            b *= 2
        return b

    def _block(self, dim: int) -> int:
        for b in (64, 32, 16, 8, 4, 2, 1):
            if dim % b == 0:
                return b
        return 1

    def batched_gemm_seconds(self, M: int, N: int, K: int, dtype: DType,
                             count: int) -> float:
        """*count* same-shape small contractions (attention heads).

        Parallelism comes from the batch: each core runs whole instances
        (one head's GEMM fits one core), so makespan = ceil(count /
        cores) x single-core instance time.  Fused stacks dispatch the
        whole batch as one parallel loop (one overhead); unfused stacks
        dispatch per instance.
        """
        dt = self._effective_dtype(dtype)
        key = ("1core", self._round(M), self._round(N), self._round(K), dt)
        one = self._gemm_cache.get(key)
        if one is None:
            mr, nr, kr = key[1], key[2], key[3]
            flops = 2.0 * mr * nr * kr
            cfg = dispatch_brgemm(self.machine.isa_for(dt), dt,
                                  self._block(mr), self._block(nr),
                                  self._block(kr))
            core_peak = (cfg.flops_per_cycle() * self.machine.freq_ghz
                         * GIGA)
            nbytes = (mr * kr + kr * nr + mr * nr) * dt.nbytes
            core_bw = min(self.machine.core_dram_gbytes,
                          self.machine.dram_bw_gbytes) * GIGA
            one = max(flops / core_peak, nbytes / core_bw)
            self._gemm_cache[key] = one
        one = one * (M * N * K) / (key[1] * key[2] * key[3])
        one /= self.stack.contraction_efficiency
        rounds = -(-count // max(1, self.num_threads))
        per_dispatch = (1 if self.stack.fused else count)
        t = one * rounds + per_dispatch * self.stack.op_overhead_us * 1e-6
        if dt is not dtype:
            t += count * (M * K + K * N) * 4 / \
                (self.machine.dram_bw_gbytes * GIGA)
            t *= 3.0
        return t

    def ragged_gemm_seconds(self, M: int, n_list, K: int,
                            dtype: DType) -> float:
        """A ragged batch of GEMMs sharing the B operand (weights).

        This is the shape of one serving step over a mixed batch: every
        sequence multiplies the *same* ``M x K`` weight panel by its own
        ``n`` tokens.  Fused/batched stacks concatenate the ragged token
        dimension and dispatch one GEMM of ``N = sum(n)`` — the weights
        stream once for the whole batch.  Unfused stacks dispatch per
        sequence and re-read the shared weights every time, which is
        exactly why batching barely helps them in the decode regime.
        """
        n_list = [n for n in n_list if n > 0]
        if not n_list:
            return 0.0
        if self.stack.fused:
            return self.gemm_seconds(M, sum(n_list), K, dtype)
        return sum(self.gemm_seconds(M, n, K, dtype) for n in n_list)

    def spmm_seconds(self, M: int, N: int, K: int, dtype: DType,
                     sparsity: float, block: int) -> float:
        """Block-sparse contraction: the *dense engine price* scaled by
        density, the accumulation-chain efficiency of the sparsity block,
        and a BCSC irregularity factor (Fig 8).

        Anchoring on :meth:`gemm_seconds` keeps sparse and dense on the
        same cost model, so a fully-dense 32x32 Block-SpMM matches the
        dense GEMM — the paper's SPR observation.
        """
        density = 1.0 - sparsity
        spec = ISA_SPECS[self.machine.isa_for(dtype)]
        # blocks of 8+ rows leave room to interleave two accumulator
        # tiles across the wide N panel, hiding half the systolic
        # underfill; 4x4 blocks cannot ("restricted to 4/32 = 12.5% of
        # the BF16 peak", Fig 8)
        interleave = 2 if block >= 8 else 1
        chain_eff = matrix_unit_efficiency(spec, block * interleave)
        # BCSC irregularity: index gather + short nonzero runs cost the
        # microkernel some throughput as sparsity rises
        irregularity = 0.7 + 0.3 * density
        anchor = self.gemm_seconds(M, N, K, dtype) \
            - self.stack.op_overhead_us * 1e-6
        # split the dense anchor into memory and compute portions so a
        # fully-dense full-chain Block-SpMM reproduces the dense price
        # exactly (Fig 8: 32x32 "can match the dense GEMM even without
        # any sparsity") while sparsity scales each portion by its own
        # mechanism: compute by density/chain/irregularity, memory by the
        # surviving A bytes
        bw = self.machine.dram_bw_gbytes * GIGA
        t_mem_dense = (M * K + K * N + M * N) * dtype.nbytes / bw
        peak = (spec.flops_per_cycle(dtype) * self.machine.freq_ghz * GIGA
                * min(self.num_threads, self.machine.total_cores))
        t_comp_dense = max(anchor - t_mem_dense, 2.0 * M * N * K / peak)
        t_comp = t_comp_dense * density / max(chain_eff * irregularity,
                                              1e-9)
        t_mem = (M * K * density + K * N + M * N) * dtype.nbytes / bw
        return t_comp + t_mem + self.stack.op_overhead_us * 1e-6

    # -- elementwise / movement ops ---------------------------------------
    def eltwise_seconds(self, elems: int, dtype: DType,
                        flops_per_elem: float = 1.0,
                        n_ops: int = 1) -> float:
        """A chain of *n_ops* elementwise operators over *elems* elements.

        Fused stacks touch memory once for the whole chain (the paper's
        2D-block fusion, §IV-A); unfused stacks round-trip per op.
        """
        spec = ISA_SPECS[self.machine.isa_for(DType.F32)]
        vec_peak = (spec.flops_per_cycle(DType.F32) / 2.0
                    * self.machine.freq_ghz * GIGA
                    * min(self.num_threads, self.machine.total_cores))
        flops = flops_per_elem * elems * n_ops
        trips = 1 if self.stack.fused else n_ops
        nbytes = 2.0 * elems * dtype.nbytes * trips
        bw = self.machine.dram_bw_gbytes * GIGA
        overhead = (self.stack.op_overhead_us * 1e-6
                    * (1 if self.stack.fused else n_ops))
        return max(flops / vec_peak, nbytes / bw) + overhead

    def bandwidth_seconds(self, nbytes: float) -> float:
        """Pure streaming (weight reads, embedding gathers, KV cache)."""
        return nbytes / (self.machine.dram_bw_gbytes * GIGA)

    def seq_fraction(self, valid_fraction: float) -> float:
        """Fraction of token positions actually computed.

        Stacks with the Unpad Optimization only process valid tokens;
        others compute on the full padded sequence (§V-B1).
        """
        return valid_fraction if self.stack.unpad else 1.0
