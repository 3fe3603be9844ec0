"""Modeled TVM-Autoscheduler (Ansor) baseline (Fig 4, §V-A2).

Two structural mechanisms, both from the paper:

1. **Search below the TPP boundary.**  Ansor's space includes
   vectorization / register blocking / instruction selection, so each
   trial costs a real compile+measure (~seconds) and its learned cost
   model is noisy — the search picks from noisy estimates.  PARLOOPER
   "stops the tuning space at the boundaries of TPPs", searching only
   cache blocking and parallelization with a cheap analytic model, and is
   2.3-500x faster to tune.
2. **No hardware-accelerated low-precision codegen.**  "TVM-Autoscheduler
   was not able to generate code that leverages the hardware accelerated
   VNNI/AMX BF16 instructions, instead it generated slow replacement
   instructions" — BF16 requests fall back to an FP32-rate emulation.

We model (1) as a random search over the same candidate space whose
selection uses log-normally perturbed scores (the winner is near-optimal
for insensitive large shapes, measurably suboptimal for small ones), and
a per-trial tuning cost; and (2) by executing BF16 at the FP32 pipe rate
with conversion overhead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..core.loop_spec import LoopSpecs
from ..kernels.gemm import ParlooperGemm
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from ..tuner.constraints import TuningConstraints
from ..tuner.generator import generate_candidates
from .base import BaselineResult, GemmBaseline

__all__ = ["TvmAnsorBaseline", "TvmTuningReport"]


@dataclass(frozen=True)
class TvmTuningReport:
    """Search-cost accounting for the Fig 4 tuning-time comparison."""

    trials: int
    seconds_per_trial: float

    @property
    def total_seconds(self) -> float:
        return self.trials * self.seconds_per_trial


class TvmAnsorBaseline(GemmBaseline):
    name = "TVM-Ansor"

    #: compile + run + measure per schedule trial (the repo-recommended
    #: 1000-trial run took 17-50 minutes on 4 shapes => ~1-3 s/trial)
    SECONDS_PER_TRIAL = 1.8
    #: mild selection noise: Ansor *measures* its finalists, so the
    #: winner is close to the pool's true best; the learned model only
    #: biases which candidates reach measurement
    SCORE_NOISE_SIGMA = 0.12

    def __init__(self, trials: int = 1000, seed: int = 0):
        self.trials = trials
        self.seed = seed

    def tuning_report(self) -> TvmTuningReport:
        return TvmTuningReport(self.trials, self.SECONDS_PER_TRIAL)

    @staticmethod
    def _codegen_quality(M: int, N: int, K: int) -> float:
        """Generated-code quality vs the TPP microkernel JIT.

        "For the smaller GEMMs with limited data reuse, PARLOOPER
        outperforms TVM by 1.24x to 1.76x whereas for the larger GEMMs
        ... TVM achieves comparable performance" (§V-A2): with little
        reuse, Ansor's generated inner kernels (register blocking,
        packing, prologue/epilogue handling) leave measurable throughput
        behind; with abundant reuse those costs amortise away.
        """
        reuse = min(M, N, K)
        lo, hi = 0.58, 0.97       # 1/1.72 .. ~parity
        frac = min(1.0, max(0.0, (reuse - 256) / (2048 - 256)))
        return lo + (hi - lo) * frac

    def gemm(self, machine: MachineModel, M: int, N: int, K: int,
             dtype: DType) -> BaselineResult:
        bm = bn = bk = 64
        Kb, Mb, Nb = K // bk, M // bm, N // bn
        specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1),
                 LoopSpecs(0, Nb, 1)]
        cons = TuningConstraints(
            max_occurrences={"a": 1, "b": 3, "c": 3},
            parallelizable=frozenset({"b", "c"}),
            max_candidates=min(self.trials, 48), seed=self.seed)
        candidates = generate_candidates(specs, cons)
        rng = random.Random(self.seed + M + N + K)

        best_cand, best_noisy = None, float("-inf")
        for cand in candidates:
            try:
                kernel = ParlooperGemm(
                    M, N, K, bm, bn, bk, dtype=DType.F32,
                    spec_string=cand.spec_string,
                    block_steps=cand.block_steps,
                    num_threads=machine.total_cores)
            except Exception:
                continue
            pred = kernel.predict(machine, sample_threads=2)
            noisy = pred.score * math.exp(
                rng.gauss(0.0, self.SCORE_NOISE_SIGMA))
            if noisy > best_noisy:
                best_noisy, best_cand = noisy, cand

        kernel = ParlooperGemm(
            M, N, K, bm, bn, bk, dtype=DType.F32,
            spec_string=best_cand.spec_string,
            block_steps=best_cand.block_steps,
            num_threads=machine.total_cores)
        res = kernel.simulate(machine)
        seconds = res.seconds / self._codegen_quality(M, N, K)
        detail = f"picked {best_cand.label()} via noisy search"
        if dtype is not DType.F32:
            # no VNNI/AMX emission: the low-precision request executes as
            # an FP32-rate replacement sequence (already what `seconds`
            # measures, since the kernel ran with DType.F32) plus
            # widen/narrow conversion traffic over both operands
            seconds += (M * K + K * N) * 4 / (machine.dram_bw_gbytes * 1e9)
            detail += "; BF16 fell back to slow replacement sequence"
        gflops = 2.0 * M * N * K / seconds / 1e9
        return BaselineResult(self.name, seconds, gflops, detail)
