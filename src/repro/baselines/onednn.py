"""Modeled oneDNN (and oneDNN+ACL on AArch64) baseline.

Mechanisms reproduced from the paper's analysis (§V-A1, §V-A4):

* GEMM uses a *flat* (non-blocked) B layout — "The oneDNN implementation
  does not use matrix B in blocked layout which results in extraneous
  cache-conflicts misses for the case with leading dimension 4096".
* Heuristic (untuned) loop instantiation: a fixed collapse over the
  (M, N) block space — good generic quality, which is why FP32 results
  are "mostly on par" with PARLOOPER.
* Full AMX/VNNI/BF16 codegen (unlike TVM).
* On Graviton 3 the ACL integration runs convolutions through an FP32
  frontend, converting tensors to BF16 on-the-fly before the MMLA
  compute — an extra full pass over the activations per layer.
* On hybrid ADL the work partitioning is static, so E-cores straggle.
"""

from __future__ import annotations

from ..kernels.conv import ConvSpec, ParlooperConv
from ..kernels.gemm import ParlooperGemm
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from .base import BaselineResult, GemmBaseline

__all__ = ["OneDnnBaseline"]


class OneDnnBaseline(GemmBaseline):
    name = "oneDNN"

    def __init__(self, acl_on_aarch64: bool = True):
        self.acl_on_aarch64 = acl_on_aarch64

    def _is_aarch64(self, machine: MachineModel) -> bool:
        return machine.isa_for(DType.F32).value.startswith(("sve", "neon"))

    def gemm(self, machine: MachineModel, M: int, N: int, K: int,
             dtype: DType) -> BaselineResult:
        kernel = ParlooperGemm(
            M, N, K, dtype=dtype, spec_string="aBC",
            num_threads=machine.total_cores, flat_b=True)
        res = kernel.simulate(machine)
        seconds = res.seconds
        detail = "flat-B layout, heuristic schedule"
        if self.acl_on_aarch64 and self._is_aarch64(machine) \
                and dtype is DType.BF16:
            # ACL path: FP32 frontend converts A/B to BF16 on the fly
            convert_bytes = (M * K + K * N) * 4
            seconds += convert_bytes / (machine.dram_bw_gbytes * 1e9) * 2
            detail += ", ACL fp32-frontend conversion"
        gflops = kernel.flops / seconds / 1e9
        return BaselineResult(self.name, seconds, gflops, detail)

    def conv(self, machine: MachineModel, spec: ConvSpec, dtype: DType,
             bc: int = 64, bk: int = 64, w_step: int | None = None
             ) -> BaselineResult:
        if w_step is None:
            w_step = spec.Q
        kernel = ParlooperConv(spec, bc=bc, bk=bk, w_step=w_step,
                               dtype=dtype, spec_string="ACbdefg",
                               num_threads=machine.total_cores)
        res = kernel.simulate(machine)
        seconds = res.seconds
        detail = "heuristic schedule"
        if self.acl_on_aarch64 and self._is_aarch64(machine) \
                and dtype is DType.BF16:
            # "the oneDNN/ACL integration is inefficient since it is using
            # the FP32 front-end, and in the backend the input tensors are
            # converted to BF16 on-the-fly" (§V-A4) — read fp32 + write
            # bf16 for activations and weights, every layer invocation
            act_bytes = spec.N * spec.C * spec.H * spec.W * (4 + 2)
            wt_bytes = spec.K * spec.C * spec.R * spec.S * (4 + 2)
            seconds += (act_bytes + wt_bytes) / (machine.dram_bw_gbytes
                                                 * 1e9) * 2.5
            detail += ", ACL fp32-frontend conversion"
        if machine.is_hybrid:
            # static partitioning leaves P-cores waiting on E-cores; the
            # engine already models this via the static trace path, but
            # oneDNN additionally does not shape work for E-cores
            seconds *= 1.08
            detail += ", static hybrid partitioning"
        gflops = spec.flops / seconds / 1e9
        return BaselineResult(self.name, seconds, gflops, detail)
