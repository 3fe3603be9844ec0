"""Tests for the TPP backend: ISA specs, microkernel config, dispatch cache."""

import pytest

from repro.tpp.backend import (ISA, ISA_SPECS, DispatchCache,
                               MatrixUnit, configure_microkernel,
                               dispatch_brgemm, matrix_unit_efficiency)
from repro.tpp.dtypes import DType


class TestIsaSpecs:
    def test_avx512_fp32_peak(self):
        # 16 lanes * 2 pipes * 2 flops = 64 flops/cycle
        assert ISA_SPECS[ISA.AVX512].flops_per_cycle(DType.F32) == 64

    def test_amx_bf16_is_16x_fp32(self):
        amx = ISA_SPECS[ISA.AMX_BF16]
        ratio = amx.flops_per_cycle(DType.BF16) / \
            ISA_SPECS[ISA.AVX512].flops_per_cycle(DType.F32)
        assert ratio == 16.0  # paper §V-A1: "up to 16x more peak flops"

    def test_zen4_bf16_is_2x_fp32(self):
        z = ISA_SPECS[ISA.AVX512_BF16]
        assert z.flops_per_cycle(DType.BF16) == 2 * z.flops_per_cycle(DType.F32)

    def test_mmla_is_4x_sve_fp32(self):
        m = ISA_SPECS[ISA.SVE256_MMLA]
        s = ISA_SPECS[ISA.SVE256]
        assert m.flops_per_cycle(DType.BF16) == 4 * s.flops_per_cycle(DType.F32)

    def test_chain_efficiency_bounds(self):
        amx = ISA_SPECS[ISA.AMX_BF16]
        assert matrix_unit_efficiency(amx, 32) == 1.0
        assert matrix_unit_efficiency(amx, 4) == 0.125  # Fig 8's 4/32
        assert matrix_unit_efficiency(amx, 64) == 1.0
        assert matrix_unit_efficiency(amx, 0) == 0.0


class TestMicrokernel:
    def test_amx_chain_mechanism(self):
        # "The 4x4 case is restricted to 4/32 = 12.5% of the BF16 peak"
        effs = {blk: configure_microkernel(
            ISA.AMX_BF16, DType.BF16, blk, blk, blk).efficiency
            for blk in (4, 8, 16, 32)}
        assert effs[4] <= 0.125
        assert effs[8] < effs[16] < effs[32]
        assert effs[32] == 1.0

    def test_mmla_small_chain_ok(self):
        # GVT3 BF16 "requires accumulation chain of at least 4"
        c = configure_microkernel(ISA.SVE256_MMLA, DType.BF16, 4, 64, 4)
        assert c.efficiency > 0.8
        assert c.uses_matrix_unit

    def test_zen4_small_chain_ok(self):
        # Zen4 requires accumulation chain of at least 2
        c = configure_microkernel(ISA.AVX512_BF16, DType.BF16, 4, 64, 4)
        assert c.efficiency > 0.8

    def test_vnni_flag_for_low_precision(self):
        assert configure_microkernel(
            ISA.AMX_BF16, DType.BF16, 32, 32, 32).needs_vnni
        assert not configure_microkernel(
            ISA.AVX512, DType.F32, 32, 32, 32).needs_vnni

    def test_fp32_large_block_near_peak(self):
        c = configure_microkernel(ISA.AVX512, DType.F32, 64, 64, 64)
        assert c.efficiency > 0.9
        assert not c.uses_matrix_unit

    def test_tiny_n_poor_vector_efficiency(self):
        # a 1-wide N block wastes 15/16 AVX512 lanes
        c = configure_microkernel(ISA.AVX512, DType.F32, 64, 1, 64)
        assert c.efficiency < 0.2

    def test_register_budget_respected(self):
        c = configure_microkernel(ISA.AVX512, DType.F32, 64, 64, 64)
        assert c.reg_m * c.reg_n + c.reg_n + 2 <= 32

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            configure_microkernel(ISA.AVX512, DType.F32, 0, 4, 4)

    def test_effective_flops_per_cycle(self):
        c = configure_microkernel(ISA.AMX_BF16, DType.BF16, 32, 32, 32)
        assert c.flops_per_cycle() == pytest.approx(1024.0)


class TestDispatchCache:
    def test_hit_on_repeat(self):
        cache = DispatchCache()
        a = dispatch_brgemm(ISA.AVX512, DType.F32, 32, 32, 32, cache)
        b = dispatch_brgemm(ISA.AVX512, DType.F32, 32, 32, 32, cache)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_shapes_miss(self):
        cache = DispatchCache()
        dispatch_brgemm(ISA.AVX512, DType.F32, 32, 32, 32, cache)
        dispatch_brgemm(ISA.AVX512, DType.F32, 64, 32, 32, cache)
        assert cache.misses == 2

    def test_batch_reduce_count_selects_no_microkernel(self, monkeypatch):
        # the event builders dispatch with what selects the kernel only:
        # BRGEMMs and a SpMM block row that differ in batch-reduce count
        # share one config
        from repro.platform import SPR
        from repro.simulator.cost import brgemm_event, spmm_event
        from repro.tpp.backend import dispatch
        cache = DispatchCache()
        monkeypatch.setattr(dispatch, "_GLOBAL", cache)
        keys = [("A", i) for i in range(4)]
        one = brgemm_event(SPR, DType.BF16, 32, 32, 32, 1, keys[:1],
                           keys[:1], ("C",))
        four = brgemm_event(SPR, DType.BF16, 32, 32, 32, 4, keys, keys,
                            ("C",))
        spmm_event(SPR, DType.BF16, 32, 32, 32, 3, keys[:3], keys[:3],
                   ("C",))
        assert (len(cache), cache.misses, cache.hits) == (1, 1, 2)
        assert four.flops == 4 * one.flops
        assert four.flops_per_cycle == one.flops_per_cycle

    def test_clear(self):
        cache = DispatchCache()
        dispatch_brgemm(ISA.AVX512, DType.F32, 32, 32, 32, cache)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_thread_safety_smoke(self):
        import threading
        cache = DispatchCache()
        errs = []

        def work():
            try:
                for i in range(50):
                    dispatch_brgemm(ISA.AVX512, DType.F32,
                                    16 + (i % 4) * 16, 32, 32, cache)
            except Exception as e:  # pragma: no cover
                errs.append(e)

        ts = [threading.Thread(target=work) for _ in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errs
        assert len(cache) == 4
