"""Functional + simulation tests for the PARLOOPER GEMM kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import ParlooperGemm
from repro.platform import SPR, ZEN4
from repro.tpp.dtypes import DType
from repro.verify import verify_nest


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestFunctional:
    def test_matches_numpy(self):
        g = ParlooperGemm(128, 96, 160, 32, 32, 32, num_threads=2)
        a, b = rand(128, 160, seed=1), rand(160, 96, seed=2)
        assert np.allclose(g.run_flat(a, b), a @ b, atol=1e-3)

    @pytest.mark.parametrize("spec", ["aBC", "abc", "bca", "bcaBCb", "Cba",
                                      "aBCbc"])
    def test_any_spec_same_result(self, spec):
        block_steps = ((), (2, 1), (2,)) if spec in ("bcaBCb", "aBCbc") \
            else ((), (), ())
        g = ParlooperGemm(128, 128, 128, 32, 32, 32, spec_string=spec,
                          num_threads=4, block_steps=block_steps)
        a, b = rand(128, 128, seed=3), rand(128, 128, seed=4)
        assert np.allclose(g.run_flat(a, b), a @ b, atol=1e-3), spec

    def test_nest_verifies_race_free(self):
        g = ParlooperGemm(128, 96, 160, 32, 32, 32, num_threads=2)
        verify_nest(g.loop, g.sim_body(SPR))

    def test_k_step_partial_reduction(self):
        g = ParlooperGemm(64, 64, 256, 32, 32, 32, k_step=2, num_threads=2)
        a, b = rand(64, 256, seed=5), rand(256, 64, seed=6)
        assert np.allclose(g.run_flat(a, b), a @ b, atol=1e-3)

    def test_bf16_matches_within_tolerance(self):
        g = ParlooperGemm(64, 64, 64, 32, 32, 32, dtype=DType.BF16,
                          num_threads=1)
        a, b = rand(64, 64, seed=7), rand(64, 64, seed=8)
        c = g.run_flat(a, b)
        assert np.allclose(c, a @ b, rtol=0.05, atol=0.3)

    def test_bias_relu_fusion(self):
        g = ParlooperGemm(64, 64, 64, 32, 32, 32, activation="relu",
                          bias=True, num_threads=2)
        a, b = rand(64, 64, seed=9), rand(64, 64, seed=10)
        bias = rand(64, seed=11)
        ref = np.maximum(a @ b + bias.reshape(-1, 1), 0)
        assert np.allclose(g.run_flat(a, b, bias), ref, atol=1e-3)

    def test_gelu_fusion(self):
        g = ParlooperGemm(32, 32, 32, 32, 32, 32, activation="gelu",
                          num_threads=1)
        a, b = rand(32, 32, seed=12), rand(32, 32, seed=13)
        c = g.run_flat(a, b)
        x = (a @ b).astype(np.float32)
        ref = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) *
                                     (x + 0.044715 * x**3)))
        assert np.allclose(c, ref, atol=1e-3)

    def test_flat_b_layout_same_result(self):
        g = ParlooperGemm(64, 128, 64, 32, 32, 32, flat_b=True,
                          num_threads=2)
        a, b = rand(64, 64, seed=14), rand(64, 128, seed=15)
        assert np.allclose(g.run_flat(a, b), a @ b, atol=1e-3)

    def test_bias_requires_vector(self):
        g = ParlooperGemm(32, 32, 32, 32, 32, 32, bias=True, num_threads=1)
        with pytest.raises(ValueError):
            g.run_flat(rand(32, 32), rand(32, 32))

    def test_validation(self):
        with pytest.raises(ValueError):
            ParlooperGemm(100, 64, 64, 32, 32, 32)  # M % bm != 0
        with pytest.raises(ValueError):
            ParlooperGemm(64, 64, 64, 32, 32, 32, k_step=3)  # 3 !| 2
        with pytest.raises(ValueError):
            ParlooperGemm(64, 64, 64, activation="swish")

    @given(st.sampled_from([32, 64]), st.sampled_from([32, 64]),
           st.sampled_from([32, 64]))
    @settings(max_examples=10, deadline=None)
    def test_property_shapes(self, bm, bn, bk):
        M, N, K = 2 * bm, 2 * bn, 2 * bk
        g = ParlooperGemm(M, N, K, bm, bn, bk, num_threads=2)
        a, b = rand(M, K, seed=bm), rand(K, N, seed=bn)
        assert np.allclose(g.run_flat(a, b), a @ b, atol=1e-3)


class TestSimulation:
    def test_simulate_returns_plausible_gflops(self):
        g = ParlooperGemm(1024, 1024, 1024, num_threads=ZEN4.total_cores)
        r = g.simulate(ZEN4)
        assert 0.2 * ZEN4.peak_gflops(DType.F32) < r.gflops \
            <= ZEN4.peak_gflops(DType.F32)

    def test_bf16_amx_speedup_on_spr(self):
        f32 = ParlooperGemm(2048, 2048, 2048, num_threads=112).simulate(SPR)
        bf16 = ParlooperGemm(2048, 2048, 2048, dtype=DType.BF16,
                             num_threads=112).simulate(SPR)
        assert 4.0 < f32.seconds / bf16.seconds <= 10.0

    def test_flat_b_conflicts_slow_bf16(self):
        # §V-A1: flat B with ld=4096 causes conflict misses; blocked
        # layout wins for the bandwidth-hungry BF16/AMX path
        blocked = ParlooperGemm(2048, 4096, 1024, dtype=DType.BF16,
                                num_threads=112).simulate(SPR)
        flat = ParlooperGemm(2048, 4096, 1024, dtype=DType.BF16,
                             flat_b=True, num_threads=112).simulate(SPR)
        assert flat.seconds > blocked.seconds

    def test_with_spec_changes_only_knob(self):
        g = ParlooperGemm(256, 256, 256, num_threads=4)
        g2 = g.with_spec("CBa", num_threads=8)
        assert g2.spec_string == "CBa"
        assert g2.M == g.M and g2.dtype == g.dtype
        a, b = rand(256, 256, seed=20), rand(256, 256, seed=21)
        assert np.allclose(g2.run_flat(a, b), a @ b, atol=1e-3)

    def test_flops_accounting(self):
        g = ParlooperGemm(128, 64, 64)
        assert g.flops == 2 * 128 * 64 * 64
