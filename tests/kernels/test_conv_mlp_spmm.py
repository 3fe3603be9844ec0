"""Functional + simulation tests for conv, MLP and Block-SpMM kernels."""

import numpy as np
import pytest

from repro.kernels import (ConvSpec, ParlooperConv, ParlooperMlp,
                           ParlooperSpmm)
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.tpp import BCSCMatrix
from repro.tpp.dtypes import DType
from repro.verify import verify_nest


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def naive_conv(x, wt, stride=1):
    n, c, h, w = x.shape
    k, _, r, s = wt.shape
    p = (h - r) // stride + 1
    q = (w - s) // stride + 1
    out = np.zeros((n, k, p, q), dtype=np.float32)
    for rr in range(r):
        for ss in range(s):
            patch = x[:, :, rr:rr + stride * p:stride,
                      ss:ss + stride * q:stride]
            out += np.einsum("nchw,kc->nkhw", patch, wt[:, :, rr, ss])
    return out


class TestConvFunctional:
    def test_3x3_matches_naive(self):
        spec = ConvSpec(N=2, C=64, K=64, H=10, W=10, R=3, S=3)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=4, num_threads=2)
        x, wt = rand(2, 64, 10, 10, seed=1), rand(64, 64, 3, 3, seed=2)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt), atol=1e-3)

    def test_nest_verifies_race_free(self):
        spec = ConvSpec(N=2, C=64, K=64, H=10, W=10, R=3, S=3)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=4, num_threads=2)
        verify_nest(conv.loop, conv.sim_body(SPR))

    def test_1x1_conv(self):
        spec = ConvSpec(N=1, C=64, K=128, H=8, W=8, R=1, S=1)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=8, num_threads=1)
        x, wt = rand(1, 64, 8, 8, seed=3), rand(128, 64, 1, 1, seed=4)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt), atol=1e-3)

    def test_strided_conv(self):
        spec = ConvSpec(N=1, C=64, K=64, H=9, W=9, R=3, S=3, stride=2)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=2, num_threads=1)
        x, wt = rand(1, 64, 9, 9, seed=5), rand(64, 64, 3, 3, seed=6)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt, 2), atol=1e-3)

    def test_multiple_channel_blocks(self):
        spec = ConvSpec(N=1, C=128, K=128, H=6, W=6, R=3, S=3)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=4, num_threads=2)
        x, wt = rand(1, 128, 6, 6, seed=7), rand(128, 128, 3, 3, seed=8)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt), atol=1e-3)

    def test_c_step_folds_channel_blocks(self):
        spec = ConvSpec(N=1, C=128, K=64, H=6, W=6, R=3, S=3)
        conv = ParlooperConv(spec, bc=64, bk=64, w_step=4, c_step=2,
                             num_threads=1)
        x, wt = rand(1, 128, 6, 6, seed=9), rand(64, 128, 3, 3, seed=10)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt), atol=1e-3)

    @pytest.mark.parametrize("spec_str", ["ACbdefg", "CAdbefg",
                                          "ACbdefg @ schedule(dynamic, 1)"])
    def test_spec_strings_equivalent(self, spec_str):
        spec = ConvSpec(N=2, C=64, K=64, H=8, W=8, R=3, S=3)
        conv = ParlooperConv(spec, w_step=3, spec_string=spec_str,
                             num_threads=2)
        x, wt = rand(2, 64, 8, 8, seed=11), rand(64, 64, 3, 3, seed=12)
        assert np.allclose(conv.run(x, wt), naive_conv(x, wt), atol=1e-3)

    def test_conv_spec_dims(self):
        spec = ConvSpec(N=1, C=64, K=64, H=9, W=9, R=3, S=3, stride=2)
        assert spec.P == 4 and spec.Q == 4
        assert spec.flops == 2 * 1 * 64 * 64 * 4 * 4 * 9

    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            ParlooperConv(ConvSpec(N=1, C=60, K=64, H=8, W=8), bc=64, bk=64)


class TestConvSimulation:
    def test_simulate_plausible(self):
        spec = ConvSpec(N=16, C=128, K=128, H=16, W=16, R=3, S=3)
        conv = ParlooperConv(spec, w_step=14, num_threads=16)
        r = conv.simulate(ZEN4)
        assert 0.1 * ZEN4.peak_gflops(DType.F32) < r.gflops \
            <= ZEN4.peak_gflops(DType.F32)

    def test_dynamic_schedule_helps_hybrid_adl(self):
        spec = ConvSpec(N=1, C=128, K=128, H=16, W=16, R=3, S=3)
        static = ParlooperConv(spec, w_step=14, spec_string="CAbdefg",
                               num_threads=16)
        dynamic = ParlooperConv(spec, w_step=14,
                                spec_string="CAbdefg @ schedule(dynamic, 1)",
                                num_threads=16)
        assert dynamic.simulate(ADL).seconds < static.simulate(ADL).seconds


class TestMlp:
    def test_forward_matches_reference(self):
        mlp = ParlooperMlp([128, 128, 128], 64, bm=32, bn=32, bk=32,
                           num_threads=2)
        x = rand(128, 64, seed=13)
        y = mlp.forward(x)
        act = x
        for w, bi in zip(mlp.weights, mlp.biases):
            mb, kb, bm, bk = w.shape
            wf = w.transpose(0, 2, 1, 3).reshape(mb * bm, kb * bk)
            act = np.maximum(wf @ act + bi.reshape(-1, 1), 0)
        assert np.allclose(y, act, atol=1e-3)

    def test_nest_verifies_race_free(self):
        mlp = ParlooperMlp([128, 128], 64, bm=32, bn=32, bk=32,
                           num_threads=2)
        g = mlp.layers[0].gemm
        verify_nest(g.loop, g.sim_body(SPR))

    @pytest.mark.parametrize("activation", ["relu", "none"])
    def test_bias_free_layers_charge_like_their_gemm(self, activation):
        # without a bias the epilogue costs 1 flop/elem (or is absent);
        # a layer's simulator body must charge exactly what its GEMM does
        mlp = ParlooperMlp([128, 128], 64, bm=32, bn=32, bk=32,
                           num_threads=2, activation=activation, bias=False)
        g = mlp.layers[0].gemm
        last = (g.Kb - g.k_step, 0, 0)
        assert [e.flops for e in mlp._layer_sim_body(0, SPR)(last)] == \
            [e.flops for e in g.sim_body(SPR)(last)]

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            ParlooperMlp([128], 64)

    def test_needs_bm_equal_to_bk(self):
        # layer l's bm-row output blocks are layer l+1's bk-row inputs
        with pytest.raises(ValueError, match="bm=64, bk=32"):
            ParlooperMlp([128, 128, 128], 64, bm=64, bk=32)

    def test_flops_sum_layers(self):
        mlp = ParlooperMlp([128, 256, 128], 64, bm=32, bn=32, bk=32,
                           num_threads=1)
        assert mlp.flops == 2 * 64 * (128 * 256 + 256 * 128)

    def test_spr_efficiency_capped_by_llc(self):
        # Fig 3: SPR BF16 MLP efficiency saturates well below peak due to
        # LLC-bandwidth-bound activation handoff; GVT3/Zen4 run near peak
        mlp_spr = ParlooperMlp([2048] * 4, 512, dtype=DType.BF16,
                               num_threads=112)
        mlp_zen = ParlooperMlp([2048] * 4, 512, dtype=DType.BF16,
                               num_threads=16)
        eff_spr = mlp_spr.efficiency(SPR)
        eff_zen = mlp_zen.efficiency(ZEN4)
        assert eff_spr < 0.6
        assert eff_zen > 0.55
        assert eff_zen > eff_spr

    def test_spr_still_fastest_absolute(self):
        # Fig 3: despite the lower efficiency SPR is 3-7x faster absolute
        mlp_spr = ParlooperMlp([2048] * 4, 512, dtype=DType.BF16,
                               num_threads=112)
        mlp_gvt = ParlooperMlp([2048] * 4, 512, dtype=DType.BF16,
                               num_threads=64)
        t_spr = mlp_spr.simulate(SPR).seconds
        t_gvt = mlp_gvt.simulate(GVT3).seconds
        assert 1.5 < t_gvt / t_spr < 8.0


def block_sparse(m, k, bm, bk, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    mask = rng.random((m // bm, k // bk)) >= sparsity
    return (a.reshape(m // bm, bm, k // bk, bk)
            * mask[:, None, :, None]).reshape(m, k)


class TestSpmm:
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
    def test_matches_dense(self, sparsity):
        a = block_sparse(128, 128, 8, 8, sparsity, seed=14)
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 8, 8), 64, bn=32,
                           num_threads=2)
        b = rand(128, 64, seed=15)
        assert np.allclose(sp.run(b), a @ b, atol=1e-3)

    def test_nest_verifies_race_free(self):
        a = block_sparse(128, 128, 8, 8, 0.5, seed=14)
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 8, 8), 64, bn=32,
                           num_threads=2)
        verify_nest(sp.loop, sp.sim_body(SPR))

    def test_vnni_packed_path(self):
        a = block_sparse(64, 64, 8, 8, 0.5, seed=16)
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 8, 8), 64, bn=32,
                           b_vnni=2, num_threads=2)
        b = rand(64, 64, seed=17)
        assert np.allclose(sp.run(b), a @ b, atol=1e-3)

    def test_effective_vs_actual_flops(self):
        a = block_sparse(128, 128, 8, 8, 0.75, seed=18)
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 8, 8), 64)
        assert sp.actual_flops < sp.effective_flops
        density = sp.a.density
        assert sp.actual_flops == pytest.approx(
            sp.effective_flops * density)

    def test_sparsity_speeds_up_simulation(self):
        # Fig 8: higher sparsity -> higher effective GFLOPS (same block)
        b32_50 = ParlooperSpmm(BCSCMatrix.from_dense(
            block_sparse(1024, 1024, 32, 32, 0.5, seed=19), 32, 32),
            1024, dtype=DType.BF16, num_threads=16)
        b32_90 = ParlooperSpmm(BCSCMatrix.from_dense(
            block_sparse(1024, 1024, 32, 32, 0.9, seed=19), 32, 32),
            1024, dtype=DType.BF16, num_threads=16)
        assert b32_90.effective_gflops(SPR) > b32_50.effective_gflops(SPR)

    def test_amx_small_block_penalty(self):
        # Fig 8: 4x4 blocks cap at 12.5% of AMX peak; 32x32 reach it
        small = ParlooperSpmm(BCSCMatrix.from_dense(
            block_sparse(512, 512, 4, 4, 0.5, seed=20), 4, 4),
            512, dtype=DType.BF16, num_threads=8)
        big = ParlooperSpmm(BCSCMatrix.from_dense(
            block_sparse(512, 512, 32, 32, 0.5, seed=20), 32, 32),
            512, dtype=DType.BF16, num_threads=8)
        assert big.effective_gflops(SPR) > 2 * small.effective_gflops(SPR)

    @pytest.mark.parametrize("backend", ["interp", "batched"])
    def test_empty_block_row_writes_zero_c(self, backend):
        """Both executors store a zero C block for an empty block row
        (beta = 0), so the simulator charges that write: zero flops, one
        C write and no reads."""
        a = np.ones((64, 64), dtype=np.float32)
        a[16:32, :] = 0.0
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 16, 16), 64, bn=16,
                           num_threads=2, backend=backend)
        c = np.full((64, 64), 7.0, dtype=np.float32)
        sp(sp.pack_b(rand(64, 64, seed=21)), c)
        assert not c[16:32].any()
        ev = sp.sim_body(SPR)([1, 0])
        assert ev.flops == 0.0
        assert [(acc.key, acc.write) for acc in ev.accesses] == \
            [(("C", 1, 0), True)]

    def test_b_shape_validated(self):
        a = block_sparse(64, 64, 8, 8, 0.5)
        sp = ParlooperSpmm(BCSCMatrix.from_dense(a, 8, 8), 64)
        with pytest.raises(ValueError):
            sp.pack_b(rand(32, 64))
