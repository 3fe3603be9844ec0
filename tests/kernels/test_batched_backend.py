"""Batched backend: interp-vs-batched differentials, iteration
enumeration, fallback gates, knob validation.

Integer-valued float32 tensors make results exact under any summation
order, so every numeric comparison here demands bit-identity
(``np.array_equal``) — the batched lowering's contract, not a tolerance.
"""

import numpy as np
import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.core.batched import (BACKENDS, batchable, enumerate_inds,
                                resolve_backend)
from repro.kernels.batched import batched_ok
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.kernels.spmm import ParlooperSpmm
from repro.obs import ObsConfig
from repro.platform import ADL, SPR
from repro.session import Session
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix

RNG = np.random.default_rng(0xBA7C)


def ints(shape):
    return RNG.integers(-2, 3, size=shape).astype(np.float32)


class TestBackendKnob:
    def test_resolve(self):
        assert resolve_backend("interp") == "interp"
        assert resolve_backend("batched") == "batched"
        assert set(BACKENDS) == {"interp", "batched"}

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("avx512")

    def test_kernel_ctor_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ParlooperGemm(64, 64, 64, 32, 32, 32, backend="bogus")

    def test_loop_swap_keeps_the_kernel_backend(self):
        """The backend belongs to the kernel: swapping in a new loop (as
        the fuzzer and the tuner do) keeps a batched kernel batched."""
        from repro.obs import MetricRegistry, ObsContext, use
        kern = ParlooperGemm(64, 64, 64, 16, 16, 16, num_threads=2,
                             backend="batched")
        kern.loop = ThreadedLoop(kern.loop.specs, "aBc", num_threads=2)
        assert kern.backend == "batched"
        a, b = ints((64, 64)), ints((64, 64))
        reg = MetricRegistry()
        with use(ObsContext(metrics=reg)):
            out = kern.run_flat(a, b)
        assert reg.value("batched_exec", kernel="gemm",
                         outcome="lowered") == 1
        assert np.array_equal(out, a @ b)

    def test_kernel_ctor_validates_abft(self):
        with pytest.raises(ValueError) as exc:
            ParlooperGemm(64, 64, 64, 32, 32, 32, abft="bogus")
        for mode in ("off", "detect", "correct"):
            assert mode in str(exc.value)


class TestEnumeration:
    """enumerate_inds reproduces the interpreter's emission order."""

    @pytest.mark.parametrize("spec,blocks", [
        ("bcaBCb", ((), (4, 2), (4,))),
        ("aBc", ((), (), ())),
        ("aBc @ schedule(dynamic,2)", ((), (), ())),
        ("aBc @ schedule(static,3)", ((), (), ())),
        ("bC{R:2}aB{C:2}cb", ((), (4, 2), (4,))),
    ])
    def test_matches_interpreter(self, spec, blocks):
        loop = ThreadedLoop(
            [LoopSpecs(0, 4, 1, blocks[0]),
             LoopSpecs(0, 8, 1, blocks[1]),
             LoopSpecs(0, 8, 1, blocks[2])],
            spec, num_threads=4)
        visited = []
        loop(lambda ind: visited.append(tuple(ind)))
        nt = loop.num_threads
        rows = np.concatenate(
            [enumerate_inds(loop.plan, nt, tid) for tid in range(nt)])
        assert [tuple(r) for r in rows] == visited


class TestGemmBatched:
    @pytest.mark.parametrize("spec,blocks", [
        ("bcaBCb", ((), (4, 2), (4,))),
        ("aBC", ((), (), ())),
        ("Abc", ((), (), ())),
    ])
    def test_bit_identical(self, spec, blocks):
        a, b = ints((128, 128)), ints((128, 128))
        kw = dict(k_step=2, spec_string=spec, num_threads=4,
                  block_steps=blocks)
        ref = ParlooperGemm(128, 128, 128, 16, 16, 16, **kw)
        bat = ParlooperGemm(128, 128, 128, 16, 16, 16, backend="batched",
                            **kw)
        assert np.array_equal(ref.run_flat(a, b), bat.run_flat(a, b))

    def test_bias_relu_epilogue(self):
        a, b = ints((64, 64)), ints((64, 64))
        bias = ints((64,))
        kw = dict(k_step=1, num_threads=2, activation="relu", bias=True)
        ref = ParlooperGemm(64, 64, 64, 32, 32, 32, **kw)
        bat = ParlooperGemm(64, 64, 64, 32, 32, 32, backend="batched", **kw)
        assert np.array_equal(ref.run_flat(a, b, bias),
                              bat.run_flat(a, b, bias))

    def test_bf16_bit_identical(self):
        # real floats: BF16 rounding must round-trip identically too
        a = RNG.standard_normal((64, 64)).astype(np.float32)
        b = RNG.standard_normal((64, 64)).astype(np.float32)
        kw = dict(k_step=1, num_threads=2, dtype=DType.BF16)
        ref = ParlooperGemm(64, 64, 64, 32, 32, 32, **kw)
        bat = ParlooperGemm(64, 64, 64, 32, 32, 32, backend="batched", **kw)
        assert np.array_equal(ref.run_flat(a, b), bat.run_flat(a, b))


class TestConvBatched:
    CS = ConvSpec(N=2, C=32, K=32, H=6, W=6)

    def _pair(self, **kw):
        base = dict(bc=16, bk=16, w_step=2, num_threads=4)
        base.update(kw)
        return (ParlooperConv(self.CS, **base),
                ParlooperConv(self.CS, backend="batched", **base))

    @pytest.mark.parametrize("spec", ["ACbdefg", "Abcdefg",
                                      "abcdefg"])
    def test_bit_identical(self, spec):
        x = ints((self.CS.N, self.CS.C, self.CS.H, self.CS.W))
        wt = ints((self.CS.K, self.CS.C, self.CS.R, self.CS.S))
        ref, bat = self._pair(spec_string=spec)
        assert np.array_equal(ref.run(x, wt), bat.run(x, wt))


class TestSpmmBatched:
    def _amat(self):
        dense = ints((128, 128))
        # knock out whole 16x16 blocks so block rows have ragged nnz
        for (i, k) in [(0, 1), (0, 3), (2, 0), (2, 2), (5, 5), (7, 0),
                       (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
                       (7, 7)]:
            dense[i * 16:(i + 1) * 16, k * 16:(k + 1) * 16] = 0.0
        return BCSCMatrix.from_dense(dense, 16, 16)

    @pytest.mark.parametrize("spec", ["Ab", "aB", "AB"])
    def test_bit_identical(self, spec):
        amat = self._amat()
        b = ints((128, 64))
        ref = ParlooperSpmm(amat, 64, bn=16, spec_string=spec,
                            num_threads=4)
        bat = ParlooperSpmm(amat, 64, bn=16, spec_string=spec,
                            num_threads=4, backend="batched")
        assert np.array_equal(ref.run(b), bat.run(b))


class TestMlpBatched:
    def test_forward_bit_identical(self):
        x = ints((64, 64))
        kw = dict(bm=16, bn=16, bk=16)
        ref = ParlooperMlp([64, 64, 64], 64, **kw)
        bat = ParlooperMlp([64, 64, 64], 64, backend="batched", **kw)
        assert np.array_equal(ref.forward(x), bat.forward(x))

    def test_bf16_forward_bit_identical(self):
        x = RNG.standard_normal((64, 64)).astype(np.float32)
        kw = dict(bm=16, bn=16, bk=16, dtype=DType.BF16)
        ref = ParlooperMlp([64, 64, 64], 64, **kw)
        bat = ParlooperMlp([64, 64, 64], 64, backend="batched", **kw)
        assert np.array_equal(ref.forward(x), bat.forward(x))


def _sparse_a():
    dense = np.ones((64, 64), dtype=np.float32)
    dense[:16, 16:32] = dense[32:48, :16] = 0.0
    return BCSCMatrix.from_dense(dense, 16, 16)


#: name -> ``backend -> kernel`` factory, one per family variant whose
#: simulated numbers must not depend on the backend
SIM_KERNELS = {
    "gemm": lambda be: ParlooperGemm(
        128, 128, 128, 16, 16, 16, k_step=2, spec_string="bcaBCb",
        num_threads=4, block_steps=((), (4, 2), (4,)), backend=be),
    "gemm-bias-relu": lambda be: ParlooperGemm(
        64, 64, 64, 16, 16, 16, k_step=2, num_threads=4,
        activation="relu", bias=True, backend=be),
    "gemm-dynamic": lambda be: ParlooperGemm(
        64, 64, 64, 16, 16, 16, k_step=2,
        spec_string="aBc @ schedule(dynamic)", num_threads=4, backend=be),
    "conv": lambda be: ParlooperConv(
        ConvSpec(N=2, C=32, K=32, H=6, W=6), bc=16, bk=16, w_step=2,
        num_threads=4, backend=be),
    "spmm": lambda be: ParlooperSpmm(_sparse_a(), 64, bn=16,
                                     num_threads=4, backend=be),
    "mlp": lambda be: ParlooperMlp([64, 64, 64], 64, bm=16, bn=16, bk=16,
                                   num_threads=4, backend=be),
}


class TestSimulatedNumbers:
    """The backend only changes how a kernel executes: ``simulate`` and
    ``predict`` see the same interpreted ``sim_body`` traces either way.
    Each kernel runs in a fresh session so neither backend reads the
    other's cached traces."""

    @pytest.mark.parametrize("machine", [SPR, ADL], ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(SIM_KERNELS))
    def test_backend_never_changes_results(self, name, machine):
        results = {}
        for be in BACKENDS:
            kern = SIM_KERNELS[name](be)
            sess = Session(obs=ObsConfig.disabled())
            results[be] = (kern.simulate(machine, session=sess),
                           kern.predict(machine, session=sess))
        assert results["batched"] == results["interp"]


class TestFallbackGates:
    def test_flat_b_gemm_falls_back_and_matches(self):
        a, b = ints((64, 64)), ints((64, 64))
        kw = dict(k_step=1, num_threads=2, flat_b=True)
        bat = ParlooperGemm(64, 64, 64, 32, 32, 32, backend="batched", **kw)
        ok, reason = batched_ok(bat)
        assert not ok and "flat-B" in reason
        ref = ParlooperGemm(64, 64, 64, 32, 32, 32, **kw)
        assert np.array_equal(ref.run_flat(a, b), bat.run_flat(a, b))

    def test_vnni_spmm_gate(self):
        dense = ints((64, 64))
        amat = BCSCMatrix.from_dense(dense, 16, 16)
        bat = ParlooperSpmm(amat, 64, bn=16, dtype=DType.BF16, b_vnni=2,
                            num_threads=2, backend="batched")
        ok, reason = batched_ok(bat)
        assert not ok and "VNNI" in reason

    def test_barrier_plan_not_batchable(self):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)],
                            "A|b", num_threads=2, execution="threads")
        ok, reason = batchable(loop.plan, 2, "threads")
        assert not ok and "barrier" in reason
        # ... but a single thread cannot interleave with itself
        ok, _ = batchable(loop.plan, 1, "threads")
        assert ok

    def test_dynamic_under_threads_not_batchable(self):
        loop = ThreadedLoop([LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)],
                            "AB @ schedule(dynamic)", num_threads=2,
                            execution="threads")
        ok, reason = batchable(loop.plan, 2, "threads")
        assert not ok and "dynamic" in reason
        # serial emulation is deterministic: same plan batches fine
        ok, _ = batchable(loop.plan, 2, "serial")
        assert ok

    def test_serial_dynamic_is_fcfs(self):
        # serial emulation runs threads to completion in tid order, so
        # thread 0 claims every dynamic chunk — the enumeration must too
        loop = ThreadedLoop([LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)],
                            "AB @ schedule(dynamic,3)", num_threads=4)
        assert enumerate_inds(loop.plan, 4, 0).shape[0] == 64
        for tid in range(1, 4):
            assert enumerate_inds(loop.plan, 4, tid).shape[0] == 0
