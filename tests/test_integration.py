"""Cross-module integration tests: the full pipeline from declaration to
tuned, simulated, numerically-validated kernels."""

import numpy as np
import pytest

from repro import (DType, LoopSpecs, ParlooperGemm, SPR, ThreadedLoop,
                   TuningConstraints, ZEN4, predict, simulate)
from repro.simulator import brgemm_event
from repro.tuner import (engine_evaluator, generate_candidates,
                         perfmodel_evaluator, search)


class TestTuneThenRun:
    """The paper's workflow: declare -> tune offline -> deploy the knob."""

    def test_tuned_spec_is_functionally_identical(self):
        M = N = K = 256
        bm = bn = bk = 32
        Kb, Mb, Nb = K // bk, M // bm, N // bn
        specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1),
                 LoopSpecs(0, Nb, 1)]
        cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                                 parallelizable=frozenset({"b", "c"}),
                                 max_candidates=16)
        cands = generate_candidates(specs, cons)

        def body(ind):
            ik, im, inn = ind
            return brgemm_event(ZEN4, DType.F32, bm, bn, bk, Kb,
                                [("A", im, k) for k in range(Kb)],
                                [("B", inn, k) for k in range(Kb)],
                                ("C", inn, im), beta=1.0,
                                c_first_touch=True)

        res = search(cands, perfmodel_evaluator(
            specs, body, ZEN4, num_threads=8, total_flops=2.0 * M * N * K))
        best = res.best.candidate

        kernel = ParlooperGemm(M, N, K, bm, bn, bk,
                               spec_string=best.spec_string,
                               block_steps=best.block_steps, num_threads=8)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((M, K)).astype(np.float32)
        b = rng.standard_normal((K, N)).astype(np.float32)
        assert np.allclose(kernel.run_flat(a, b), a @ b, atol=1e-3)

    def test_model_and_engine_agree_on_ordering(self):
        # the tuner's cheap model and the measurement engine must agree
        # about good-vs-starved schedules (the Fig 6 property)
        M = N = K = 1024
        Kb = 16
        specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, 16, 1, [4]),
                 LoopSpecs(0, 16, 1, [4])]

        def body(ind):
            ik, im, inn = ind
            return brgemm_event(SPR, DType.BF16, 64, 64, 64, Kb,
                                [("A", im, k) for k in range(Kb)],
                                [("B", inn, k) for k in range(Kb)],
                                ("C", inn, im), beta=1.0,
                                c_first_touch=True)

        good = ThreadedLoop(specs, "aBC", num_threads=64)
        starved = ThreadedLoop(specs, "aBbc", num_threads=64)
        m_good = predict(good, body, SPR, sample_threads=4,
                         total_flops=2.0 * M * N * K)
        m_starved = predict(starved, body, SPR, sample_threads=4,
                            total_flops=2.0 * M * N * K)
        e_good = simulate(good, body, SPR)
        e_starved = simulate(starved, body, SPR)
        assert m_good.score > m_starved.score
        assert e_good.gflops > e_starved.gflops

    def test_engine_evaluator_end_to_end(self):
        specs = [LoopSpecs(0, 4, 4), LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)]
        cons = TuningConstraints(max_occurrences={"a": 1, "b": 1, "c": 1},
                                 parallelizable=frozenset({"b", "c"}),
                                 max_candidates=8)
        cands = generate_candidates(specs, cons)

        def body(ind):
            ik, im, inn = ind
            return brgemm_event(ZEN4, DType.F32, 64, 64, 64, 4,
                                [("A", im, k) for k in range(4)],
                                [("B", inn, k) for k in range(4)],
                                ("C", inn, im), beta=1.0,
                                c_first_touch=True)

        res = search(cands, engine_evaluator(specs, body, ZEN4,
                                             num_threads=8), top_k=3)
        assert len(res.outcomes) == 3
        assert res.best.score >= res.outcomes[-1].score


class TestPrecisionEndToEnd:
    def test_bf16_kernel_bits_are_bf16(self):
        from repro.tpp.dtypes import is_bf16_representable
        g = ParlooperGemm(64, 64, 64, 32, 32, 32, dtype=DType.BF16,
                          num_threads=2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 64)).astype(np.float32)
        A, B, C = g.pack_a(a), g.pack_b(a), g.alloc_c()
        assert is_bf16_representable(A) and is_bf16_representable(B)
        g(A, B, C)
        assert is_bf16_representable(C)

    def test_same_spec_same_bits(self):
        # determinism: identical runs produce identical bits
        g = ParlooperGemm(128, 128, 128, 32, 32, 32, dtype=DType.BF16,
                          num_threads=4)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((128, 128)).astype(np.float32)
        c1 = g.run_flat(a, a)
        c2 = g.run_flat(a, a)
        assert np.array_equal(c1, c2)

    def test_different_specs_same_bits(self):
        # every instantiation performs the same reduction order per C
        # block (K ascending), so results are bit-identical across specs
        rng = np.random.default_rng(3)
        a = rng.standard_normal((128, 128)).astype(np.float32)
        outs = []
        for spec in ("aBC", "Cba", "bcaBCb"):
            blocks = ((), (2, 1), (2,)) if spec == "bcaBCb" else ((), (), ())
            g = ParlooperGemm(128, 128, 128, 32, 32, 32, dtype=DType.BF16,
                              spec_string=spec, block_steps=blocks,
                              num_threads=4)
            outs.append(g.run_flat(a, a))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
