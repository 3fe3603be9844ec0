"""Behavioural tests for the simulation engine and the Box-B3 perf model.

These check *mechanisms*, not absolute numbers: blocking improves locality,
parallelism scales, bad schedules score worse, hybrid cores balance under
dynamic scheduling, bandwidth floors bind memory-bound kernels.
"""

import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.platform import ADL, GVT3, SPR, ZEN4, restrict_cores
from repro.simulator import (bandwidth_event, brgemm_event, predict,
                             simulate, simulate_flat, trace_flat)
from repro.tpp.dtypes import DType


def gemm_loop(spec, Mb, Nb, Kb, nthreads, block_m=None, block_n=None):
    return ThreadedLoop([
        LoopSpecs(0, Kb, Kb),
        LoopSpecs(0, Mb, 1, [block_m] if block_m else []),
        LoopSpecs(0, Nb, 1, [block_n] if block_n else []),
    ], spec, num_threads=nthreads)


def gemm_body(machine, dtype, Kb, bm=64, bn=64, bk=64):
    def sim_body(ind):
        ik, im, inn = ind
        return brgemm_event(machine, dtype, bm, bn, bk, Kb,
                            [("A", im, k) for k in range(Kb)],
                            [("B", inn, k) for k in range(Kb)],
                            ("C", inn, im), beta=1.0,
                            c_first_touch=(ik == 0))
    return sim_body


class TestEngineMechanisms:
    def test_gemm_near_peak_fp32(self):
        loop = gemm_loop("aBC", 32, 32, 32, ZEN4.total_cores)
        r = simulate(loop, gemm_body(ZEN4, DType.F32, 32), ZEN4)
        assert r.gflops > 0.85 * ZEN4.peak_gflops(DType.F32)

    def test_bf16_faster_than_fp32_everywhere(self):
        for machine in (SPR, GVT3, ZEN4):
            loop = gemm_loop("aBC", 32, 32, 32, machine.total_cores)
            f32 = simulate(loop, gemm_body(machine, DType.F32, 32), machine)
            bf16 = simulate(loop, gemm_body(machine, DType.BF16, 32), machine)
            assert bf16.seconds < f32.seconds, machine.name

    def test_spr_bf16_speedup_band(self):
        # paper §V-A1: BF16+AMX up to ~9x over FP32 on SPR
        loop = gemm_loop("aBC", 32, 32, 32, SPR.total_cores)
        f32 = simulate(loop, gemm_body(SPR, DType.F32, 32), SPR)
        bf16 = simulate(loop, gemm_body(SPR, DType.BF16, 32), SPR)
        ratio = f32.seconds / bf16.seconds
        assert 5.0 < ratio <= 10.0

    def test_poor_concurrency_is_slower(self):
        # parallelizing a 4-trip loop over 112 threads starves 108 of them
        good = gemm_loop("aBC", 32, 32, 32, SPR.total_cores)
        starved = ThreadedLoop([
            LoopSpecs(0, 32, 32),
            LoopSpecs(0, 32, 1, [8]),
            LoopSpecs(0, 32, 1),
        ], "aBbc", num_threads=SPR.total_cores)
        body = gemm_body(SPR, DType.F32, 32)
        assert simulate(starved, body, SPR).seconds > \
            2 * simulate(good, body, SPR).seconds

    def test_more_threads_scale(self):
        body = gemm_body(ZEN4, DType.F32, 32)
        t4 = simulate(gemm_loop("aBC", 32, 32, 32, 4), body, ZEN4).seconds
        t16 = simulate(gemm_loop("aBC", 32, 32, 32, 16), body, ZEN4).seconds
        assert t16 < t4 / 2.5

    def test_remote_written_lines_counted(self):
        # producer/consumer across threads: thread writes C blocks, then a
        # second kernel reads them with a different partitioning
        Mb = 16
        loop1 = ThreadedLoop([LoopSpecs(0, Mb, 1)], "A", num_threads=4)
        loop2 = ThreadedLoop([LoopSpecs(0, Mb, 1)], "A", num_threads=4)
        from repro.simulator import Access, BodyEvent, compile_trace
        from repro.simulator.engine import (simulate_traces,
                                            simulate_traces_lru)
        from repro.simulator.trace import trace_threaded_loop

        def writer(ind):
            return BodyEvent((Access(("T", ind[0]), 1 << 20, write=True),),
                             flops=1, flops_per_cycle=1)

        def reader(ind):
            # shifted partition: thread reads blocks written by another
            return BodyEvent((Access(("T", (ind[0] + 8) % Mb), 1 << 20),),
                             flops=1, flops_per_cycle=1)

        tr = trace_threaded_loop(loop1, writer)
        tr2 = trace_threaded_loop(loop2, reader)
        for t, t2 in zip(tr, tr2):
            t.events.extend(t2.events)
        r = simulate_traces_lru(tr, SPR)
        assert r.remote_hits > 0
        assert simulate_traces([compile_trace(t) for t in tr], SPR) == r

    def test_memory_bound_kernel_hits_dram_floor(self):
        # streaming 8 GiB through a 96 GB/s DRAM cannot beat ~87 ms
        n_blocks = 256
        loop = ThreadedLoop([LoopSpecs(0, n_blocks, 1)], "A",
                            num_threads=ZEN4.total_cores)

        def stream(ind):
            return bandwidth_event(("W", ind[0]), 32 << 20)

        r = simulate(loop, stream, ZEN4)
        gib = n_blocks * (32 << 20)
        assert r.seconds >= gib / (ZEN4.dram_bw_gbytes * 1e9) * 0.99

    def test_dispatch_overhead_visible_on_tiny_kernels(self):
        loop = ThreadedLoop([LoopSpecs(0, 1, 1)], "A", num_threads=1)

        def tiny(ind):
            return bandwidth_event(("x",), 64)

        with_oh = simulate(loop, tiny, SPR, dispatch_overhead=True)
        without = simulate(loop, tiny, SPR, dispatch_overhead=False)
        assert with_oh.seconds > without.seconds


class TestHybridScheduling:
    def test_dynamic_beats_static_on_adl(self):
        # Fig 7 / §V-A4: dynamic scheduling accounts for core heterogeneity
        Mb = Nb = 16
        static = gemm_loop("aBC", Mb, Nb, 8, ADL.total_cores)
        dynamic = ThreadedLoop([
            LoopSpecs(0, 8, 8), LoopSpecs(0, Mb, 1), LoopSpecs(0, Nb, 1),
        ], "aBC @ schedule(dynamic, 1)", num_threads=ADL.total_cores)
        body = gemm_body(ADL, DType.F32, 8, bm=32, bn=32, bk=32)
        t_static = simulate(static, body, ADL).seconds
        t_dynamic = simulate(dynamic, body, ADL).seconds
        assert t_dynamic < t_static

    def test_p_cores_absorb_more_work(self):
        loop = ThreadedLoop([LoopSpecs(0, 64, 1)],
                            "A @ schedule(dynamic, 1)",
                            num_threads=ADL.total_cores)
        body = gemm_body(ADL, DType.F32, 4, bm=32, bn=32, bk=32)

        def one(ind):
            return brgemm_event(ADL, DType.F32, 32, 32, 32, 4,
                                [("A", ind[0], k) for k in range(4)],
                                [("B", ind[0], k) for k in range(4)],
                                ("C", ind[0]), beta=0.0)

        flat = trace_flat(loop, one)
        r = simulate_flat(flat, ADL, ADL.total_cores)
        p_time = max(r.per_thread_seconds[:8])
        e_time = max(r.per_thread_seconds[8:])
        # greedy balancing: finish times roughly equal despite 2.6x speed gap
        assert abs(p_time - e_time) / max(p_time, e_time) < 0.35


class TestPerfModel:
    def test_model_ranks_concurrency(self):
        body = gemm_body(SPR, DType.F32, 32)
        good = predict(gemm_loop("aBC", 32, 32, 32, 112), body, SPR,
                       sample_threads=8)
        starved = predict(
            ThreadedLoop([LoopSpecs(0, 32, 32), LoopSpecs(0, 32, 1, [8]),
                          LoopSpecs(0, 32, 1)], "aBbc", num_threads=112),
            body, SPR, sample_threads=8)
        assert good.score > starved.score

    def test_model_ranks_locality(self):
        # K-innermost (C stays hot) vs a C-thrashing order.  BF16 on SPR:
        # AMX outruns the cache hierarchy, so locality is binding (the
        # same contrast is invisible for compute-bound FP32 — correctly).
        def body(ind):
            ik, im, inn = ind
            return brgemm_event(SPR, DType.BF16, 64, 64, 64, 1,
                                [("A", im, ik)], [("B", inn, ik)],
                                ("C", inn, im), beta=1.0,
                                c_first_touch=(ik == 0))

        spec_good = ThreadedLoop(
            [LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1)],
            "BCa", num_threads=16)   # K innermost: C stays in registers/L1
        spec_bad = ThreadedLoop(
            [LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1)],
            "ABc", num_threads=16)   # A parallel + K outer: C re-read Kb x
        p_good = predict(spec_good, body, SPR, sample_threads=4)
        p_bad = predict(spec_bad, body, SPR, sample_threads=4)
        assert p_good.score > p_bad.score

    def test_sampling_approximates_full(self):
        body = gemm_body(SPR, DType.F32, 16)
        loop = gemm_loop("aBC", 16, 16, 16, 16)
        full = predict(loop, body, SPR)
        sampled = predict(loop, body, SPR, sample_threads=4)
        assert sampled.seconds == pytest.approx(full.seconds, rel=0.3)

    def test_prediction_fields(self):
        body = gemm_body(ZEN4, DType.F32, 8)
        p = predict(gemm_loop("aBC", 8, 8, 8, 4), body, ZEN4)
        assert p.seconds > 0
        assert p.total_flops == 2 * 512**3
        assert abs(sum(p.hit_fractions) - 1.0) < 1e-6
        assert p.gflops == p.score

    @pytest.mark.parametrize("sample_threads", [0, -1])
    def test_sample_threads_must_be_positive(self, sample_threads):
        body = gemm_body(ZEN4, DType.F32, 8)
        loop = gemm_loop("aBC", 8, 8, 8, 4)
        with pytest.raises(ValueError,
                           match=f"sample_threads.*got {sample_threads}"):
            predict(loop, body, ZEN4, sample_threads=sample_threads)
