"""Memoized step pricing and the allocation-free serve step loop.

The memo caches partial sums per batch *shape signature*; the decode
KV-bandwidth term is recomputed every call.  Correctness bar: a warmed
model must return bit-equal prices to a fresh one for every call — the
memo may never change a float.
"""

import numpy as np
import pytest

from repro.obs import ObsConfig
from repro.platform import ALL_PLATFORMS, SPR
from repro.serve import ServeCostModel, ServeSimulator, TrafficGenerator
from repro.session import Session
from repro.tpp.dtypes import DType
from repro.workloads import GPTJ_6B, LlmConfig

TINY = LlmConfig("tiny", layers=2, hidden=256, heads=8, intermediate=512,
                 vocab=4096)

#: a mixed-step call sequence exercising prefill chunks, decode, and
#: repeated signatures with drifting decode contexts
CALLS = [
    (((96, 0),), [], 1),
    (((96, 0),), [], 1),                      # repeat: memo hit
    (((64, 32), (128, 0)), [100, 200], 2),
    (((64, 32), (128, 0)), [101, 201], 2),    # same sig, drifted KV
    ((), [50] * 16, 16),
    ((), [51] * 16, 16),
    ((), [], 0),                              # empty batch
]


def _fresh():
    return ServeCostModel.for_stack(TINY, SPR)


class TestStepPriceMemo:
    def test_bit_equal_to_fresh_model(self):
        warmed = _fresh()
        for chunks, contexts, n_emit in CALLS * 2:   # second lap all hits
            assert warmed.step_seconds(chunks, contexts, n_emit) \
                == _fresh().step_seconds(chunks, contexts, n_emit)

    def test_kv_stream_repriced_per_call(self):
        m = _fresh()
        a = m.step_seconds((), [256] * 4, 4)
        b = m.step_seconds((), [512] * 4, 4)     # same sig, longer KV
        assert b > a

    def test_hit_miss_counters(self):
        sess = Session(machine=SPR, obs=ObsConfig(clock="tick"))
        with sess.activate():
            m = _fresh()
            m.step_seconds(((96, 0),), [10], 1)
            m.step_seconds(((96, 0),), [11], 1)
            m.step_seconds(((32, 0),), [10], 1)
        snap = sess.metrics.snapshot()
        assert snap['serve_price_cache{kind="miss"}'] == 2
        assert snap['serve_price_cache{kind="hit"}'] == 1

    @pytest.mark.parametrize("machine,dtype", [
        (name, dt) for name in sorted(ALL_PLATFORMS)
        for dt in (DType.BF16, DType.F32)
        if ALL_PLATFORMS[name].supports(dt)])
    def test_decode_step_price_identity(self, machine, dtype):
        """A decode step prices as the sum of its terms, each from the
        cost model's own primitives, on a miss and on a hit: the KV
        stream streams cfg.kv_bytes(n, dt) through bandwidth_seconds.
        GPT-J's KV bytes per token (458,752 in BF16) and 63 contexts'
        258,048 positions are no powers of two, so a reassociated
        product would show.  Machines with no contraction ISA for a
        dtype cannot price it."""
        cfg, dt = GPTJ_6B, dtype
        m = ServeCostModel.for_stack(cfg, ALL_PLATFORMS[machine], dtype=dt)
        h, i, L = cfg.hidden, cfg.intermediate, cfg.layers
        for contexts in ([1], [7] * 3, [4095] * 64, [4095] * 63):
            ones = [1] * len(contexts)
            head = 0.0
            head += L * 3 * m.ragged_gemm_seconds(h, ones, h, dt)
            head += L * m.ragged_gemm_seconds(h, ones, h, dt)
            head += L * (cfg.mlp_matrices - 1) \
                * m.ragged_gemm_seconds(i, ones, h, dt)
            head += L * m.ragged_gemm_seconds(h, ones, i, dt)
            elt = L * m.eltwise_seconds(len(ones) * (2 * h + i), dt, 3.0,
                                        n_ops=4)
            lm = m.gemm_seconds(cfg.vocab, len(ones), h, dt)
            n = sum(contexts) + len(contexts)
            ref = head + m.bandwidth_seconds(cfg.kv_bytes(n, dt)) + elt + lm
            for _ in range(2):
                assert m.step_seconds((), contexts, len(contexts)) == ref

    def test_fifo_cap(self):
        m = _fresh()
        m.STEP_CACHE_MAX = 2
        for t in (16, 32, 64, 96):
            m.step_seconds(((t, 0),), [], 1)
        assert len(m._step_cache) == 2
        # evicted signatures re-price to the same value
        assert m.step_seconds(((16, 0),), [], 1) \
            == _fresh().step_seconds(((16, 0),), [], 1)


class _AllocCounter:
    """Counts numpy module-level array-constructor calls while active."""

    NAMES = ("zeros", "empty", "ones", "full", "array", "asarray",
             "ascontiguousarray", "arange", "concatenate", "stack",
             "frombuffer", "fromiter", "copy")

    def __init__(self):
        self.count = 0
        self._saved = {}

    def __enter__(self):
        def wrap(fn):
            def counting(*args, **kwargs):
                self.count += 1
                return fn(*args, **kwargs)
            return counting
        for name in self.NAMES:
            self._saved[name] = getattr(np, name)
            setattr(np, name, wrap(self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(np, name, fn)
        return False


class TestAllocationFreeStepLoop:
    def test_advance_loop_allocates_nothing(self):
        """Batch scratch lives on the run state and pricing is plain
        float arithmetic: the whole advance loop performs zero NumPy
        array allocations (the CI-scale version runs 10^5 requests in
        benchmarks/bench_exec.py)."""
        reqs = TrafficGenerator(
            rate_rps=500.0, seed=11, mean_prompt=96, max_prompt=512,
            mean_new_tokens=12, max_new_tokens=48).generate(2000)
        sim = ServeSimulator(TINY, SPR, mem_fraction=0.01,
                             cost=ServeCostModel.for_stack(TINY, SPR))
        sim.begin(reqs, max_steps=1_000_000, validate=True)
        with _AllocCounter() as alloc:
            while sim.advance():
                pass
        report = sim.finish()
        assert report.summary.n_finished > 0
        assert alloc.count == 0, \
            f"step loop allocated {alloc.count} arrays"
