"""Differential tests: vectorized reuse-distance replay vs the LRU oracle.

The seed ``LRUCache``/``CacheHierarchy`` stays in the tree precisely to
serve as the oracle here: :func:`repro.simulator.reuse.hit_levels` must
agree with it hit-level-for-hit-level on randomized traces,
:func:`~repro.simulator.reuse.stack_distances` must equal an O(n^2)
brute-force count of each window's distinct keys, and
``predict`` / ``simulate`` — which always capture through a
``TraceCache`` — must reproduce the uncached oracle (``trace_threaded_loop``
/ ``trace_flat`` capture, ``predict_traces`` / ``simulate_traces_lru`` /
``simulate_flat`` replay) bit for bit.
"""

import random

import numpy as np
import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.simulator import (Access, BodyEvent, CacheHierarchy, CompiledTrace,
                             PerfPrediction, ThreadTrace, TraceCache,
                             brgemm_event, compile_trace, hit_levels, predict,
                             predict_traces, simulate, simulate_flat,
                             trace_flat, trace_threaded_loop)
from repro.simulator.engine import simulate_traces_lru
from repro.simulator.reuse import stack_distances
from repro.tpp.dtypes import DType
from repro.verify.fuzz import default_case_count

CAP_CHOICES = [4, 8, 16, 64, 128, 1024, 4096, 20000]
FP_CHOICES = [1, 2, 3, 5, 8, 16, 64, 100, 1000, 5000]


def _random_case(rng):
    """A randomized access stream with per-key-constant footprints."""
    n_keys = rng.randint(1, 40)
    n = rng.randint(1, 400)
    keys = [rng.randrange(n_keys) for _ in range(n)]
    per_key_fp = [rng.choice(FP_CHOICES) for _ in range(n_keys)]
    fp = [per_key_fp[k] for k in keys]
    caps = sorted(rng.choice(CAP_CHOICES)
                  for _ in range(rng.randint(1, 4)))
    return keys, fp, caps


def _oracle_levels(keys, fp, caps):
    hier = CacheHierarchy(caps)
    levels = [hier.lookup(("k", k), f) for k, f in zip(keys, fp)]
    clamps = tuple(lvl.capacity_clamps for lvl in hier.levels)
    return levels, clamps


class TestHitLevelsDifferential:
    def test_matches_lru_oracle_on_randomized_traces(self):
        """>= 100 randomized traces, every access, every level."""
        rng = random.Random(1234)
        for trial in range(150):
            keys, fp, caps = _random_case(rng)
            ref, ref_clamps = _oracle_levels(keys, fp, caps)
            memo = {}
            lv, stats = hit_levels(np.array(keys), np.array(fp), caps,
                                   memo=memo)
            assert list(lv) == ref, f"trial {trial}: caps={caps}"
            assert stats.capacity_clamps == ref_clamps, f"trial {trial}"
            # memo reuse must not change anything
            lv2, stats2 = hit_levels(np.array(keys), np.array(fp), caps,
                                     memo=memo)
            assert list(lv2) == ref and stats2 == stats, f"trial {trial}"
            # a hierarchy sharing all but its last level reuses the
            # memoized streams and distances of that prefix
            caps2 = caps[:-1] + [caps[-1] * 3]
            ref2, ref2_clamps = _oracle_levels(keys, fp, caps2)
            lv4, stats4 = hit_levels(np.array(keys), np.array(fp), caps2,
                                     memo=memo)
            assert list(lv4) == ref2, f"trial {trial}: caps={caps2}"
            assert stats4.capacity_clamps == ref2_clamps, f"trial {trial}"
            # and no memo at all must agree too
            lv3, stats3 = hit_levels(np.array(keys), np.array(fp), caps)
            assert list(lv3) == ref and stats3 == stats, f"trial {trial}"

    def test_writes_and_footprint_inflation(self):
        """Footprint > nbytes (layout-penalty modelling) stays exact."""
        rng = random.Random(99)
        for trial in range(40):
            n_keys = rng.randint(2, 12)
            keys = [rng.randrange(n_keys) for _ in range(rng.randint(5, 120))]
            infl = [rng.choice([64, 96, 128]) for _ in range(n_keys)]
            fp = [infl[k] for k in keys]
            caps = sorted(rng.choice([128, 256, 512]) for _ in range(2))
            ref, ref_clamps = _oracle_levels(keys, fp, caps)
            lv, stats = hit_levels(np.array(keys), np.array(fp), caps)
            assert list(lv) == ref
            assert stats.capacity_clamps == ref_clamps

    def test_oversized_footprints_clamped_like_lru(self):
        # footprint 1000 > cap 128: inserted clamped, counted in stats
        keys = [0, 1, 0, 1, 0]
        fp = [1000, 50, 1000, 50, 1000]
        ref, ref_clamps = _oracle_levels(keys, fp, [128])
        lv, stats = hit_levels(np.array(keys), np.array(fp), [128])
        assert list(lv) == ref
        assert stats.capacity_clamps == ref_clamps
        assert stats.capacity_clamps[0] > 0

    def test_stats_shape(self):
        lv, stats = hit_levels(np.array([0, 0, 1]), np.array([8, 8, 8]),
                               [16, 64])
        assert len(stats.accesses) == len(stats.hits) == 2
        assert stats.accesses[0] == 3


class TestPreconditions:
    def test_zero_footprint_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hit_levels(np.array([0, 1]), np.array([0, 4]), [16])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            hit_levels(np.array([0]), np.array([4]), [0])

    def test_compile_trace_rejects_zero_footprint(self):
        tr = ThreadTrace(0, [BodyEvent(accesses=(
            Access(("x",), 64, footprint=-3),), flops=1.0)])
        # Access freezes footprint=0 into nbytes, so use a negative one
        with pytest.raises(ValueError, match="positive"):
            compile_trace(tr)

    def test_compile_trace_rejects_changing_footprint(self):
        tr = ThreadTrace(0, [
            BodyEvent(accesses=(Access(("x",), 64, footprint=64),)),
            BodyEvent(accesses=(Access(("x",), 64, footprint=128),)),
        ])
        with pytest.raises(ValueError, match="changed mid-trace"):
            compile_trace(tr)


def _brute_distances(keys, fp):
    """O(n^2) oracle: each distinct key's weight once, strictly inside
    ``(prev[t], t)``; -1 for cold accesses."""
    weight = dict(zip(keys, fp))
    last, out = {}, []
    for t, k in enumerate(keys):
        p = last.get(k)
        out.append(-1 if p is None
                   else sum(weight[j] for j in set(keys[p + 1:t])))
        last[k] = t
    return out


def _stream_with_reaccesses(rng, nq, n_keys, max_fp=5000):
    """A shuffled stream of *n_keys* keys holding exactly *nq*
    re-accesses (every access after a key's first)."""
    keys = list(range(n_keys)) + [rng.randrange(n_keys) for _ in range(nq)]
    rng.shuffle(keys)
    per_key = [rng.randint(1, max_fp) for _ in range(n_keys)]
    return keys, [per_key[k] for k in keys]


def _assert_oracle(keys, fp):
    got = stack_distances(np.array(keys, dtype=np.int64),
                          np.array(fp, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == _brute_distances(keys, fp)


class TestDistancesVsBruteForce:
    """The one int64 distance pass against the O(n^2) oracle."""

    def test_random_streams(self):
        rng = random.Random(2024)
        for _trial in range(600):
            n_keys = rng.randint(1, 60)
            keys = [rng.randrange(n_keys)
                    for _ in range(rng.randint(1, 300))]
            per_key = [rng.choice(FP_CHOICES) for _ in range(n_keys)]
            _assert_oracle(keys, [per_key[k] for k in keys])

    @pytest.mark.parametrize("keys", [
        [],
        list(range(40)),                       # no key is re-accessed
        [7] * 33,                              # one key, over and over
        [0, 1, 2, 3, 4, 5, 2, 6, 7],           # one key repeated once
        [i % 9 for i in range(120)],           # every window all distinct
        [i % 9 for i in range(60)][::-1] + [i % 5 for i in range(30)],
    ], ids=["empty", "no_reaccess", "one_key", "one_repeat", "sweep",
            "sweeps"])
    def test_edge_streams(self, keys):
        _assert_oracle(keys, [3 + 5 * k for k in keys])

    @pytest.mark.parametrize("k", range(1, 12))
    def test_reaccess_counts_around_powers_of_two(self, k):
        rng = random.Random(k)
        for nq in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            for n_keys in (1, 3, 40):
                _assert_oracle(*_stream_with_reaccesses(rng, nq, n_keys))

    def test_weights_up_to_2_40(self):
        rng = random.Random(40)
        for _trial in range(50):
            keys, fp = _stream_with_reaccesses(
                rng, rng.randint(1, 400), rng.randint(1, 80), 2 ** 40)
            _assert_oracle(keys, fp)
        _assert_oracle([0, 1, 0, 1], [2 ** 40] * 4)

    def test_cold_accesses_report_minus_one(self):
        got = stack_distances(np.array([4, 2, 4, 9, 2]),
                              np.array([8, 16, 8, 1, 16]))
        assert got.tolist() == [-1, -1, 16, -1, 9]


class TestExactInt64:
    def test_total_weight_at_2_62_raises(self):
        keys, fp = np.array([0, 1, 0]), np.full(3, 2 ** 61, dtype=np.int64)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            stack_distances(keys, fp)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            hit_levels(keys, fp, [2 ** 62 - 1])

    def test_exact_just_below_the_bound(self):
        fp = np.full(3, 2 ** 60, dtype=np.int64)
        assert stack_distances(np.array([0, 1, 0]), fp).tolist() == \
            [-1, -1, 2 ** 60]
        big = np.array([2 ** 61 - 1, 2 ** 61 - 1], dtype=np.int64)
        assert stack_distances(np.array([0, 0]), big).tolist() == [-1, 0]

    def test_stream_length_bound_raises(self, monkeypatch):
        import repro.simulator.reuse as reuse_mod
        # the real bound is 2**31 accesses, too many to allocate here
        monkeypatch.setattr(reuse_mod, "_MAX_ACCESSES", 4)
        with pytest.raises(ValueError, match="fewer than"):
            stack_distances(np.arange(4), np.ones(4, dtype=np.int64))
        assert stack_distances(np.arange(3),
                               np.ones(3, dtype=np.int64)).tolist() == \
            [-1, -1, -1]


@pytest.mark.fuzz
def test_fuzz_long_streams_match_lru_oracle():
    """Streams of 2k-20k accesses over a drifting working set, on one to
    three levels sized around it: many levels see thousands of
    re-accesses, as the engine's shared-LLC streams do."""
    rng = np.random.default_rng(20_000)
    for case in range(default_case_count()):
        n = int(rng.integers(2000, 20001))
        n_keys = int(rng.integers(16, 4001))
        window = int(rng.integers(4, 513))
        start = np.floor(np.arange(n) * rng.random()).astype(np.int64)
        keys = (start + rng.integers(0, window, n)) % n_keys
        per_key = rng.choice(FP_CHOICES, n_keys)
        fp = per_key[keys]
        span = window * float(per_key.mean())
        caps = sorted(max(1, int(span * f)) for f in
                      rng.uniform(0.05, 1.5, int(rng.integers(1, 4))))
        ref, ref_clamps = _oracle_levels(keys.tolist(), fp.tolist(), caps)
        lv, stats = hit_levels(keys, fp, caps)
        assert lv.tolist() == ref, f"case {case}: n={n} caps={caps}"
        assert stats.capacity_clamps == ref_clamps, f"case {case}"


def _gemm_workload(nb=4):
    specs = [LoopSpecs(0, 8, 8), LoopSpecs(0, nb, 1), LoopSpecs(0, nb, 1)]

    def body(ind):
        ik, im, inn = ind
        return brgemm_event(SPR, DType.F32, 64, 64, 64, 8,
                            [("A", im, k) for k in range(8)],
                            [("B", inn, k) for k in range(8)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)
    return specs, body


def _oracle_predict(loop, body, machine, total_flops=None, tids=None):
    """The uncached scalar model: capture with ``trace_threaded_loop``,
    replay with ``predict_traces``."""
    traces = trace_threaded_loop(loop, body, tids=tids)
    pred = predict_traces(traces, machine, loop.num_threads)
    if total_flops is None:
        return pred
    return PerfPrediction(pred.seconds, total_flops,
                          pred.per_thread_seconds, pred.hit_fractions)


def _same_prediction(a, b):
    assert a.seconds == b.seconds
    assert a.total_flops == b.total_flops
    assert a.per_thread_seconds == b.per_thread_seconds
    assert a.score == b.score


class TestFastPredictBitIdentity:
    @pytest.mark.parametrize("spec", ["bcA", "Bca", "bC{R:4}a",
                                      "b|cA", "BCa",
                                      "bCa @ schedule(dynamic, 1)"])
    def test_predict_identical_across_machines(self, spec):
        specs, body = _gemm_workload()
        execution = "threads" if "|" in spec else "serial"
        loop = ThreadedLoop(specs, spec, num_threads=4, execution=execution)
        flops = 2.0 * 4 * 64 ** 3
        shared = TraceCache()
        for machine in (SPR, GVT3, ZEN4, ADL):
            want = _oracle_predict(loop, body, machine, flops)
            for cache in (None, TraceCache(), shared):
                _same_prediction(
                    predict(loop, body, machine, total_flops=flops,
                            trace_cache=cache), want)

    def test_predict_identical_when_sampling(self):
        specs, body = _gemm_workload(nb=8)
        loop = ThreadedLoop(specs, "bCa", num_threads=8)
        flops = 2.0 * 8 * 64 ** 3
        # two of eight threads: every fourth tid, plus the last one
        want = _oracle_predict(loop, body, SPR, flops, tids=[0, 4, 7])
        for cache in (None, TraceCache()):
            _same_prediction(
                predict(loop, body, SPR, sample_threads=2,
                        total_flops=flops, trace_cache=cache), want)

    def test_zero_footprint_raises(self):
        """Traces violating reuse preconditions raise, naming the key."""
        specs = [LoopSpecs(0, 2, 1), LoopSpecs(0, 2, 1)]

        def weird(ind):
            # a zero-cost marker access: footprint stays 0 only if nbytes
            # is 0, which the reuse path must refuse
            return BodyEvent(accesses=(Access(("m", tuple(ind)), 0),),
                             flops=1.0)

        loop = ThreadedLoop(specs, "ab", num_threads=1)
        for cache in (None, TraceCache()):
            with pytest.raises(ValueError,
                               match=r"positive.*\('m', \(0, 0\)\)"):
                predict(loop, weird, SPR, trace_cache=cache)


class TestCompiledTrace:
    def test_round_trip_fields(self):
        specs, body = _gemm_workload()
        loop = ThreadedLoop(specs, "bca", num_threads=2)
        (raw,) = trace_threaded_loop(loop, body, tids=[0])
        ct = compile_trace(raw)
        assert isinstance(ct, CompiledTrace)
        cached = TraceCache().compiled_thread_trace(loop, body, 0)
        assert cached.keys == ct.keys
        assert np.array_equal(cached.key_ids, ct.key_ids)
        assert ct.n_events == len(raw.events)
        assert ct.n_accesses == sum(len(e.accesses) for e in raw.events)
        assert ct.total_flops == raw.flops
        # interning is first-appearance order and invertible
        flat = [a.key for e in raw.events for a in e.accesses]
        assert [ct.keys[i] for i in ct.key_ids] == flat

    def test_empty_trace(self):
        ct = compile_trace(ThreadTrace(3))
        assert ct.n_accesses == 0 and ct.n_events == 0
        assert ct.total_flops == 0.0


class TestEngineWithCache:
    def test_simulate_identical_with_trace_cache(self):
        """``simulate`` matches the uncached oracle: per-thread capture
        and lock-step replay for static schedules, a flat trace and
        greedy replay for dynamic ones (ADL's hybrid cores tell the two
        replays apart)."""
        specs, body = _gemm_workload()
        shared = TraceCache()
        for spec in ("bCa", "bca @ schedule(dynamic, 1)",
                     "bCa @ schedule(dynamic, 1)"):
            loop = ThreadedLoop(specs, spec, num_threads=4)
            for machine in (SPR, ADL):
                if "dynamic" in spec:
                    want = simulate_flat(trace_flat(loop, body), machine,
                                         loop.num_threads)
                else:
                    want = simulate_traces_lru(
                        trace_threaded_loop(loop, body), machine)
                for cache in (None, TraceCache(), shared):
                    assert simulate(loop, body, machine,
                                    trace_cache=cache) == want
