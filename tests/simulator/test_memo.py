"""TraceCache: memoized trace capture for tuning sweeps."""

import random
import sys
import threading

import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.platform import ADL, SPR
from repro.simulator import (Access, BodyEvent, TraceCache, brgemm_event,
                             predict, simulate, trace_threaded_loop)
from repro.simulator import memo as memo_module
from repro.simulator.engine import simulate_traces_lru
from repro.tpp.dtypes import DType
from repro.tuner import TuningConstraints, tune

SPECS = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]


def _body(ind):
    ia, ib = ind
    return BodyEvent(accesses=(Access(("x", ia), 256),
                               Access(("y", ib), 256)),
                     flops=100.0, flops_per_cycle=2.0)


def _inds(loop, tid) -> tuple:
    """The body indices thread *tid* of *loop* runs, in order: equal
    index sequences of the pure ``_body`` are equal event sequences."""
    (trace,) = trace_threaded_loop(loop, _body, tids=[tid],
                                   record_inds=True)
    return tuple(ev.ind for ev in trace.events)


class TestCounters:
    def test_hit_miss_accounting(self):
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "aB", num_threads=2)
        cache.compiled_thread_trace(loop, _body, 0)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.compiled_thread_trace(loop, _body, 0)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.compiled_thread_trace(loop, _body, 1)
        assert (cache.hits, cache.misses) == (1, 2)
        st = cache.stats()
        assert st["hits"] == 1 and st["misses"] == 2 and st["entries"] == 2

    def test_identical_traces_returned(self):
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "aB", num_threads=2)
        t1 = cache.compiled_thread_trace(loop, _body, 0)
        t2 = cache.compiled_thread_trace(loop, _body, 0)
        assert t1 is t2

    def test_clear(self):
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "ab", num_threads=1)
        cache.compiled_thread_trace(loop, _body, 0)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_eviction_bound(self):
        cache = TraceCache(max_entries=2)
        for spec in ("ab", "ba", "aB"):
            loop = ThreadedLoop(SPECS, spec, num_threads=1)
            cache.compiled_thread_trace(loop, _body, 0)
        assert len(cache) == 2
        # the oldest ("ab") entry was evicted: re-tracing misses
        misses = cache.misses
        cache.compiled_thread_trace(
            ThreadedLoop(SPECS, "ab", num_threads=1), _body, 0)
        assert cache.misses == misses + 1

    def test_compiled_accesses_bounded(self):
        """Compiled traces count their accesses against the cache's
        budget; going over it evicts the oldest entries."""
        cache = TraceCache()
        cache.MAX_COMPILED_ACCESSES = 20
        loop = ThreadedLoop(SPECS, "aB", num_threads=2)
        assert cache.compiled_thread_trace(loop, _body, 0).n_accesses == 16
        cache.compiled_thread_trace(loop, _body, 1)
        # tid 0's entry went; tid 1's stays
        assert len(cache) == 1
        misses = cache.misses
        cache.compiled_thread_trace(loop, _body, 1)
        assert cache.misses == misses
        cache.compiled_thread_trace(loop, _body, 0)
        assert cache.misses == misses + 1

    def test_hand_written_body_files_one_entry_per_thread(self):
        """A body without ``call_columns`` is captured by running the
        nest, and each thread files only its compiled trace."""
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "aB", num_threads=2)
        traces = cache.compiled_thread_traces(loop, _body, range(2))
        assert len(cache) == cache.misses == 2
        assert all(t.n_events == 8 for t in traces)

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)


class TestKeySharing:
    def test_barriers_share_thread_traces(self):
        """``b|a`` and ``ba`` run identical per-thread iterations."""
        cache = TraceCache()
        plain = ThreadedLoop(SPECS, "Ba", num_threads=2)
        barred = ThreadedLoop(SPECS, "B|a", num_threads=2,
                              execution="threads")
        t0 = cache.compiled_thread_trace(plain, _body, 0)
        assert cache.misses == 1
        t0b = cache.compiled_thread_trace(barred, _body, 0)
        assert cache.hits == 1 and t0b is t0

    def test_serialized_order_shares_flat_traces(self):
        """Flat traces key on the *serialized* order: parallel markup and
        schedule directives don't change it."""
        cache = TraceCache()
        a = cache.flat_trace(ThreadedLoop(SPECS, "bA", num_threads=2),
                             _body)
        b = cache.flat_trace(
            ThreadedLoop(SPECS, "ba @ schedule(dynamic, 1)", num_threads=2),
            _body)
        assert cache.hits == 1 and b is a

    def test_different_orders_do_not_collide(self):
        cache = TraceCache()
        a = cache.flat_trace(ThreadedLoop(SPECS, "ab", num_threads=1),
                             _body)
        b = cache.flat_trace(ThreadedLoop(SPECS, "ba", num_threads=1),
                             _body)
        assert cache.misses == 2
        assert [e.accesses[0].key for e in a.events] != \
               [e.accesses[0].key for e in b.events]

    def test_body_key_overrides_identity(self):
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "ab", num_threads=1)
        cache.compiled_thread_trace(loop, lambda ind: _body(ind), 0,
                                    body_key="k1")
        cache.compiled_thread_trace(loop, lambda ind: _body(ind), 0,
                                    body_key="k1")
        assert cache.hits == 1


class TestBodyMemo:
    def test_body_called_once_per_distinct_ind(self):
        calls = []

        def counting(ind):
            calls.append(tuple(ind))
            return _body(ind)

        cache = TraceCache()
        # two candidates sweeping the same 4x4 space
        cache.flat_trace(ThreadedLoop(SPECS, "ab", num_threads=1),
                         counting, body_key="cnt")
        cache.flat_trace(ThreadedLoop(SPECS, "ba", num_threads=1),
                         counting, body_key="cnt")
        assert len(calls) == 16                 # not 32
        assert len(set(calls)) == 16

    def test_memo_is_per_body_key(self):
        calls = []

        def counting(ind):
            calls.append(tuple(ind))
            return _body(ind)

        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "ab", num_threads=1)
        cache.flat_trace(loop, counting, body_key="k1")
        cache.flat_trace(loop, counting, body_key="k2")
        # different body keys don't share the ind memo (k2 re-traces
        # because the flat-trace key differs too)
        assert len(calls) == 32


class TestPatternSharing:
    def test_parallel_tids_share_reuse_memo(self):
        """Data-parallel tids walk isomorphic tile sequences, so their
        compiled traces share one reuse-distance memo."""
        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "Ba", num_threads=2)
        c0 = cache.compiled_thread_trace(loop, _body, 0)
        c1 = cache.compiled_thread_trace(loop, _body, 1)
        assert c1.reuse_memo is c0.reuse_memo
        # ...but the actual slice keys still differ per tid
        assert c0.keys != c1.keys

    def test_distinct_patterns_keep_private_memos(self):
        def skewed(ind):
            ia, ib = ind
            if ia == 0:
                return _body(ind)
            return BodyEvent(accesses=(Access(("x", ia), 256),), flops=1.0)

        cache = TraceCache()
        loop = ThreadedLoop(SPECS, "Ab", num_threads=2)
        c0 = cache.compiled_thread_trace(loop, skewed, 0)
        c1 = cache.compiled_thread_trace(loop, skewed, 1)
        assert c1.reuse_memo is not c0.reuse_memo

    def test_reuse_memo_goes_with_its_traces(self):
        """The cache holds a reuse memo only through the compiled traces
        sharing it: once they are evicted, a pattern-identical trace
        starts a fresh memo."""
        cache = TraceCache(max_entries=1)
        loop = ThreadedLoop(SPECS, "Ba", num_threads=2)
        cache.compiled_thread_trace(loop, _body, 0).reuse_memo["probe"] = 1
        cache.flat_trace(loop, _body)           # evicts the compiled trace
        c1 = cache.compiled_thread_trace(loop, _body, 1)
        assert "probe" not in c1.reuse_memo
        # while a trace of the pattern lives, the memo is shared
        c0 = cache.compiled_thread_trace(loop, _body, 0)
        assert c0.reuse_memo is c1.reuse_memo


@pytest.fixture
def compiles(monkeypatch):
    """Count the traces the cache compiles."""
    seen = []
    compile_trace = memo_module.compile_trace

    def counting(trace):
        seen.append(trace)
        return compile_trace(trace)

    monkeypatch.setattr(memo_module, "compile_trace", counting)
    return seen


class TestSequenceSharing:
    # four tids of work on eight threads; "Ab" and "bA" hand each tid the
    # same tiles in the same order, and so do "aB" and "Ba"
    SPECS_SWEPT = ("Ab", "bA", "aB", "Ba")

    def _loops(self):
        return [ThreadedLoop(SPECS, spec, num_threads=8)
                for spec in self.SPECS_SWEPT]

    def test_each_distinct_sequence_compiles_once(self, compiles):
        cache = TraceCache()
        for loop in self._loops():
            for tid in range(8):
                cache.compiled_thread_trace(loop, _body, tid)
        distinct = {_inds(loop, tid)
                    for loop in self._loops() for tid in range(8)}
        assert len(distinct) == 9      # 4 + 4 tile sequences, 1 empty
        assert len(compiles) == len(distinct)

    def test_equal_sequences_get_one_compiled_trace(self):
        cache = TraceCache()
        ab, ba = self._loops()[:2]
        assert cache.compiled_thread_trace(ab, _body, 6) is \
            cache.compiled_thread_trace(ab, _body, 7)   # idle tids
        assert cache.compiled_thread_trace(ab, _body, 1) is \
            cache.compiled_thread_trace(ba, _body, 1)
        assert cache.compiled_thread_trace(ab, _body, 1) is not \
            cache.compiled_thread_trace(ab, _body, 2)
        assert cache.misses == 5        # 5 thread keys, one entry each

    def test_compiled_trace_goes_with_its_entries(self, compiles):
        """The cache holds a shared compiled trace only through its
        entries: once they are all evicted, the sequence compiles
        again."""
        cache = TraceCache(max_entries=2)
        ab, ba, a_b, b_a = self._loops()
        cache.compiled_thread_trace(ab, _body, 0).reuse_memo["probe"] = 1
        # "Ab"'s and "bA"'s entries both hold the trace
        assert "probe" in cache.compiled_thread_trace(ba, _body, 0) \
            .reuse_memo
        assert len(compiles) == 1
        cache.flat_trace(a_b, _body)
        cache.flat_trace(b_a, _body)            # evicts both entries
        assert "probe" not in cache.compiled_thread_trace(ab, _body, 0) \
            .reuse_memo
        assert len(compiles) == 2

    def test_shared_trace_counts_once_against_the_budget(self, compiles,
                                                         monkeypatch):
        """Five thread keys hold tid 1's sequence and five tid 2's: with
        room for three traces' accesses, both stay cached, so two sweeps
        compile each sequence once and evict nothing."""
        loops = [ThreadedLoop(SPECS, "Ab", num_threads=n)
                 for n in range(4, 9)]      # tid t runs block t of "A"
        one = 4 * 2                         # 4 events of 2 accesses
        monkeypatch.setattr(TraceCache, "MAX_COMPILED_ACCESSES", 3 * one)
        cache = TraceCache()
        for _ in range(2):
            for tid in (1, 2):
                for loop in loops:
                    assert cache.compiled_thread_trace(
                        loop, _body, tid).n_accesses == one
        assert len(compiles) == 2
        assert len(cache) == 10             # 10 thread keys, one entry each

    @pytest.mark.parametrize("round_", range(5))
    def test_threads_racing_on_one_cache_share_one_trace(self, round_):
        """Threads sweeping one cache in different orders still get one
        compiled trace per distinct event sequence, and one per thread
        key."""
        cache = TraceCache()
        keys = [(loop, tid) for loop in self._loops() for tid in range(8)]
        got = []
        by_sequence = {}
        compile_once = cache._compile_once

        def recording(raw):
            ct = compile_once(raw)
            by_sequence.setdefault(tuple(raw.events), set()).add(id(ct))
            return ct

        cache._compile_once = recording

        def sweep(seed):
            order = keys[:]
            random.Random(seed).shuffle(order)
            got.extend((loop, tid, cache.compiled_thread_trace(loop, _body,
                                                               tid))
                       for loop, tid in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=sweep, args=(8 * round_ + i,))
                       for i in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(got) == 8 * len(keys)
        by_key = {}
        for loop, tid, ct in got:
            by_key.setdefault((id(loop), tid), set()).add(id(ct))
        assert all(len(ids) == 1 for ids in by_key.values())
        # racing body-memo misses may build one event twice, so there can
        # be more than the 9 sequences of a serial sweep
        assert all(len(ids) == 1 for ids in by_sequence.values())

    def test_rejected_trace_raises_on_every_request(self, compiles):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1)], "A", num_threads=2)

        def zero_footprint(ind):
            return BodyEvent((Access(("m", ind[0]), 0),), flops=1.0)

        cache = TraceCache()
        for n in (1, 2):
            with pytest.raises(ValueError, match="positive"):
                cache.compiled_thread_trace(loop, zero_footprint, 0)
            assert len(compiles) == n
        for replay in (simulate, simulate, predict):
            with pytest.raises(ValueError, match=r"\('m', 0\)"):
                replay(loop, zero_footprint, SPR, trace_cache=cache)

    @pytest.mark.parametrize("machine", [SPR, ADL], ids=["SPR", "ADL"])
    def test_shared_cache_predicts_as_a_fresh_one(self, machine):
        """Every candidate of an exhaustive tune predicts the same through
        the sweep's shared cache as through a cache of its own, and a few
        simulate the same too."""
        blocks = 4
        specs = [LoopSpecs(0, blocks, blocks), LoopSpecs(0, blocks, 1),
                 LoopSpecs(0, blocks, 1)]

        def body(ind):
            _ik, im, inn = ind
            return brgemm_event(machine, DType.F32, 32, 32, 32, blocks,
                                [("A", im, k) for k in range(blocks)],
                                [("B", inn, k) for k in range(blocks)],
                                ("C", inn, im), beta=1.0,
                                c_first_touch=True)

        cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                                 parallelizable=frozenset({"b", "c"}))
        shared = TraceCache()
        report = tune(specs, machine=machine, sim_body=body,
                      constraints=cons, num_threads=8, sample_threads=None,
                      trace_cache=shared)
        assert len(report.outcomes) > 20
        for i, outcome in enumerate(report.outcomes):
            loop = outcome.candidate.build_loop(specs, num_threads=8)
            assert predict(loop, body, machine, trace_cache=shared) == \
                predict(loop, body, machine, trace_cache=TraceCache()), \
                outcome.candidate.label()
            if i % 8 == 0:
                assert simulate(loop, body, machine,
                                trace_cache=shared) == \
                    simulate(loop, body, machine,
                             trace_cache=TraceCache()), \
                    outcome.candidate.label()


class TestConsumers:
    def test_predict_populates_and_reuses(self):
        specs = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]
        loop = ThreadedLoop(specs, "aB", num_threads=2)
        cache = TraceCache()
        predict(loop, _body, SPR, trace_cache=cache)
        misses = cache.misses
        assert misses > 0
        predict(loop, _body, SPR, trace_cache=cache)
        # second sweep hits the compiled entries, builds nothing new
        assert cache.misses == misses and cache.hits == 2

    def test_engine_and_perfmodel_share_raw_traces(self):
        loop = ThreadedLoop(SPECS, "aB", num_threads=2)
        cache = TraceCache()
        oracle = simulate_traces_lru(trace_threaded_loop(loop, _body), SPR)
        assert simulate(loop, _body, SPR) == oracle
        assert simulate(loop, _body, SPR, trace_cache=cache) == oracle
        # perfmodel replays the same cached compiled traces
        hits = cache.hits
        predict(loop, _body, SPR, trace_cache=cache)
        assert cache.hits > hits
