"""The nest cache plans each (declarations, spec string) pair once.

``NestCache.plan`` keeps every successful plan beside the compiled
nests, ``ThreadedLoop``, the tuner's spec features and its guided
admissibility check read plans through it, and each plan keeps its
spec-feature rows.  Counted here by wrapping ``repro.core.plan.
_build_plan``, which every plan miss runs.
"""

import numpy as np
import pytest

import repro.core.plan as plan_module
from repro import ParlooperGemm
from repro.core import LoopSpecs, NestCache, SpecError, ThreadedLoop
from repro.core.cache import global_nest_cache
from repro.core.plan import plan_key
from repro.platform import SPR
from repro.simulator import TraceCache
from repro.tuner import FeatureExtractor, TuningConstraints, tune
from repro.tuner.features import spec_features

SPECS = (LoopSpecs(0, 8, 1, [4]), LoopSpecs(0, 8, 1, [2]),
         LoopSpecs(0, 8, 1))


@pytest.fixture
def planned(monkeypatch):
    """The key of every plan built while the test runs, in order."""
    keys = []
    build = plan_module._build_plan

    def counting(specs, spec_string):
        keys.append(plan_key(tuple(specs), spec_string))
        return build(specs, spec_string)

    monkeypatch.setattr(plan_module, "_build_plan", counting)
    return keys


class TestOnePlanPerPair:
    def test_tunes_plan_each_pair_once(self, planned):
        global_nest_cache().clear()
        gemm = ParlooperGemm(512, 512, 512, num_threads=16)
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}), max_candidates=80)

        def tune_both():
            return [tune(gemm, machine=SPR, strategy=strategy,
                         constraints=cons, sample_threads=2,
                         trace_cache=TraceCache())
                    for strategy in ("guided", "exhaustive")]

        first = tune_both()
        assert first[0].rounds > 0          # edit neighborhoods were planned
        assert len(planned) > 80
        assert len(planned) == len(set(planned))
        n = len(planned)
        second = tune_both()
        assert len(planned) == n
        for a, b in zip(first, second):
            assert a.best.candidate == b.best.candidate
            assert a.best.score == b.best.score

    def test_loop_reads_the_plan_its_cache_keeps(self, planned):
        cache = NestCache()
        loop = ThreadedLoop(SPECS, "aabBc", num_threads=4, cache=cache)
        again = ThreadedLoop(list(SPECS), "aabBc", num_threads=4,
                             cache=cache)
        assert again.plan is loop.plan
        assert cache.plan(SPECS, "aabBc") is loop.plan
        assert planned == [loop.plan.cache_key()]


class TestFailures:
    def test_invalid_string_raises_the_same_error_every_call(self, planned):
        cache = NestCache()
        errors = []
        for _ in range(2):
            with pytest.raises(SpecError) as info:
                cache.plan(SPECS, "aaabc")     # 'a' declares one block step
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].span == errors[1].span is not None
        assert len(planned) == 2

    def test_malformed_declarations_are_not_keyed(self):
        with pytest.raises(SpecError, match="expected LoopSpecs"):
            NestCache().plan([(0, 8, 1)], "a")


class TestScope:
    def test_clear_drops_plans(self, planned):
        cache = NestCache()
        first = cache.plan(SPECS, "abc")
        assert cache.plan(SPECS, "abc") is first
        cache.clear()
        assert cache.plan(SPECS, "abc") is not first
        assert len(planned) == 2

    def test_caches_share_no_plans(self, planned):
        a, b = NestCache(), NestCache()
        assert a.plan(SPECS, "abc") is not b.plan(SPECS, "abc")
        assert len(planned) == 2


class TestCounters:
    def test_plan_lookups_are_not_nest_lookups(self):
        cache = global_nest_cache()
        cache.clear()
        spec_features("aBc", SPECS, 4)
        spec_features("aBc", SPECS, 4)
        assert cache.hits == cache.misses == 0
        ThreadedLoop(SPECS, "aBc", num_threads=4)
        ThreadedLoop(SPECS, "aBc", num_threads=4)
        assert cache.hits == cache.misses == 1


class TestFeatureRows:
    def test_returned_vectors_do_not_alias_the_memo(self):
        expected = spec_features("aabBc", SPECS, 4).tobytes()
        v = spec_features("aabBc", SPECS, 4)
        v[:] = -1.0
        assert spec_features("aabBc", SPECS, 4).tobytes() == expected
        ext = FeatureExtractor(base_specs=SPECS, machine=SPR, num_threads=4)
        w = ext.vector("aabBc")
        expected = w.tobytes()
        w[:] = -1.0
        assert ext.vector("aabBc").tobytes() == expected

    def test_row_depends_on_the_thread_count(self):
        four = spec_features("aabBc", SPECS, 4)
        three = spec_features("aabBc", SPECS, 3)
        assert not np.array_equal(four, three)
        assert spec_features("aabBc", SPECS, 4).tobytes() == four.tobytes()

    def test_clear_recomputes_equal_rows(self):
        before = spec_features("aabBc", SPECS, 4).tobytes()
        global_nest_cache().clear()
        assert spec_features("aabBc", SPECS, 4).tobytes() == before
