"""detect_races_compiled: builder-trace race detection must reproduce
the interpreted detector's reports element-for-element, and refuse the
plans its single-epoch/per-thread-unit model cannot certify."""

import numpy as np
import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.kernels.batched import gemm_trace_builder
from repro.kernels.gemm import ParlooperGemm
from repro.platform import SPR
from repro.simulator.memo import TraceCache
from repro.simulator.reuse import compile_trace
from repro.verify import detect_races
from repro.verify.races import detect_races_compiled


def _gemm(spec, num_threads=2):
    return ParlooperGemm(64, 64, 64, 16, 16, 16, k_step=1,
                         spec_string=spec, num_threads=num_threads,
                         backend="batched")


def _built(kern):
    b = gemm_trace_builder(kern, SPR, kern._conflict_scale())
    return [b(tid) for tid in range(kern.loop.num_threads)]


def _report_key(r):
    return (r.kind, r.tensor, r.key, r.epoch, r.spec_chars, r.loop_chars,
            r.units, r.example_inds, r.message)


class TestEquivalence:
    @pytest.mark.parametrize("spec", ["Abc", "aBc", "ABc", "ABC"])
    def test_matches_interpreted_detector(self, spec):
        kern = _gemm(spec, num_threads=4)
        ref = detect_races(kern.loop, kern.sim_body(SPR))
        got = detect_races_compiled(kern.loop, _built(kern))
        assert [_report_key(r) for r in got] \
            == [_report_key(r) for r in ref]

    def test_racy_reduction_is_reported(self):
        # capital A parallelizes the K reduction: a WW race on C
        kern = _gemm("Abc")
        reports = detect_races_compiled(kern.loop, _built(kern))
        assert any(r.kind == "WW" and r.tensor == "C" for r in reports)

    def test_clean_spec_is_empty(self):
        kern = _gemm("aBC")
        assert detect_races_compiled(kern.loop, _built(kern)) == []

    def test_single_thread_cannot_race(self):
        kern = _gemm("Abc", num_threads=1)
        assert detect_races_compiled(kern.loop, _built(kern)) == []


class TestGates:
    def test_barrier_plan_rejected(self):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)],
                            "A|b", num_threads=2, execution="threads")
        with pytest.raises(ValueError, match="barrier"):
            detect_races_compiled(loop, [])

    def test_dynamic_worksharing_rejected(self):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)],
                            "AB @ schedule(dynamic)", num_threads=2)
        with pytest.raises(ValueError, match="dynamic"):
            detect_races_compiled(loop, [])

    def test_interpreter_compiled_trace_lacks_attribution(self):
        # compile_trace output has no event_ind: only builder-emitted
        # traces can attribute accesses back to iteration vectors
        kern = _gemm("Abc")
        tc = TraceCache()
        traces = [
            compile_trace(tc.thread_trace(kern.loop,
                                          kern.sim_body(SPR), tid))
            for tid in range(2)]
        with pytest.raises(ValueError, match="event_ind"):
            detect_races_compiled(kern.loop, traces)
