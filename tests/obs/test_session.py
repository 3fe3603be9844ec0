"""Session-level observability: exact counters, span trees, replay."""

import json

import pytest

import repro
from repro import LoopSpecs, ObsConfig, ParlooperGemm, Session
from repro.obs.context import current
from repro.platform import SPR


def tick_session(**kw):
    return Session(machine=SPR, obs=ObsConfig(clock="tick"), **kw)


def small_gemm(**kw):
    return ParlooperGemm(256, 256, 256, num_threads=4, **kw)


class TestNestCacheCounters:
    def test_two_identical_compiles_are_one_miss_one_hit(self):
        sess = tick_session()
        specs = [LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)]
        sess.compile(specs, "ab", num_threads=2)
        sess.compile(specs, "ab", num_threads=2)
        m = sess.metrics
        assert m.value("cache_events", cache="nest", kind="miss") == 1
        assert m.value("cache_events", cache="nest", kind="hit") == 1
        assert sess.nest_cache.misses == 1
        assert sess.nest_cache.hits == 1

    def test_snapshot_exposes_hit_rates(self):
        sess = tick_session()
        specs = [LoopSpecs(0, 4, 1)]
        sess.compile(specs, "a")
        sess.compile(specs, "a")
        snap = sess.metrics.snapshot()
        assert snap['cache_hit_rate{cache="nest"}'] == pytest.approx(0.5)
        assert snap['cache_hits_total{cache="nest"}'] == 1
        assert snap['cache_misses_total{cache="nest"}'] == 1
        # the other caches report too, even when untouched
        assert snap['cache_hit_rate{cache="trace"}'] == 0.0
        assert snap['cache_hit_rate{cache="eval"}'] == 0.0


class TestCompileSpanTree:
    def test_cold_compile_covers_parser_plan_codegen_runtime(self):
        sess = tick_session()
        loop = sess.compile([LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)],
                            "ab", num_threads=2)
        with sess.activate():
            loop(lambda ind: None)
        names = sess.tracer.span_names()
        assert {"compile", "parser", "plan", "codegen", "runtime"} <= names
        # parser/plan/codegen nest under compile
        for child in ("parser", "plan", "codegen"):
            (ev,) = sess.tracer.spans(child)
            assert ev.path[0] == "compile"

    def test_warm_compile_skips_codegen(self):
        sess = tick_session()
        specs = [LoopSpecs(0, 8, 1)]
        sess.compile(specs, "a")
        n_codegen = len(sess.tracer.spans("codegen"))
        sess.compile(specs, "a")
        assert len(sess.tracer.spans("codegen")) == n_codegen


class TestTraceCacheCounters:
    def test_repeated_kernel_predict_hits_trace_cache(self):
        sess = tick_session()
        g = small_gemm()
        p1 = g.predict(SPR, session=sess)
        misses = sess.metrics.value("cache_events", cache="trace",
                                    kind="miss")
        # cold: per tid, one compiled-trace miss; the column capture
        # files no raw trace
        assert misses == g.num_threads
        assert sess.metrics.value("cache_events", cache="trace",
                                  kind="hit") == 0
        p2 = g.predict(SPR, session=sess)
        assert sess.metrics.value("cache_events", cache="trace",
                                  kind="hit") == g.num_threads
        assert sess.metrics.value("cache_events", cache="trace",
                                  kind="miss") == misses
        assert p1.seconds == p2.seconds

    def test_equal_shape_instances_share_traces_via_body_key(self):
        sess = tick_session()
        small_gemm().predict(SPR, session=sess)
        small_gemm().predict(SPR, session=sess)
        assert sess.trace_cache.hits == 4
        assert sess.trace_cache.misses == 4

    def test_predict_and_simulate_spans_recorded(self):
        sess = tick_session()
        g = small_gemm()
        g.predict(SPR, session=sess)
        g.simulate(SPR, session=sess)
        names = sess.tracer.span_names()
        assert {"predict", "reuse_sim", "simulate"} <= names
        # one column capture, under predict, of every thread; simulate
        # then finds them all cached
        (capture,) = sess.tracer.spans("trace_capture")
        assert capture.path == ("predict", "trace_capture")
        assert dict(capture.args) == {"kind": "columns",
                                      "threads": g.num_threads}


class TestDeterministicReplay:
    def workload(self):
        sess = tick_session()
        g = small_gemm()
        g.predict(SPR, session=sess)
        g.predict(SPR, session=sess)
        return json.dumps(sess.tracer.chrome_trace(), sort_keys=True)

    def test_tick_sessions_replay_byte_identically(self):
        assert self.workload() == self.workload()


class TestIsolation:
    def test_ambient_context_restored_after_session_calls(self):
        before = current()
        sess = tick_session()
        sess.compile([LoopSpecs(0, 4, 1)], "a")
        assert current() is before

    def test_default_session_records_nothing(self):
        g = small_gemm()
        g.predict(SPR)
        default = repro.default_session()
        assert len(default.tracer) == 0
        assert default.metrics.snapshot() == {}

    def test_disabled_session_skips_collector_registration(self):
        sess = Session(machine=SPR, obs=ObsConfig.disabled())
        g = small_gemm()
        g.predict(SPR, session=sess)
        assert sess.metrics.snapshot() == {}
        assert not sess.obs.enabled

    def test_sessions_do_not_share_caches_or_metrics(self):
        a, b = tick_session(), tick_session()
        g = small_gemm()
        g.predict(SPR, session=a)
        assert b.trace_cache.misses == 0
        assert b.metrics.value("cache_events", cache="trace",
                               kind="miss") == 0


class TestSessionSurface:
    def test_write_trace_and_flamegraph(self, tmp_path):
        sess = tick_session()
        sess.compile([LoopSpecs(0, 4, 1)], "a")
        path = sess.write_trace(str(tmp_path / "trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert any(e.get("name") == "compile"
                   for e in doc["traceEvents"])
        assert "compile" in sess.flamegraph()

    def test_obs_must_be_an_obsconfig(self):
        with pytest.raises(TypeError):
            Session(obs="wall")

    def test_machine_required_when_unbound(self):
        sess = Session()
        g = small_gemm()
        with pytest.raises(ValueError):
            sess.predict(g.loop, g.sim_body(SPR))
