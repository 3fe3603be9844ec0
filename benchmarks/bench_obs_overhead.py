"""Observability overhead guardrail.

The whole stack is instrumented — every hot path reads the ambient
:class:`~repro.obs.ObsContext` and calls into it.  The contract that
makes this acceptable is that a *disabled* context costs (almost)
nothing: this bench drives the two heaviest public paths — the 2048^3
GEMM predict and a serving run — through a ``Session`` with
``ObsConfig.disabled()`` and fails if the median run is more than
``REPRO_OBS_MAX_OVERHEAD`` (default 5%) slower than the classic
module-level path, whose instrumentation sites hit the shared no-op
context.

A third test exercises the *enabled* side: the emitted ``trace.json``
must be a structurally valid Chrome ``trace_event`` document (the form
Perfetto loads), with the span tree covering parser -> plan -> codegen
-> runtime for a compile and admit -> finish for a serve request.
"""

import json
import os
import time
from dataclasses import replace
from statistics import median

from repro import ObsConfig, ParlooperGemm, Session
from repro import predict as module_predict
from repro.platform import SPR
from repro.serve import ServeCostModel, ServeSimulator, TrafficGenerator
from repro.tpp.dtypes import DType
from repro.workloads import LlmConfig

MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.05"))
GEMM_REPEATS = 5
SERVE_REPEATS = 7

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=1024)


def _timed(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def _overhead(base_s, cand_s):
    return (cand_s - base_s) / base_s


def _gemm():
    return ParlooperGemm(2048, 2048, 2048, num_threads=16)


def test_gemm_predict_disabled_obs_overhead():
    g = _gemm()

    def classic():
        # the pre-session spelling: fresh trace each run, ambient OBS_OFF
        module_predict(g.loop, g.sim_body(SPR), SPR,
                       total_flops=float(g.flops))

    def via_session():
        # fresh session per run: cold caches, disabled instrumentation
        sess = Session(machine=SPR, obs=ObsConfig.disabled())
        g.predict(SPR, session=sess)
        g._sim_bodies.clear()

    base = _timed(classic, GEMM_REPEATS)
    cand = _timed(via_session, GEMM_REPEATS)
    ratio = _overhead(base, cand)
    print(f"\n[obs-overhead] gemm predict 2048^3: classic {base * 1e3:.1f} ms"
          f", disabled-obs session {cand * 1e3:.1f} ms"
          f" ({ratio * 100:+.1f}%, limit {MAX_OVERHEAD * 100:.0f}%)")
    assert ratio < MAX_OVERHEAD, (
        f"disabled-obs GEMM predict is {ratio * 100:.1f}% slower than the "
        f"classic path (limit {MAX_OVERHEAD * 100:.0f}%)")


def _tiny_machine(n_blocks=256, block_tokens=16):
    bytes_needed = TINY.weight_bytes(DType.BF16) \
        + n_blocks * block_tokens * TINY.kv_bytes_per_token(DType.BF16)
    return replace(SPR, dram_capacity_gbytes=bytes_needed / (1 << 30))


def _traffic():
    return TrafficGenerator(rate_rps=300.0, seed=7, min_prompt=16,
                            max_prompt=64, mean_prompt=32,
                            mean_new_tokens=12,
                            max_new_tokens=24).generate(200)


def test_serve_disabled_obs_overhead():
    machine = _tiny_machine()
    cost = ServeCostModel.for_stack(TINY, SPR)

    def classic():
        ServeSimulator(TINY, machine, cost=cost,
                       mem_fraction=1.0).run(_traffic())

    sess = Session(machine=machine, obs=ObsConfig.disabled())

    def via_session():
        sess.serve(TINY, machine=machine, cost=cost,
                   mem_fraction=1.0).run(_traffic())

    base = _timed(classic, SERVE_REPEATS)
    cand = _timed(via_session, SERVE_REPEATS)
    ratio = _overhead(base, cand)
    print(f"\n[obs-overhead] serve 200 reqs: classic {base * 1e3:.1f} ms, "
          f"disabled-obs session {cand * 1e3:.1f} ms "
          f"({ratio * 100:+.1f}%, limit {MAX_OVERHEAD * 100:.0f}%)")
    assert ratio < MAX_OVERHEAD, (
        f"disabled-obs serve run is {ratio * 100:.1f}% slower than the "
        f"classic path (limit {MAX_OVERHEAD * 100:.0f}%)")


def test_enabled_obs_emits_perfetto_loadable_trace(tmp_path):
    sess = Session(machine=_tiny_machine(), obs=ObsConfig(clock="tick"))
    # core: one kernel predict covers parser/plan/codegen/runtime spans
    g = ParlooperGemm(512, 512, 512, num_threads=4)
    g.predict(SPR, session=sess)
    # serve: one run covers admit -> schedule -> prefill -> decode -> finish
    cost = ServeCostModel.for_stack(TINY, SPR)
    sess.serve(TINY, cost=cost, mem_fraction=1.0).run(
        TrafficGenerator(rate_rps=200.0, seed=11, min_prompt=16,
                         max_prompt=64, mean_prompt=32, mean_new_tokens=8,
                         max_new_tokens=16).generate(10))

    path = sess.write_trace(str(tmp_path / "trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    evs = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in evs}
    assert phases <= {"M", "X", "i"}
    for e in evs:
        assert e["pid"] == 1 and isinstance(e["tid"], int)
        if e["ph"] == "X":
            assert e["dur"] >= 0 and "ts" in e
        elif e["ph"] == "i":
            assert e["s"] == "t"
    names = {e.get("name") for e in evs}
    assert {"predict", "trace_capture", "request", "prefill",
            "step"} <= names
    # thread_name metadata declares every track exactly once
    meta = [e for e in evs if e["ph"] == "M"]
    assert len({m["tid"] for m in meta}) == len(meta)
    print(f"\n[obs-overhead] enabled trace: {len(evs)} events, "
          f"{len(meta)} tracks -> {path}")
