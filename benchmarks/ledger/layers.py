"""The layers the ledger attributes wall time to, named after their modules.

Each layer lists the public entry points the span recorder wraps.  Hot
layers are the ones called per element, per serving step or per request;
the recorder keeps counts and self time for them instead of spans.

:func:`per_layer_metrics` turns one traced run into the ``per_layer``
metrics named in ``BENCHMARK.json``.  Self times are reported as shares
of the traced window (the summed wall time of the traced operations), so
a layer's share reads the same whatever the window length;
``trace.window_s`` gives the base.
"""

from __future__ import annotations

from spans import ROOT, Target

__all__ = ["TARGETS", "REACH", "SELF_SHARE_LAYERS", "CALL_LAYERS",
           "per_layer_metrics"]


def _floor_bound(counters, args, result):
    """Count engine results whose makespan is the shared-bandwidth floor
    rather than the slowest thread (read from the returned SimResult)."""
    machine = args["machine"]
    overhead = machine.dispatch_overhead_us * 1e-6 \
        if args.get("dispatch_overhead", True) else 0.0
    local = max(result.per_thread_seconds, default=0.0)
    counters["replay.results"] = counters.get("replay.results", 0) + 1
    if result.seconds - overhead > local * (1 + 1e-9):
        counters["replay.floor_bound"] = \
            counters.get("replay.floor_bound", 0) + 1


def _tune_evals(counters, args, result):
    counters["tuner.exact_evals"] = \
        counters.get("tuner.exact_evals", 0) + result.n_exact_evals
    counters["tuner.model_evals"] = \
        counters.get("tuner.model_evals", 0) + result.n_model_evals


def _layer(layer, *specs, hot=False, observe=None):
    return [Target(s, layer, hot=hot, observe=observe) for s in specs]


TARGETS = [
    # core: plan + JIT (compile), the JIT cache, code generation, the
    # interpreter runtime and the batched index enumeration
    *_layer("core.compile", "repro.core.threaded_loop:ThreadedLoop.__init__",
            "repro.core.plan:build_plan"),
    *_layer("core.nest_cache", "repro.core.cache:NestCache.get"),
    *_layer("core.codegen", "repro.core.codegen:compile_nest",
            "repro.core.codegen:compile_source"),
    *_layer("core.run", "repro.core.runtime:run_nest"),
    *_layer("core.batched", "repro.core.batched:enumerate_inds"),
    # tpp: every primitive's call, plus the stacked batched primitives
    *_layer("tpp", "repro.tpp.base:TPP.__call__+",
            "repro.tpp.batched:batched_brgemm",
            "repro.tpp.batched:batched_bias_add_col",
            "repro.tpp.batched:batched_unary", hot=True),
    # kernels
    *_layer("kernels.gemm", "repro.kernels.gemm:ParlooperGemm.__call__",
            "repro.kernels.gemm:ParlooperGemm.simulate",
            "repro.kernels.gemm:ParlooperGemm.predict"),
    *_layer("kernels.mlp", "repro.kernels.mlp:ParlooperMlp.forward",
            "repro.kernels.mlp:MlpLayer.__call__"),
    *_layer("kernels.conv", "repro.kernels.conv:ParlooperConv.__call__"),
    *_layer("kernels.spmm", "repro.kernels.spmm:ParlooperSpmm.__call__"),
    *_layer("kernels.abft", "repro.kernels.abft:gemm_check",
            "repro.kernels.abft:gemm_correct_single",
            "repro.kernels.abft:conv_check", "repro.kernels.abft:spmm_check"),
    *_layer("kernels.batched", "repro.kernels.batched:run_gemm_batched",
            "repro.kernels.batched:run_conv_batched",
            "repro.kernels.batched:run_spmm_batched"),
    # simulator: trace cache, trace capture, engine replay, perf model
    *_layer("simulator.engine", "repro.simulator.engine:simulate"),
    *_layer("simulator.trace_cache",
            "repro.simulator.memo:TraceCache.thread_trace",
            "repro.simulator.memo:TraceCache.compiled_thread_trace",
            "repro.simulator.memo:TraceCache.flat_trace"),
    *_layer("simulator.capture", "repro.simulator.trace:trace_threaded_loop",
            "repro.simulator.trace:trace_flat",
            "repro.simulator.reuse:compile_trace"),
    *_layer("simulator.replay", "repro.simulator.engine:simulate_traces",
            "repro.simulator.engine:simulate_flat", observe=_floor_bound),
    *_layer("simulator.predict", "repro.simulator.perfmodel:predict",
            "repro.simulator.perfmodel:predict_traces"),
    *_layer("simulator.reuse", "repro.simulator.reuse:hit_levels",
            "repro.simulator.reuse:stack_distances", hot=True),
    # workloads: engine-anchored GEMM pricing and config composition
    *_layer("workloads.gemm_price",
            "repro.workloads.opsim:OpCostModel.gemm_seconds"),
    *_layer("workloads.config", "repro.workloads.llm:llm_inference_latency",
            "repro.workloads.bert:bert_training_performance"),
    # tuner
    *_layer("tuner.tune", "repro.tuner.tune:tune", observe=_tune_evals),
    *_layer("tuner.generate", "repro.tuner.generator:generate_candidates"),
    *_layer("tuner.features", "repro.tuner.features:FeatureExtractor.vector",
            "repro.tuner.features:FeatureExtractor.matrix"),
    *_layer("tuner.model", "repro.tuner.model:RidgeCostModel.fit",
            "repro.tuner.model:RidgeCostModel.predict",
            "repro.tuner.model:RidgeCostModel.rank"),
    *_layer("tuner.search", "repro.tuner.search:search"),
    *_layer("tuner.guided", "repro.tuner.guided:guided_search",
            "repro.tuner.guided:edit_neighbors"),
    # serve: the step loop and what it calls per step
    *_layer("serve.run", "repro.serve.server:ServeSimulator.run",
            "repro.serve.server:ServeSimulator.finish"),
    *_layer("serve.advance", "repro.serve.server:ServeSimulator.advance",
            hot=True),
    *_layer("serve.step_price", "repro.serve.cost:ServeCostModel.step_seconds",
            hot=True),
    *_layer("serve.batcher", "repro.serve.batcher:ContinuousBatcher.plan",
            hot=True),
    *_layer("serve.kv", "repro.serve.kv_pool:PagedKvPool.reserve",
            "repro.serve.kv_pool:PagedKvPool.grow",
            "repro.serve.kv_pool:PagedKvPool.release", hot=True),
    # fleet: the event loop and its per-request/per-probe policies
    *_layer("fleet.loop", "repro.fleet.cluster:FleetSimulator.run"),
    *_layer("fleet.route", "repro.fleet.router:RoundRobinRouter.route",
            "repro.fleet.router:LeastKvLoadedRouter.route",
            "repro.fleet.router:SloStickyRouter.route",
            "repro.fleet.router:PrefixAffinityRouter.route",
            "repro.fleet.router:LeastSuspectRouter.route", hot=True),
    *_layer("fleet.guard", "repro.fleet.guard:FleetGuard.route_candidates",
            "repro.fleet.guard:FleetGuard.on_dispatch",
            "repro.fleet.guard:FleetGuard.on_pending",
            "repro.fleet.guard:FleetGuard.probe_tick",
            "repro.fleet.guard:FleetGuard.after_advance",
            "repro.fleet.guard:FleetGuard.finalize", hot=True),
    *_layer("fleet.health", "repro.fleet.health:HealthMonitor.probe",
            "repro.fleet.health:HealthMonitor.record",
            "repro.fleet.health:HealthMonitor.phi",
            "repro.fleet.health:HealthMonitor.observed", hot=True),
]

#: (lookup layer, layer it reaches on a miss)
REACH = (("core.nest_cache", "core.codegen"),
         ("simulator.trace_cache", "simulator.capture"),
         ("workloads.gemm_price", "simulator.replay"))

SELF_SHARE_LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: layers whose call count per traced operation is a per-layer metric
CALL_LAYERS = ("core.compile", "tpp", "simulator.capture",
               "simulator.replay", "workloads.gemm_price", "serve.advance",
               "serve.step_price")


def per_layer_metrics(rec, traced_ops: int, window_s: float,
                      overhead: float) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric of one run.

    *window_s* is the summed wall time of the *traced_ops* traced
    operations; *overhead* is traced / untraced wall - 1 over the
    operation kinds that ran both ways."""
    stats = rec.layer_stats()
    out = {}
    for layer in SELF_SHARE_LAYERS:
        self_s = stats.get(layer, (0, 0.0))[1]
        out[f"{layer}.self_share"] = (self_s / window_s, "share")
    for layer in CALL_LAYERS:
        calls = stats.get(layer, (0, 0.0))[0]
        out[f"{layer}.calls"] = (calls / traced_ops, "count")
    out["core.nest_cache.hit_ratio"] = (
        1.0 - rec.reach_ratio("core.nest_cache", "core.codegen")
        if rec.reached[("core.nest_cache", "core.codegen")][0] else 0.0,
        "share")
    out["simulator.trace_cache.hit_ratio"] = (
        1.0 - rec.reach_ratio("simulator.trace_cache", "simulator.capture")
        if rec.reached[("simulator.trace_cache", "simulator.capture")][0]
        else 0.0, "share")
    out["workloads.gemm_price.engine_ratio"] = (
        rec.reach_ratio("workloads.gemm_price", "simulator.replay"), "share")
    results = rec.counters.get("replay.results", 0)
    out["simulator.floor_bound_frac"] = (
        rec.counters.get("replay.floor_bound", 0) / results
        if results else 0.0, "share")
    out["tuner.exact_evals"] = (
        rec.counters.get("tuner.exact_evals", 0) / traced_ops, "count")
    out["tuner.model_evals"] = (
        rec.counters.get("tuner.model_evals", 0) / traced_ops, "count")
    out["trace.window_s"] = (window_s, "s")
    out["trace.root_self_share"] = (
        stats.get(ROOT, (0, 0.0))[1] / window_s, "share")
    out["trace_overhead"] = (overhead, "share")
    return out

