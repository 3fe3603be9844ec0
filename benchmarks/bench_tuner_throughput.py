"""Tuning throughput: the seed LRU-replay search vs the accelerated path.

The paper's pitch (Fig 1 Box B2/B3, Fig 4) only works if the perf model
is cheap enough to sweep thousands of candidates.  This bench measures
candidates/second of the Fig 4-style GEMM sweep across the paper's four
testbeds (the paper tunes each platform separately; traces are
machine-independent, so the memoized path captures each candidate once
and replays it vectorized everywhere):

* **seed**: per-candidate nest re-execution + per-access OrderedDict LRU
  replay (the pre-acceleration path).  The library no longer takes it:
  `_seed_evaluator` calls the differential oracle (`trace_threaded_loop`
  + `predict_traces`) directly;
* **fast**: `TraceCache` memoization + reuse-distance replay
  (`simulator.reuse`), bit-identical scores;
* **warm**: a re-run of the same sweep through an `EvalCache`, the
  persistent-cache warm-start a re-executed bench would see.

Asserts the top-5 rankings are identical candidate-for-candidate and
that the fast path clears ``REPRO_TUNER_MIN_SPEEDUP`` (default 5x; CI's
perf-smoke job uses 3x for flake headroom), and emits BENCH_TUNER.json.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentTable
from repro.core import LoopSpecs
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.simulator import (PerfPrediction, TraceCache, brgemm_event,
                             predict_traces, trace_threaded_loop)
from repro.tpp.dtypes import DType
from repro.tuner import (EvalCache, TuneOutcome, TuningConstraints,
                         generate_candidates, perfmodel_evaluator, search)

MACHINES = [SPR, GVT3, ZEN4, ADL]   # the paper's four tuned testbeds
SIZES = [(1024, 1024, 1024), (2048, 2048, 2048)]
NUM_THREADS = 112
SAMPLE_THREADS = 2


def _workload(M, N, K, budget):
    bm = bn = bk = 64
    Kb, Mb, Nb = K // bk, M // bm, N // bn
    specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1), LoopSpecs(0, Nb, 1)]
    cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                             parallelizable=frozenset({"b", "c"}),
                             max_candidates=budget)
    cands = generate_candidates(specs, cons)

    def body(ind):
        ik, im, inn = ind
        return brgemm_event(SPR, DType.F32, bm, bn, bk, Kb,
                            [("A", im, k) for k in range(Kb)],
                            [("B", inn, k) for k in range(Kb)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)

    return specs, cands, body, 2.0 * M * N * K


def _seed_evaluator(specs, body, machine, total_flops):
    """The seed path: trace the sampled tids (``predict``'s selection)
    by re-executing the nest, replay them through the scalar LRU model,
    and score against the exact flop count."""
    def evaluate(candidate):
        loop = candidate.build_loop(specs, num_threads=NUM_THREADS)
        n = loop.num_threads
        tids = None
        if SAMPLE_THREADS < n:
            tids = list(range(0, n, max(1, n // SAMPLE_THREADS)))
            tids = tids[:SAMPLE_THREADS]
            if tids[-1] != n - 1:
                tids.append(n - 1)
        pred = predict_traces(trace_threaded_loop(loop, body, tids=tids),
                              machine, n)
        pred = PerfPrediction(pred.seconds, total_flops,
                              pred.per_thread_seconds, pred.hit_fractions)
        return TuneOutcome(candidate, pred.score, pred.seconds)
    return evaluate


def _sweep(specs, cands, body, total_flops, trace_cache=None,
           eval_cache=None, workload_sig=""):
    """One multi-machine tuning sweep; returns ({machine: result}, secs).
    Without a *trace_cache* the sweep runs the seed evaluator."""
    results = {}
    t0 = time.perf_counter()
    for m in MACHINES:
        if trace_cache is None:
            evaluator = _seed_evaluator(specs, body, m, total_flops)
        else:
            evaluator = perfmodel_evaluator(
                specs, body, m, num_threads=NUM_THREADS,
                sample_threads=SAMPLE_THREADS, total_flops=total_flops,
                trace_cache=trace_cache)
        if eval_cache is not None:
            evaluator = eval_cache.wrap(evaluator, m, workload_sig)
        results[m.name] = search(cands, evaluator)
    return results, time.perf_counter() - t0


def _top5_labels(results):
    return {name: [o.candidate.label() for o in res.top(5)]
            for name, res in results.items()}


def test_tuner_throughput(benchmark, small_budget):
    min_speedup = float(os.environ.get("REPRO_TUNER_MIN_SPEEDUP", "5.0"))
    table = ExperimentTable(
        "Tuning throughput — Fig 4 GEMM sweep over SPR/GVT3/Zen4/ADL "
        "(candidates/s)",
        ["MxNxK", "cands", "seed c/s", "fast c/s", "speedup",
         "warm c/s", "top5"])
    budget = small_budget["tune_candidates"]
    speedups = []
    for (M, N, K) in SIZES:
        specs, cands, body, tf = _workload(M, N, K, budget)
        n_evals = len(cands) * len(MACHINES)

        seed_res, seed_s = _sweep(specs, cands, body, tf)
        fast_res, fast_s = _sweep(specs, cands, body, tf,
                                  trace_cache=TraceCache())
        sig = f"gemm-f32-{M}x{N}x{K}-nt{NUM_THREADS}-st{SAMPLE_THREADS}"
        ec = EvalCache()
        warm_cache = TraceCache()
        _sweep(specs, cands, body, tf, trace_cache=warm_cache,
               eval_cache=ec, workload_sig=sig)          # populate
        warm_res, warm_s = _sweep(specs, cands, body, tf,
                                  trace_cache=warm_cache,
                                  eval_cache=ec, workload_sig=sig)

        tops_equal = (_top5_labels(seed_res) == _top5_labels(fast_res)
                      == _top5_labels(warm_res))
        speedup = seed_s / fast_s
        speedups.append(speedup)
        table.add(f"{M}x{N}x{K}", n_evals, n_evals / seed_s,
                  n_evals / fast_s, speedup, n_evals / warm_s,
                  "yes" if tops_equal else "NO")

        assert tops_equal, "accelerated path changed the top-5 ranking"
        for name in seed_res:
            assert [o.score for o in seed_res[name].outcomes] == \
                   [o.score for o in fast_res[name].outcomes], \
                   f"scores diverged on {name}"

    table.note(f"threshold: fast >= {min_speedup}x seed "
               f"(REPRO_TUNER_MIN_SPEEDUP)")
    table.note("traces are machine-independent: the fast path captures "
               "each candidate once and replays it on all four testbeds")
    table.show()
    table.write_json("TUNER",
                     out_dir=os.environ.get("REPRO_BENCH_JSON_DIR", "."))

    assert max(speedups) >= min_speedup, \
        f"fast path {max(speedups):.1f}x < required {min_speedup}x"

    # timed micro-run: the steady-state (all caches warm) evaluation rate
    specs, cands, body, tf = _workload(1024, 1024, 1024, 8)
    tc = TraceCache()
    _sweep(specs, cands, body, tf, trace_cache=tc)
    benchmark(lambda: _sweep(specs, cands, body, tf, trace_cache=tc))
