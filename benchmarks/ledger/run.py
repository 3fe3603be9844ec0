#!/usr/bin/env python3
"""The repo's performance ledger: four workloads, end-to-end and per layer.

One workload in this process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload kernels --seed 0 \\
        --seconds 30 --trace 0

prints the workload's headline numbers and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in a fresh child process, one after another::

    python3 benchmarks/ledger/run.py --seed 0 [--trace-dir DIR]
        [--seeds 0,1,2 --sets 2] [--out FILE] [--compare OLD.json]

prints every metric with its unit and sample count, checks run-to-run
spread against each metric's bound, writes the aggregate JSON (default
``benchmarks/ledger/out/ledger.json``) and, with ``--compare``, the
per-metric deltas against an earlier aggregate such as
``benchmarks/ledger/baseline.json``, flagging end-to-end metrics that
worsened past their bound.  See README.md in this directory.
"""

from __future__ import annotations

import os

# the load is one closed-loop client on one core: no BLAS/OpenMP threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("kernels", "pricing", "tune", "serving")
#: a run sets up once before its window and again inside it whenever
#: set-up time so far is below this share of the elapsed window, at most
#: ``SETUP_MAX`` times in all; spread over the run, one burst of host
#: contention moves few samples.  ``setup_s`` is their median
SETUP_SHARE, SETUP_MAX = 0.25, 40
#: after each set-up and operation, one reference sample per this many
#: seconds it took (at least one, at most 20)
REF_EVERY_S = 0.1


def _load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# -- one workload in this process ---------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Reference:
    """Four fixed sub-millisecond loops, one per resource the workloads
    lean on: interpreter work on a small working set, dict lookups over a
    table larger than L2, a small matmul, and a NumPy reduction over a
    buffer larger than L2.

    A shared host's speed drifts, here by up to 2x over minutes as other
    tenants come and go, and the drift slows each workload differently.
    The runner samples the loops after every set-up and operation and
    scales each timed interval by the geometric mean, over the parts, of
    the part's ``NOMINAL_S`` over its median time within ``WINDOW_S`` of
    the interval.  In a 9-minute series of interleaved operations of all
    four workloads on the baseline host, this left a fifth of the raw
    spread of 30-second medians; one interpreter-and-matmul loop scaled
    by its median over the whole run left two thirds."""

    #: each part's median time on a quiet core of the baseline host;
    #: reported times are scaled to this speed
    NOMINAL_S = np.array([1.5e-3, 0.5e-3, 0.5e-3, 1.2e-3])
    WINDOW_S = 1.0

    def __init__(self):
        self.table = {i: i for i in range(1 << 16)}
        self.probes = list(range(0, 1 << 16, 7))
        self.buf = np.ones(1 << 19)
        self.at: list = []          # perf_counter at the end of each sample
        self.parts: list = []       # the part times of each sample

    def sample(self) -> None:
        t = [time.perf_counter()]
        lru: OrderedDict = OrderedDict()
        for i in range(5000):
            key = i % 997
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = i
                if len(lru) > 500:
                    lru.popitem(last=False)
        t.append(time.perf_counter())
        total = 0
        for k in self.probes:
            total += self.table[k]
        t.append(time.perf_counter())
        a = np.ones((160, 160), np.float32)
        for _ in range(4):
            a = a @ a * 1e-3
        t.append(time.perf_counter())
        for _ in range(4):
            self.buf.sum()
        t.append(time.perf_counter())
        self.at.append(t[-1])
        self.parts.append(np.diff(t))

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        near = np.median(self.parts[lo:hi] or self.parts, axis=0)
        return float(np.exp(np.mean(np.log(self.NOMINAL_S / near))))

    def scaled(self, intervals) -> list:
        """Durations of ``(start, end)`` *intervals*, each scaled."""
        return [(t1 - t0) * self.scale(t0, t1) for t0, t1 in intervals]


def _durations(intervals) -> list:
    return [t1 - t0 for t0, t1 in intervals]


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, trace_dir: str | None = None) -> dict:
    """Set up *name*, then run its operations round-robin for *seconds*,
    setting up again between them (see ``SETUP_SHARE``); returns the
    full result.

    Each set-up starts from emptied process-wide caches and leaves the
    workload warm, as the one before the window does.

    The first pass over the kinds always runs, so every kind has a
    sample; after it an operation (with a set-up, if one is due) starts
    only if its last duration still fits the window.  With *trace*, that
    first pass runs untraced and every later operation traced, so both
    wall times exist for the tracing-overhead ratio.  After each set-up
    and operation the :class:`Reference` loops run in proportion to its
    time."""
    from workloads import WORKLOADS, reset_process_caches
    wl = WORKLOADS[name](seed, smoke)
    ref = Reference()
    setups: list = []                   # (start, end) of each set-up

    def reference(after_s: float) -> None:
        for _ in range(min(20, max(1, round(after_s / REF_EVERY_S)))):
            ref.sample()

    def set_up() -> None:
        gc.collect()
        reset_process_caches()
        t0 = time.perf_counter()
        wl.setup()
        setups.append((t0, time.perf_counter()))
        reference(setups[-1][1] - t0)

    set_up()

    rec = None
    if trace:
        from layers import REACH, TARGETS
        from spans import SpanRecorder
        rec = SpanRecorder(TARGETS, REACH)
        rec.prepare()

    kinds = wl.kinds
    plain = {k: [] for k in kinds}      # (start, end) of untraced ops
    traced = {k: [] for k in kinds}
    records = {k: [] for k in kinds}
    first: dict = {}
    errors: list = []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        tracing = rec is not None and i >= len(kinds)
        must_run = i < len(kinds) or (tracing and i == len(kinds))
        elapsed = time.perf_counter() - start
        setup_due = (i >= len(kinds) and len(setups) < SETUP_MAX
                     and sum(_durations(setups)) < SETUP_SHARE * elapsed)
        if not must_run:
            last = (traced[kind] if tracing and traced[kind]
                    else plain[kind])
            est = sum(_durations(last[-1:]))
            if setup_due:
                est += sum(_durations(setups[-1:]))
            if elapsed + est > seconds:
                break
        if setup_due:
            set_up()
        arg = wl.prepare(kind)
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracing:
                with rec.installed(), rec.op(kind):
                    out = wl.run(kind, arg)
            else:
                out = wl.run(kind, arg)
            t1 = time.perf_counter()
            errs = wl.check(kind, out)
            summary = wl.summary(kind, out)
            if kind in first and summary != first[kind]:
                errs.append(f"{kind}: output differs from its first run")
            first.setdefault(kind, summary)
            if not errs:
                (traced if tracing else plain)[kind].append((t0, t1))
                if not tracing:
                    records[kind].append(wl.record(kind, out))
            del out
        except Exception as exc:       # a failed operation; keep going
            errs = [f"{kind}: {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            errors.extend(errs)
        reference(time.perf_counter() - t0)
        i += 1
    window_s = time.perf_counter() - start

    cross = wl.cross_check(first)
    attempted += 1
    if cross:
        failed += 1
        errors.extend(cross)
    missing = [k for k in kinds if not plain[k]]
    if missing:
        errors.append(f"no successful operation of {missing}")

    wall = {k: _durations(plain[k]) for k in kinds}
    ordered = {k: first[k] for k in kinds if k in first}
    digest = hashlib.sha256(json.dumps(ordered, sort_keys=True)
                            .encode()).hexdigest()
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "correct": failed == 0 and not missing,
        "attempted": attempted, "failed": failed,
        "errors": errors[:20], "digest": digest,
        "window_s": window_s, "setup_s_all": _durations(setups),
        "samples": {k: len(plain[k]) for k in kinds},
        "op_s": wall,
        "details": {n: {"value": v, "unit": u, "n": c} for n, (v, u, c)
                    in wl.details(wall, records, ordered).items()},
    }
    result["details"].update({
        "setup_wall_s": {"value": _median(_durations(setups)), "unit": "s",
                         "n": len(setups)},
        "pass_wall_s": {"value": sum(_median(wall[k]) for k in kinds),
                        "unit": "s", "n": min(map(len, wall.values()))},
        "reference_ms": {"value": _median([p.sum() for p in ref.parts])
                         * 1e3, "unit": "ms", "n": len(ref.parts)}})
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": _median(ref.scaled(setups)), "unit": "s"},
            "pass_s": {"value": sum(_median(ref.scaled(plain[k]))
                                    for k in kinds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        return result

    from layers import per_layer_metrics
    both = [k for k in kinds if plain[k] and traced[k]]
    base = sum(_median(ref.scaled(plain[k])) for k in both)
    overhead = sum(_median(ref.scaled(traced[k])) for k in both) / base \
        - 1.0 if base else 0.0
    n_traced = sum(len(v) for v in traced.values())
    traced_wall = sum(sum(_durations(v)) for v in traced.values())
    result["traced_samples"] = {k: len(traced[k]) for k in kinds}
    result["metrics"] = {
        n: {"value": v, "unit": u} for n, (v, u) in per_layer_metrics(
            rec, max(1, n_traced), traced_wall or 1.0, overhead).items()}
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        result["trace_file"] = rec.write_chrome(
            os.path.join(trace_dir, f"{name}.trace.json"),
            metadata={"workload": name, "seed": seed})
    return result


def _print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  window "
          f"{result['window_s']:.1f} s  ops {result['attempted']} "
          f"(failed {result['failed']})  samples {result['samples']}")
    for n, m in result["metrics"].items():
        print(f"  {n:40s} {m['value']:12.6g} {m['unit']}")
    for n, d in result["details"].items():
        print(f"  {n:40s} {d['value']:12.6g} {d['unit']:8s} n={d['n']}")
    print(f"  digest {result['digest']}")
    for e in result["errors"]:
        print(f"  CHECK FAILED: {e}")


# -- every workload, each in a child process -----------------------------------

def _fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system()}


def _child(workload: str, seed: int, seconds: float, trace: bool,
           smoke: bool, trace_dir: str | None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", out]
        if smoke:
            cmd.append("--smoke")
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 600)
        if not os.path.exists(out):
            raise RuntimeError(f"{workload} (seed {seed}) exited "
                               f"{proc.returncode} without a result")
        with open(out) as fh:
            return json.load(fh)


def _spread(values):
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def _worse(old: float, new: float, better: str) -> float:
    """Relative change, positive when *new* is worse than *old*."""
    if not old:
        return 0.0
    delta = (new - old) / abs(old)
    return delta if better == "lower" else -delta


def ledger(args) -> int:
    spec = _load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
        else [args.seed]
    names = WORKLOAD_NAMES
    runs = {w: [[] for _ in range(args.sets)] for w in names}
    for k in range(args.sets):
        for seed in seeds:
            for w in names:
                res = _child(w, seed, seconds, False, args.smoke, None)
                runs[w][k].append(res)
                print(f"[set {k} seed {seed}] {w}: " + ", ".join(
                    f"{n}={m['value']:.6g}"
                    for n, m in res["metrics"].items())
                    + ("" if res["correct"] else "  CHECKS FAILED"),
                    flush=True)
    traced = {}
    if args.trace_dir:
        for w in names:
            traced[w] = _child(w, seeds[0], seconds, True, args.smoke,
                               args.trace_dir)

    report = {"fingerprint": _fingerprint(), "seconds": seconds,
              "seeds": seeds, "sets": args.sets, "smoke": args.smoke,
              "workloads": {}}
    ok = True
    for w in names:
        flat = [r for s in runs[w] for r in s]
        entry = {"attempted": sum(r["attempted"] for r in flat),
                 "failed": sum(r["failed"] for r in flat),
                 "errors": [e for r in flat for e in r["errors"]][:20],
                 "digests": {}, "end_to_end": {}, "details": {}}
        ok &= entry["failed"] == 0 and all(r["correct"] for r in flat)
        for r in flat:
            prev = entry["digests"].setdefault(str(r["seed"]), r["digest"])
            if prev != r["digest"]:
                entry["errors"].append(
                    f"seed {r['seed']}: output digest differs between runs")
                ok = False
        for n, m in e2e.items():
            vals = [r["metrics"][n]["value"] for r in flat]
            med, q1, q3, spread = _spread(vals)
            set_meds = [statistics.median(r["metrics"][n]["value"]
                                          for r in s) for s in runs[w]]
            drift = max((_worse(set_meds[0], x, m["better"])
                         for x in set_meds[1:]), default=0.0)
            entry["end_to_end"][n] = {
                "unit": m["unit"], "better": m["better"],
                "bound": m["bound"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "n": len(vals), "set_medians": set_meds,
                "steady": spread <= m["bound"] / 3 and drift <= m["bound"]}
        for n in flat[0]["details"]:
            vals = [r["details"][n]["value"] for r in flat]
            entry["details"][n] = {
                "unit": flat[0]["details"][n]["unit"],
                "median": statistics.median(vals),
                "n": sum(r["details"][n]["n"] for r in flat)}
        if w in traced:
            t = traced[w]
            entry["per_layer"] = {n: {"unit": m["unit"], "median": m["value"],
                                      "n": 1}
                                  for n, m in t["metrics"].items()}
            ok &= t["correct"]
        report["workloads"][w] = entry
    _print_ledger(report)

    out = args.out or os.path.join(HERE, "out", "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    if args.compare:
        with open(args.compare) as fh:
            ok &= compare(json.load(fh), report)
    return 0 if ok else 1


def _print_ledger(report: dict) -> None:
    print(f"\n== ledger: {report['seconds']} s per run, seeds "
          f"{report['seeds']} x {report['sets']} set(s) ==")
    for w, entry in report["workloads"].items():
        print(f"-- {w}: {entry['attempted']} ops, {entry['failed']} failed")
        for n, m in entry["end_to_end"].items():
            print(f"  {n:34s} {m['median']:12.6g} {m['unit']:8s} "
                  f"n={m['n']:<3d} spread {m['spread']:.3f} "
                  f"(bound {m['bound']})"
                  + ("" if m["steady"] else "  NOT STEADY"))
        for n, d in entry["details"].items():
            print(f"  {n:34s} {d['median']:12.6g} {d['unit']:8s} "
                  f"n={d['n']}")
        for n, d in entry.get("per_layer", {}).items():
            if d["median"]:
                print(f"  {n:34s} {d['median']:12.6g} {d['unit']}")
        print(f"  digests {entry['digests']}")
        for e in entry["errors"]:
            print(f"  CHECK FAILED: {e}")


def compare(old: dict, new: dict) -> bool:
    """Print per-metric deltas of *new* against *old*; False if an
    end-to-end metric worsened past its bound on some workload.

    Times and memory are only comparable on the same host: when the two
    fingerprints differ, the deltas are printed but not gated."""
    gate = old.get("fingerprint") == new["fingerprint"]
    ok = True
    print("\n== compare: new vs old (+ = worse for end-to-end metrics) ==")
    if not gate:
        print(f"WARNING: host fingerprints differ, deltas are not gated\n"
              f"  old {old.get('fingerprint')}\n  new {new['fingerprint']}")
    for w, entry in new["workloads"].items():
        before = old["workloads"].get(w)
        if before is None:
            print(f"-- {w}: not in the old ledger")
            continue
        print(f"-- {w}")
        for n, m in entry["end_to_end"].items():
            o = before["end_to_end"].get(n)
            if o is None:
                continue
            worse = _worse(o["median"], m["median"], m["better"])
            flag = gate and worse > m["bound"]
            ok &= not flag
            print(f"  {n:34s} {o['median']:12.6g} -> {m['median']:12.6g} "
                  f"{m['unit']:6s} {worse:+7.1%}"
                  + (f"  REGRESSION (bound {m['bound']:.0%})" if flag
                     else ""))
        for n, m in entry.get("per_layer", {}).items():
            o = before.get("per_layer", {}).get(n)
            if o is not None and (o["median"] or m["median"]):
                print(f"  {n:34s} {o['median']:12.6g} -> "
                      f"{m['median']:12.6g} {m['unit']}")
    return ok


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window per run (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--trace-dir", help="write <workload>.trace.json here "
                   "(ledger mode: also run every workload traced)")
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, for the smoke test")
    p.add_argument("--out", help="write the JSON result here")
    p.add_argument("--seeds", help="ledger mode: comma-separated seeds")
    p.add_argument("--sets", type=int, default=1,
                   help="ledger mode: repeat the seeds this many times")
    p.add_argument("--compare", help="ledger mode: an earlier aggregate "
                   "JSON to print deltas against")
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload is None:
        return ledger(args)
    seconds = args.seconds if args.seconds else _load_spec()["run_seconds"]
    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.smoke, args.trace_dir)
    _print_result(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
