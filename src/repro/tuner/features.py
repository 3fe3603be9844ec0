"""Deterministic feature vectors over spec strings and compiled traces.

The learned cost model (:mod:`repro.tuner.model`) never sees a spec
string or a trace directly — it sees the fixed-width float64 vector this
module extracts.  Three feature families, each individually optional so
train- and inference-time vectors line up:

* **spec features** — loop-order encoding, blocking factors, parallel
  degree and placement, schedule directives — computed from the
  candidate's :class:`~repro.core.plan.LoopNestPlan` (the canonical
  resolved form, so e.g. ``k_step`` folding and occurrence steps are
  exactly what the generated nest uses).  The plan comes from the
  process-global nest cache, and the row is kept on the plan, so each
  (declarations, spec string, thread count) is featurized once for as
  long as the cache keeps its plan;
* **machine features** — cache capacities/bandwidths, core count,
  frequency (log-scaled);
* **trace features** — per-level reuse-distance histogram summaries of a
  :class:`~repro.simulator.reuse.CompiledTrace`, via the raw
  :func:`~repro.simulator.reuse.stack_distances` hook.

Determinism contract: the same ``(candidate, base_specs, machine,
trace)`` inputs produce a **byte-identical** vector in any process under
any ``PYTHONHASHSEED`` — no ``hash()``, no set iteration, no RNG —
asserted by ``tests/tuner/test_features.py``.  ``FEATURE_VERSION`` names
the layout; a model trained on one version refuses vectors of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.cache import global_nest_cache
from ..core.errors import SpecError

__all__ = ["FEATURE_VERSION", "FeatureExtractor", "spec_features",
           "machine_features", "trace_features", "spec_feature_names",
           "machine_feature_names", "trace_feature_names"]

#: bump whenever the vector layout changes; models persist it and refuse
#: to score vectors of another version
FEATURE_VERSION = 1

#: logical loops covered per spec (a..d); deeper nests keep their first
#: _MAX_LOOPS loops' features and fold the rest into the global block
_MAX_LOOPS = 4

#: cache levels covered by machine/trace features
_MAX_LEVELS = 3

#: log2-spaced reuse-distance histogram edges (bytes): 16KiB .. 64MiB
_DIST_EDGES = tuple(float(1 << p) for p in range(14, 27, 2))


def _log2(x: float) -> float:
    """log2 clamped at 0 for degenerate inputs — features never NaN."""
    return math.log2(x) if x > 0 else 0.0


# -- spec features --------------------------------------------------------

def spec_feature_names() -> list:
    names = [
        "spec/n_levels", "spec/n_loops", "spec/par_mode",
        "spec/n_parallel", "spec/collapse_ways_log2",
        "spec/concurrency_log2", "spec/num_threads_log2",
        "spec/occupancy", "spec/par_depth_frac", "spec/barriers",
        "spec/sched_dynamic", "spec/sched_chunk_log2",
        "spec/innermost_is_reduction",
    ]
    for i in range(_MAX_LOOPS):
        c = chr(ord("a") + i)
        names += [
            f"spec/{c}/present", f"spec/{c}/trips_log2",
            f"spec/{c}/n_occ", f"spec/{c}/first_depth_frac",
            f"spec/{c}/last_depth_frac", f"spec/{c}/inner_step_log2",
            f"spec/{c}/outer_block_log2", f"spec/{c}/parallel",
            f"spec/{c}/par_ways_log2",
        ]
    return names


def spec_features(spec_string: str, base_specs,
                  num_threads: int | None = None) -> np.ndarray:
    """Feature vector of one resolved spec (raises
    :class:`~repro.core.errors.SpecError` when the string is invalid for
    these bounds, like every other consumer of the plan).  The caller
    owns the returned array."""
    return _spec_row(spec_string, base_specs, num_threads).copy()


def _spec_row(spec_string: str, base_specs, num_threads) -> np.ndarray:
    """The read-only spec-feature row the plan keeps for *num_threads*."""
    plan = global_nest_cache().plan(base_specs, spec_string)
    row = plan.feature_rows.get(num_threads)
    if row is None:
        row = _plan_features(plan, num_threads)
        row.flags.writeable = False
        row = plan.feature_rows.setdefault(num_threads, row)
    return row


def _plan_features(plan, num_threads) -> np.ndarray:
    levels = plan.levels
    n_levels = len(levels)
    parsed = plan.parsed

    out = np.zeros(len(spec_feature_names()), dtype=np.float64)
    par_levels = [lv for lv in levels if lv.parallel or lv.grid_axis]
    concurrency = 1
    for lv in par_levels:
        ways = lv.grid_ways if lv.grid_axis else lv.outer_step // lv.step
        concurrency *= max(1, ways)
    nt = num_threads if num_threads else concurrency
    groups = parsed.collapse_groups()
    collapse = max((len(g) for g in groups), default=0)

    out[0] = float(n_levels)
    out[1] = float(plan.num_loops)
    out[2] = float(plan.par_mode)
    out[3] = float(len(par_levels))
    out[4] = _log2(collapse + 1)
    out[5] = _log2(concurrency)
    out[6] = _log2(nt)
    # occupancy: how well the parallel iteration space feeds the threads
    # (1.0 = perfectly divisible, < 1 = remainder-starved tail)
    if nt > 0 and concurrency > 0:
        out[7] = (concurrency / nt) / math.ceil(concurrency / nt)
    if par_levels:
        out[8] = par_levels[0].position / max(1, n_levels - 1) \
            if n_levels > 1 else 0.0
    out[9] = float(sum(1 for lv in levels if lv.barrier_after))
    out[10] = 1.0 if parsed.schedule == "dynamic" else 0.0
    out[11] = _log2(parsed.chunk + 1)
    out[12] = 1.0 if levels and levels[-1].char == "a" else 0.0

    base = 13
    per = 9
    for i in range(min(plan.num_loops, _MAX_LOOPS)):
        c = chr(ord("a") + i)
        occ = [lv for lv in levels if lv.char == c]
        if not occ:
            continue
        o = base + i * per
        spec = plan.specs[i]
        trips = (spec.bound - spec.start) // spec.step
        out[o + 0] = 1.0
        out[o + 1] = _log2(trips)
        out[o + 2] = float(len(occ))
        denom = max(1, n_levels - 1)
        out[o + 3] = occ[0].position / denom
        out[o + 4] = occ[-1].position / denom
        out[o + 5] = _log2(occ[-1].step // spec.step)
        out[o + 6] = _log2(occ[0].outer_step // occ[0].step)
        par = [lv for lv in occ if lv.parallel or lv.grid_axis]
        if par:
            lv = par[0]
            ways = lv.grid_ways if lv.grid_axis else lv.outer_step // lv.step
            out[o + 7] = 1.0
            out[o + 8] = _log2(max(1, ways))
    return out


# -- machine features -----------------------------------------------------

def machine_feature_names() -> list:
    names = ["machine/cores_log2", "machine/freq_ghz",
             "machine/dram_bw_log2"]
    for li in range(_MAX_LEVELS):
        names += [f"machine/l{li + 1}_bytes_log2",
                  f"machine/l{li + 1}_bw_log2",
                  f"machine/l{li + 1}_shared"]
    return names


def machine_features(machine) -> np.ndarray:
    out = np.zeros(len(machine_feature_names()), dtype=np.float64)
    out[0] = _log2(machine.total_cores)
    out[1] = float(machine.freq_ghz)
    out[2] = _log2(machine.dram_bw_gbytes)
    for li, lv in enumerate(machine.caches[:_MAX_LEVELS]):
        o = 3 + li * 3
        out[o + 0] = _log2(lv.size_bytes)
        out[o + 1] = _log2(lv.bw_bytes_per_cycle)
        out[o + 2] = 1.0 if lv.shared else 0.0
    return out


# -- trace features -------------------------------------------------------

def trace_feature_names() -> list:
    names = ["trace/accesses_log2", "trace/events_log2",
             "trace/unique_keys_log2", "trace/bytes_log2",
             "trace/write_frac", "trace/flops_per_byte_log2",
             "trace/cold_frac", "trace/mean_dist_log2"]
    names += [f"trace/dist_le_{int(e) >> 10}k"
              for e in _DIST_EDGES]
    return names


def trace_features(compiled) -> np.ndarray:
    """Reuse-distance histogram summary of one
    :class:`~repro.simulator.reuse.CompiledTrace` (machine-free: the
    distances are thresholded at fixed byte edges, not at any particular
    hierarchy's capacities)."""
    from ..simulator.reuse import stack_distances
    out = np.zeros(len(trace_feature_names()), dtype=np.float64)
    n = compiled.n_accesses
    if n == 0:
        return out
    total_bytes = float(compiled.nbytes.sum())
    out[0] = _log2(n)
    out[1] = _log2(compiled.n_events)
    out[2] = _log2(len(compiled.keys))
    out[3] = _log2(total_bytes)
    out[4] = float(np.count_nonzero(compiled.write)) / n
    out[5] = _log2(compiled.total_flops / max(total_bytes, 1.0))
    dist = stack_distances(compiled.key_ids, compiled.footprint)
    cold = dist < 0
    out[6] = float(np.count_nonzero(cold)) / n
    warm = dist[~cold].astype(np.float64)
    if warm.size:
        out[7] = _log2(float(warm.mean()) + 1.0)
        for i, edge in enumerate(_DIST_EDGES):
            out[8 + i] = float(np.count_nonzero(warm <= edge)) / n
    return out


# -- the combined extractor ----------------------------------------------

@dataclass
class FeatureExtractor:
    """One featurization context: fixed base specs, optional machine,
    optional trace capture.

    ``vector(candidate)`` returns the float64 feature vector of one
    :class:`~repro.tuner.generator.Candidate` (or a plain spec string)
    under this context; :attr:`names` aligns with it index-for-index.

    With ``with_trace=True`` the extractor captures (or cache-hits) the
    per-thread compiled trace of ``trace_tid`` through ``trace_cache``
    (a private one when None) and appends its
    reuse-distance summary — the expensive, high-signal family, used
    when traces already exist (training-corpus enrichment) rather than
    in the cheap screening path.
    """

    base_specs: tuple
    machine: object = None
    num_threads: int | None = None
    with_trace: bool = False
    sim_body: object = None
    trace_cache: object = None
    body_key: object = None
    trace_tid: int = 0

    def __post_init__(self):
        self.base_specs = tuple(self.base_specs)
        if self.with_trace and self.sim_body is None:
            raise ValueError("with_trace=True needs a sim_body")
        if self.with_trace and self.trace_cache is None:
            from ..simulator.memo import TraceCache
            self.trace_cache = TraceCache()
        names = list(spec_feature_names())
        if self.machine is not None:
            names += machine_feature_names()
        if self.with_trace:
            names += trace_feature_names()
        self.names = names
        self.version = FEATURE_VERSION
        self._machine_row = (None if self.machine is None
                             else machine_features(self.machine))

    def vector(self, candidate) -> np.ndarray:
        """Feature vector of *candidate* (Candidate or spec string).

        Raises :class:`~repro.core.errors.SpecError` for candidates
        invalid under these bounds — the same ones every evaluator
        skips."""
        if isinstance(candidate, str):
            spec_string, specs = candidate, self.base_specs
        else:
            spec_string = candidate.spec_string
            specs = candidate.build_specs(self.base_specs)
        parts = [_spec_row(spec_string, specs, self.num_threads)]
        if self._machine_row is not None:
            parts.append(self._machine_row)
        if self.with_trace:
            parts.append(trace_features(self._compiled(candidate, specs)))
        return np.concatenate(parts)

    def matrix(self, candidates) -> tuple:
        """Stack vectors for *candidates*, skipping invalid ones.

        Returns ``(X, kept_indices)`` — ``X[i]`` is the vector of
        ``candidates[kept_indices[i]]``."""
        rows, kept = [], []
        for i, cand in enumerate(candidates):
            try:
                rows.append(self.vector(cand))
            except SpecError:
                continue
            kept.append(i)
        X = (np.stack(rows) if rows
             else np.empty((0, len(self.names)), dtype=np.float64))
        return X, kept

    def _compiled(self, candidate, specs):
        from ..core.threaded_loop import ThreadedLoop
        if isinstance(candidate, str):
            loop = ThreadedLoop(specs, candidate,
                                num_threads=self.num_threads)
        else:
            loop = candidate.build_loop(self.base_specs,
                                        num_threads=self.num_threads)
        tid = min(self.trace_tid, loop.num_threads - 1)
        return self.trace_cache.compiled_thread_trace(
            loop, self.sim_body, tid, body_key=self.body_key)
