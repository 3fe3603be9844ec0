"""The paper's lightweight performance-modeling tool (Fig 1 Box B3, §II-E).

Per-thread slice traces are replayed against a private <=3-level LRU
hierarchy; each event costs ``max(compute cycles, memory cycles)`` with
memory cycles from the residency level's bandwidth.  Data sharing between
threads is ignored ("For simplicity we ignore data-sharing"), which is
precisely what distinguishes this *model* from the measurement *engine*
(:mod:`repro.simulator.engine`) — the Fig 6 experiment compares the two.

The tool's purpose is ranking loop_spec_strings: "loops with poor locality
and low-concurrency get a low score".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from .lru import CacheHierarchy
from .reuse import hit_levels
from .trace import ThreadTrace, trace_threaded_loop

__all__ = ["PerfPrediction", "predict", "predict_traces"]

GIGA = 1e9


@dataclass(frozen=True)
class PerfPrediction:
    """Predicted performance of one loop instantiation."""

    seconds: float
    total_flops: float
    per_thread_seconds: tuple
    hit_fractions: tuple      # per level incl. memory, aggregated

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.total_flops / self.seconds / GIGA

    @property
    def score(self) -> float:
        """Higher is better; used by the tuner to rank spec strings."""
        return self.gflops


def predict(loop: ThreadedLoop, sim_body, machine: MachineModel,
            sample_threads: int | None = None,
            total_flops: float | None = None,
            trace_cache=None, body_key=None) -> PerfPrediction:
    """Model the performance of *loop* on *machine*.

    ``sim_body(ind)`` describes the per-invocation work (see
    :mod:`repro.simulator.trace`).  ``sample_threads`` caps how many
    threads are traced and simulated (evenly spread over tids) for cheap
    tuning sweeps — the makespan uses the worst sampled thread.

    ``total_flops``: the whole-kernel flop count.  The iteration space is
    instantiation-independent, so callers usually know it exactly; pass
    it when sampling, otherwise the extrapolation from sampled threads
    over-credits schedules that starve most threads.

    *trace_cache* (a :class:`~repro.simulator.memo.TraceCache`) switches
    on the fast path: traces are captured once per iteration order and
    replayed through the vectorized reuse-distance simulator
    (:mod:`repro.simulator.reuse`) instead of per-access LRU updates.
    ``seconds``/``total_flops``/``score`` are bit-identical to the seed
    path (``hit_fractions`` can differ in the last ulps); traces whose
    footprints violate the reuse-distance preconditions transparently
    fall back to the LRU replay.  ``sim_body`` must be a pure function of
    ``ind``; pass a stable *body_key* when the closure is rebuilt per
    call.
    """
    with _obs().span("predict", spec=loop.spec_string,
                     machine=machine.name,
                     memoized=trace_cache is not None):
        if trace_cache is not None:
            return _predict_memoized(loop, sim_body, machine,
                                     sample_threads, total_flops,
                                     trace_cache, body_key)
        if sample_threads is not None and sample_threads < loop.num_threads:
            step = max(1, loop.num_threads // sample_threads)
            tids = list(range(0, loop.num_threads, step))[:sample_threads]
            # include the last tid: static block distributions put the
            # remainder-starved thread at the end
            if tids[-1] != loop.num_threads - 1:
                tids.append(loop.num_threads - 1)
            traces = trace_threaded_loop(loop, sim_body, tids=tids)
            pred = predict_traces(traces, machine, loop.num_threads)
            flops = (total_flops if total_flops is not None
                     else pred.total_flops * loop.num_threads / len(traces))
            return PerfPrediction(pred.seconds, flops,
                                  pred.per_thread_seconds,
                                  pred.hit_fractions)
        traces = trace_threaded_loop(loop, sim_body)
        pred = predict_traces(traces, machine, loop.num_threads)
        if total_flops is not None:
            pred = PerfPrediction(pred.seconds, total_flops,
                                  pred.per_thread_seconds,
                                  pred.hit_fractions)
        return pred


def _thread_view(machine: MachineModel, num_threads: int) -> tuple:
    """Per-thread private view of the hierarchy: shared levels contribute
    a 1/num_threads capacity and bandwidth share; data sharing itself is
    ignored.  Returns ``(capacities, bandwidths, freq)`` with the DRAM
    bandwidth appended last."""
    capacities = []
    bandwidths = []   # bytes/second per thread
    freq = machine.freq_ghz * GIGA
    for lv in machine.caches:
        if lv.shared:
            capacities.append(max(1, lv.size_bytes // num_threads))
            bandwidths.append(lv.bw_bytes_per_cycle * freq / num_threads)
        else:
            capacities.append(lv.size_bytes)
            bandwidths.append(lv.bw_bytes_per_cycle * freq)
    bandwidths.append(machine.dram_bw_gbytes * GIGA / num_threads)
    return capacities, bandwidths, freq


def predict_traces(traces, machine: MachineModel,
                   num_threads: int) -> PerfPrediction:
    """Scalar LRU replay of *traces*, one private hierarchy per thread
    (the seed path, and the oracle of :func:`_predict_compiled`)."""
    num_threads = max(1, num_threads)
    capacities, bandwidths, freq = _thread_view(machine, num_threads)
    n_levels = len(machine.caches)

    per_thread_s = []
    level_bytes = [0.0] * (n_levels + 1)
    total_flops = 0.0
    for trace in traces:
        hier = CacheHierarchy(capacities)
        t = 0.0
        for ev in trace.events:
            mem_s = 0.0
            for acc in ev.accesses:
                lvl = hier.lookup(acc.key, acc.footprint)
                mem_s += acc.nbytes * acc.cost_scale / bandwidths[lvl]
                level_bytes[lvl] += acc.nbytes
            comp_s = ev.compute_cycles() / freq
            t += max(comp_s, mem_s)
        per_thread_s.append(t)
        total_flops += trace.flops

    makespan = max(per_thread_s) if per_thread_s else 0.0
    tot_bytes = sum(level_bytes) or 1.0
    return PerfPrediction(
        seconds=makespan,
        total_flops=total_flops,
        per_thread_seconds=tuple(per_thread_s),
        hit_fractions=tuple(b / tot_bytes for b in level_bytes),
    )


def _predict_memoized(loop: ThreadedLoop, sim_body, machine: MachineModel,
                      sample_threads, total_flops, trace_cache,
                      body_key) -> PerfPrediction:
    """The memoized + vectorized twin of :func:`predict`.

    Same tid selection, same extrapolation arithmetic; replay goes
    through :func:`~repro.simulator.reuse.hit_levels` instead of
    per-access LRU updates.  Falls back to the LRU replay (still with
    memoized capture) when a trace violates the reuse-distance
    preconditions.
    """
    num_threads = loop.num_threads
    sampled = sample_threads is not None and sample_threads < num_threads
    if sampled:
        step = max(1, num_threads // sample_threads)
        tids = list(range(0, num_threads, step))[:sample_threads]
        if tids[-1] != num_threads - 1:
            tids.append(num_threads - 1)
    else:
        tids = list(range(num_threads))
    try:
        compiled = [trace_cache.compiled_thread_trace(loop, sim_body, tid,
                                                      body_key=body_key)
                    for tid in tids]
        pred = _predict_compiled(compiled, machine, num_threads)
    except ValueError:
        traces = [trace_cache.thread_trace(loop, sim_body, tid,
                                           body_key=body_key)
                  for tid in tids]
        pred = predict_traces(traces, machine, num_threads)
    if sampled:
        flops = (total_flops if total_flops is not None
                 else pred.total_flops * num_threads / len(tids))
        return PerfPrediction(pred.seconds, flops,
                              pred.per_thread_seconds, pred.hit_fractions)
    if total_flops is not None:
        return PerfPrediction(pred.seconds, total_flops,
                              pred.per_thread_seconds, pred.hit_fractions)
    return pred


def _predict_compiled(compiled, machine: MachineModel,
                      num_threads: int) -> PerfPrediction:
    """Vectorized replay of :class:`CompiledTrace`\\ s.

    ``seconds``/``total_flops`` are bit-identical to the scalar replay:
    per-event memory seconds accumulate via ``np.bincount`` (in-order
    element adds, like the scalar ``+=`` loop) and totals via
    ``np.cumsum(..)[-1]`` (sequential, unlike pairwise ``np.sum``).
    """
    num_threads = max(1, num_threads)
    capacities, bandwidths, freq = _thread_view(machine, num_threads)
    bw = np.asarray(bandwidths, dtype=np.float64)
    n_levels = len(machine.caches)
    level_bytes = np.zeros(n_levels + 1, dtype=np.float64)
    per_thread_s = []
    total_flops = 0.0
    obs = _obs()
    for ct in compiled:
        with obs.span("reuse_sim", events=ct.n_events):
            levels, _stats = hit_levels(ct.key_ids, ct.footprint,
                                        capacities, memo=ct.reuse_memo)
        if ct.n_events == 0:
            per_thread_s.append(0.0)
            continue
        mem_acc = ct.nbytes * ct.cost_scale / bw[levels]
        mem_ev = np.bincount(ct.event_of, weights=mem_acc,
                             minlength=ct.n_events)
        comp_ev = ct.compute_cycles / freq
        per_thread_s.append(float(np.cumsum(np.maximum(comp_ev, mem_ev))[-1]))
        total_flops += ct.total_flops
        level_bytes += np.bincount(levels, weights=ct.nbytes,
                                   minlength=n_levels + 1)
    makespan = max(per_thread_s) if per_thread_s else 0.0
    tot_bytes = float(level_bytes.sum()) or 1.0
    return PerfPrediction(
        seconds=makespan,
        total_flops=total_flops,
        per_thread_seconds=tuple(per_thread_s),
        hit_fractions=tuple(float(b) / tot_bytes for b in level_bytes),
    )
