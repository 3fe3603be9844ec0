"""The paper's lightweight performance-modeling tool (Fig 1 Box B3, §II-E).

Per-thread slice traces are replayed against a private <=3-level LRU
hierarchy; each event costs ``max(compute cycles, memory cycles)`` with
memory cycles from the residency level's bandwidth.  Data sharing between
threads is ignored ("For simplicity we ignore data-sharing"): the model
is the measurement *engine*'s array replay (:mod:`repro.simulator.engine`)
on a view with shared levels split 1/n per thread and no shared state,
so the two the Fig 6 experiment compares differ only in the hierarchy
they are given.

The tool's purpose is ranking loop_spec_strings: "loops with poor locality
and low-concurrency get a low score".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from .engine import _replay
from .lru import CacheHierarchy
from .memo import TraceCache

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

    Traces are captured through *trace_cache* (a
    :class:`~repro.simulator.memo.TraceCache`; a private one when None),
    once per iteration order, and replayed on arrays by the engine's
    replay on the model's view (:func:`_predict_compiled`).  Every field
    is bit-identical to the scalar LRU replay :func:`predict_traces`;
    traces whose footprints violate the reuse-distance preconditions
    raise ``ValueError``.  ``sim_body`` must be a pure function of
    ``ind``; pass a stable *body_key* when the closure is rebuilt per
    call.
    """
    if sample_threads is not None and sample_threads < 1:
        raise ValueError(
            f"sample_threads must be >= 1, got {sample_threads}")
    if trace_cache is None:
        trace_cache = TraceCache()
    num_threads = loop.num_threads
    sampled = sample_threads is not None and sample_threads < num_threads
    if sampled:
        step = max(1, num_threads // sample_threads)
        tids = list(range(0, num_threads, step))[:sample_threads]
        # include the last tid: static block distributions put the
        # remainder-starved thread at the end
        if tids[-1] != num_threads - 1:
            tids.append(num_threads - 1)
    else:
        tids = range(num_threads)
    with _obs().span("predict", spec=loop.spec_string,
                     machine=machine.name):
        pred = _predict_compiled(
            trace_cache.compiled_thread_traces(loop, sim_body, tids,
                                               body_key=body_key),
            machine, num_threads)
    if sampled and total_flops is None:
        total_flops = pred.total_flops * num_threads / len(tids)
    if total_flops is None:
        return pred
    return PerfPrediction(pred.seconds, total_flops,
                          pred.per_thread_seconds, pred.hit_fractions)


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
    """Scalar LRU replay of *traces*, one private hierarchy per thread:
    the test oracle of :func:`_predict_compiled`."""
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


def _predict_compiled(compiled, machine: MachineModel,
                      num_threads: int) -> PerfPrediction:
    """The model's view of the engine's array replay
    (:func:`~repro.simulator.engine._replay`): :func:`_thread_view`'s
    private hierarchy, bandwidths and frequency for every thread, and no
    shared state.  Every field equals :func:`predict_traces`."""
    capacities, bandwidths, freq = _thread_view(machine, max(1, num_threads))
    n = len(compiled)
    res = _replay(compiled, capacities, [np.array(bandwidths)] * n,
                  [freq] * n)
    tot_bytes = sum(res.level_bytes) or 1.0
    return PerfPrediction(
        seconds=res.seconds,
        total_flops=res.total_flops,
        per_thread_seconds=res.per_thread_seconds,
        hit_fractions=tuple(b / tot_bytes for b in res.level_bytes),
    )
