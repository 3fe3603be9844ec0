"""The measurement substrate: a richer trace-driven platform simulator.

This engine plays the role of the paper's physical testbeds.  It extends
the §II-E methodology (which the lightweight :mod:`perfmodel` implements
verbatim) with the effects the paper names when explaining its results:

* a genuinely **shared LLC** processed in lock-step across threads, so
  cross-thread reuse (all cores reading the same B panels) hits, and
  capacity is truly shared — "the traces could be processed in lock-step
  fashion to account for common sub-tensors in shared levels" (§II-E);
* **remote-written lines**: reading a slice another core produced pays the
  coherence/mesh penalty — the mechanism behind the MLP LLC ceiling
  ("core-to-core transfers as the activations flow from one layer to the
  next; on SPR the LLC bandwidth is the limiting factor", §V-A1);
* **bandwidth contention**: shared-level and DRAM bandwidth is divided
  among active threads;
* **hybrid cores** (ADL): threads map to P/E clusters with different
  frequency/IPC, and ``schedule(dynamic)`` specs are re-assigned greedily
  to the earliest-available core (§V-A4);
* per-kernel **dispatch overhead**, so tiny kernels do not look free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from ..platform.machine import CoreCluster, MachineModel
from ..tpp.dtypes import DType
from .lru import CacheHierarchy, LRUCache
from .memo import TraceCache
from .trace import BodyEvent, ThreadTrace

__all__ = ["SimResult", "simulate", "simulate_traces", "simulate_flat"]

GIGA = 1e9


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated kernel execution."""

    seconds: float
    total_flops: float
    per_thread_seconds: tuple
    level_bytes: tuple        # bytes served per cache level (+ memory last)
    remote_hits: int = 0

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.total_flops / self.seconds / GIGA

    def level_fraction(self, i: int) -> float:
        tot = sum(self.level_bytes) or 1.0
        return self.level_bytes[i] / tot


class _Core:
    """Per-core simulation state."""

    __slots__ = ("core_id", "cluster", "hier", "time", "freq")

    def __init__(self, core_id: int, cluster: CoreCluster, private_caps):
        self.core_id = core_id
        self.cluster = cluster
        self.hier = CacheHierarchy(private_caps)
        self.time = 0.0
        self.freq = cluster.freq_ghz * GIGA


class _SharedState:
    """Shared LLC + bandwidth accounting.

    Per-event costs use the *single-core streaming limit* (a lone core
    cannot saturate the chip's shared bandwidth); aggregate pressure is
    enforced afterwards by global bandwidth floors on the makespan
    (``total shared bytes / total bandwidth``) — a two-level roofline.
    """

    def __init__(self, machine: MachineModel, num_threads: int):
        self.machine = machine
        self.num_threads = max(1, num_threads)
        llc = machine.llc
        self.llc = LRUCache(llc.size_bytes) if llc.shared else None
        freq = machine.freq_ghz * GIGA
        self.llc_bw_total = llc.bw_bytes_per_cycle * freq
        self.llc_bw = min(self.llc_bw_total,
                          machine.core_llc_bw_bytes_per_cycle * freq)
        self.dram_bw_total = machine.dram_bw_gbytes * GIGA
        self.dram_bw = min(self.dram_bw_total,
                           machine.core_dram_gbytes * GIGA)
        self.llc_bytes = 0.0
        self.dram_bytes = 0.0
        self.remote_hits = 0

    def floors(self) -> float:
        """Minimum makespan imposed by aggregate shared bandwidth."""
        return max(self.llc_bytes / self.llc_bw_total,
                   self.dram_bytes / self.dram_bw_total)


def _cluster_scale(cluster: CoreCluster, lead: CoreCluster,
                   dtype: DType | None) -> float:
    """Compute-throughput ratio of a core vs the leading cluster."""
    if cluster is lead:
        return 1.0
    dt = dtype if dtype is not None else DType.F32
    try:
        num = cluster.flops_per_cycle(dt) * cluster.freq_ghz
        den = lead.flops_per_cycle(dt) * lead.freq_ghz
        return num / den
    except ValueError:
        return cluster.ipc_scale * cluster.freq_ghz / lead.freq_ghz


def _event_seconds(ev: BodyEvent, core: _Core, shared: _SharedState,
                   machine: MachineModel, lead: CoreCluster,
                   private_bws, level_bytes) -> float:
    """Cost of one event on *core*, updating caches and stats."""
    mem_s = 0.0
    n_priv = len(private_bws)
    for acc in ev.accesses:
        lvl = n_priv  # assume beyond private levels
        for i, cache in enumerate(core.hier.levels):
            if cache.access(acc.key, acc.footprint, core.core_id):
                lvl = i
                break
        nbytes_eff = acc.nbytes * acc.cost_scale
        if lvl < n_priv:
            mem_s += nbytes_eff / private_bws[lvl](core)
            level_bytes[lvl] += acc.nbytes
        elif shared.llc is not None:
            # read misses insert as clean/shared (owner -1): only lines
            # *written* by another core pay the coherence penalty
            hit = shared.llc.access(acc.key, acc.footprint, -1)
            if hit:
                owner = shared.llc.owner_of(acc.key)
                cost = nbytes_eff / shared.llc_bw
                if owner not in (-1, core.core_id):
                    cost *= machine.remote_hit_penalty
                    shared.remote_hits += 1
                mem_s += cost
                level_bytes[n_priv] += acc.nbytes
                shared.llc_bytes += nbytes_eff
            else:
                mem_s += nbytes_eff / shared.dram_bw
                level_bytes[n_priv + 1] += acc.nbytes
                shared.dram_bytes += nbytes_eff
        else:
            mem_s += nbytes_eff / shared.dram_bw
            level_bytes[n_priv + 1] += acc.nbytes
            shared.dram_bytes += nbytes_eff
        if acc.write and shared.llc is not None:
            shared.llc.set_owner(acc.key, core.core_id)

    scale = _cluster_scale(core.cluster, lead, None)
    lead_freq = lead.freq_ghz * GIGA
    comp_s = ev.compute_cycles() / (lead_freq * scale)
    return max(comp_s, mem_s)


def _build_cores(machine: MachineModel, num_threads: int):
    private = [lv for lv in machine.caches if not lv.shared]
    caps = [lv.size_bytes for lv in private]
    bws = [(lambda lv: (lambda core: lv.bw_bytes_per_cycle * core.freq))(lv)
           for lv in private]
    cores = []
    cid = 0
    for cluster in machine.clusters:
        for _ in range(cluster.count):
            if cid >= num_threads:
                break
            cores.append(_Core(cid, cluster, caps))
            cid += 1
    while cid < num_threads:  # more threads than cores: round-robin clusters
        cluster = machine.clusters[cid % len(machine.clusters)]
        cores.append(_Core(cid, cluster, caps))
        cid += 1
    return cores, bws


def simulate_traces(traces, machine: MachineModel,
                    dispatch_overhead: bool = True) -> SimResult:
    """Lock-step replay of per-thread traces (static schedules).

    Threads advance round-robin one event at a time so the shared LLC
    sees an interleaving close to concurrent execution.
    """
    num_threads = len(traces)
    cores, private_bws = _build_cores(machine, num_threads)
    shared = _SharedState(machine, num_threads)
    lead = machine.clusters[0]
    n_levels = len(machine.caches)
    level_bytes = [0.0] * (n_levels + 1)

    cursors = [0] * num_threads
    remaining = sum(len(t) for t in traces)
    while remaining:
        for tid, trace in enumerate(traces):
            i = cursors[tid]
            if i >= len(trace.events):
                continue
            ev = trace.events[i]
            cores[tid].time += _event_seconds(
                ev, cores[tid], shared, machine, lead, private_bws,
                level_bytes)
            cursors[tid] = i + 1
            remaining -= 1

    overhead = machine.dispatch_overhead_us * 1e-6 if dispatch_overhead else 0.0
    per_thread = tuple(c.time for c in cores)
    total_flops = sum(t.flops for t in traces)
    local = max(per_thread) if per_thread else 0.0
    return SimResult(
        seconds=max(local, shared.floors()) + overhead,
        total_flops=total_flops,
        per_thread_seconds=per_thread,
        level_bytes=tuple(level_bytes),
        remote_hits=shared.remote_hits,
    )


def simulate_flat(trace: ThreadTrace, machine: MachineModel,
                  num_threads: int,
                  dispatch_overhead: bool = True) -> SimResult:
    """Greedy list-scheduling of a flat trace over heterogeneous cores.

    Models ``schedule(dynamic)``: each work item goes to the earliest-
    available core, so fast P-cores absorb more iterations than slow
    E-cores (the ADL mechanism of Fig 7).
    """
    cores, private_bws = _build_cores(machine, num_threads)
    shared = _SharedState(machine, num_threads)
    lead = machine.clusters[0]
    n_levels = len(machine.caches)
    level_bytes = [0.0] * (n_levels + 1)

    heap = [(0.0, c.core_id) for c in cores]
    heapq.heapify(heap)
    for ev in trace.events:
        t, cid = heapq.heappop(heap)
        core = cores[cid]
        core.time = t + _event_seconds(ev, core, shared, machine, lead,
                                       private_bws, level_bytes)
        heapq.heappush(heap, (core.time, cid))

    overhead = machine.dispatch_overhead_us * 1e-6 if dispatch_overhead else 0.0
    per_thread = tuple(c.time for c in cores)
    local = max(per_thread) if per_thread else 0.0
    return SimResult(
        seconds=max(local, shared.floors()) + overhead,
        total_flops=trace.flops,
        per_thread_seconds=per_thread,
        level_bytes=tuple(level_bytes),
        remote_hits=shared.remote_hits,
    )


def simulate(loop: ThreadedLoop, sim_body, machine: MachineModel,
             dispatch_overhead: bool = True, trace_cache=None,
             body_key=None) -> SimResult:
    """Simulate one ThreadedLoop kernel execution on *machine*.

    Static/grid schedules replay per-thread traces in lock-step; dynamic
    schedules are re-assigned greedily (self-scheduling).

    Traces are captured through *trace_cache* (a
    :class:`~repro.simulator.memo.TraceCache`; a private one when None).
    Sharing one cache memoizes capture across calls — repeated engine
    runs of the same iteration order (e.g. one candidate simulated on
    several machine models, or a perfmodel pass followed by an engine
    pass) then skip the nest re-execution.  Replay is the same either
    way, so results do not depend on which cache served the traces.
    """
    if trace_cache is None:
        trace_cache = TraceCache()
    with _obs().span("simulate", spec=loop.spec_string,
                     machine=machine.name):
        if loop.plan.parsed.schedule == "dynamic":
            flat = trace_cache.flat_trace(loop, sim_body, body_key=body_key)
            return simulate_flat(flat, machine, loop.num_threads,
                                 dispatch_overhead)
        traces = [trace_cache.thread_trace(loop, sim_body, tid,
                                           body_key=body_key)
                  for tid in range(loop.num_threads)]
        return simulate_traces(traces, machine, dispatch_overhead)
