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

Static and grid schedules replay compiled traces on arrays
(:func:`simulate_traces`): one reuse-distance pass per thread for the
private levels, one over the lock-step stream of their misses for the
shared LLC, and a last-writer lookup for the remote-hit penalty.  The
scalar loop over per-core ``OrderedDict`` LRUs (:func:`simulate_traces_lru`)
stays as its oracle — every :class:`SimResult` field equals it bit for
bit — and as the fallback for traces the array replay rejects.  Dynamic
schedules (:func:`simulate_flat`) stay scalar: their order depends on
simulated time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from ..platform.machine import CoreCluster, MachineModel
from ..tpp.dtypes import DType
from .lru import CacheHierarchy, LRUCache
from .memo import TraceCache
from .reuse import check_constant_footprints, hit_levels
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


def _result(machine: MachineModel, dispatch_overhead: bool,
            shared: _SharedState, per_thread: tuple, total_flops: float,
            level_bytes) -> SimResult:
    """The makespan (slowest core or bandwidth floor, plus dispatch
    overhead) and the counters of one replay."""
    overhead = machine.dispatch_overhead_us * 1e-6 if dispatch_overhead \
        else 0.0
    local = max(per_thread) if per_thread else 0.0
    return SimResult(
        seconds=max(local, shared.floors()) + overhead,
        total_flops=total_flops,
        per_thread_seconds=per_thread,
        level_bytes=tuple(level_bytes),
        remote_hits=shared.remote_hits,
    )


def _event_seconds(ev: BodyEvent, core: _Core, shared: _SharedState,
                   machine: MachineModel, lead: CoreCluster,
                   private_bws, level_bytes) -> float:
    """Cost of one event on *core*, updating caches and stats."""
    mem_s = 0.0
    n_priv = len(private_bws)
    mem = len(level_bytes) - 1    # memory's slot, past every cache level
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
                level_bytes[mem] += acc.nbytes
                shared.dram_bytes += nbytes_eff
        else:
            mem_s += nbytes_eff / shared.dram_bw
            level_bytes[mem] += acc.nbytes
            shared.dram_bytes += nbytes_eff
        if acc.write and shared.llc is not None:
            shared.llc.set_owner(acc.key, core.core_id)

    scale = _cluster_scale(core.cluster, lead, None)
    lead_freq = lead.freq_ghz * GIGA
    comp_s = ev.compute_cycles() / (lead_freq * scale)
    return max(comp_s, mem_s)


def _core_clusters(machine: MachineModel, num_threads: int) -> list:
    """The cluster of each core: clusters packed in order, then (more
    threads than cores) round-robin over the clusters."""
    out = [cl for cl in machine.clusters for _ in range(cl.count)]
    out = out[:num_threads]
    out += [machine.clusters[cid % len(machine.clusters)]
            for cid in range(len(out), num_threads)]
    return out


def _build_cores(machine: MachineModel, num_threads: int):
    private = [lv for lv in machine.caches if not lv.shared]
    caps = [lv.size_bytes for lv in private]
    bws = [(lambda lv: (lambda core: lv.bw_bytes_per_cycle * core.freq))(lv)
           for lv in private]
    cores = [_Core(cid, cluster, caps) for cid, cluster
             in enumerate(_core_clusters(machine, num_threads))]
    return cores, bws


def simulate_traces(traces, machine: MachineModel,
                    dispatch_overhead: bool = True) -> SimResult:
    """Lock-step replay of compiled per-thread traces (static schedules).

    Threads advance round-robin one event at a time, so the shared LLC
    sees an interleaving close to concurrent execution: event *i* of
    thread *t* runs before event *i* of thread *t* + 1, and a thread that
    has run out of events is skipped.  That order is fixed, so the replay
    runs on arrays and equals :func:`simulate_traces_lru` bit for bit:

    * private levels: one :func:`~repro.simulator.reuse.hit_levels` pass
      per thread (on the trace's shared reuse memo);
    * shared LLC: one pass over the *LLC stream* — every thread's
      private-level misses in lock-step order, keys numbered across
      threads;
    * remote hits: an LLC hit by core *c* on key *k* pays
      ``remote_hit_penalty`` exactly when the last write to *k* strictly
      before it came from another core at or after *k*'s last LLC miss
      (a miss inserts *k* ownerless, a write sets the owner only while
      *k* is resident, and a hit means *k* stayed resident since its
      last miss);
    * sums keep the oracle's orders: each event's memory seconds in
      access order, each core's time event by event, and the byte
      totals in lock-step order.

    *traces* are :class:`~repro.simulator.reuse.CompiledTrace`\\ s.
    Raises ``ValueError`` when a key on the LLC stream has different
    footprints in different threads; :func:`simulate` then replays the
    raw traces through the oracle.
    """
    n_threads = len(traces)
    clusters = _core_clusters(machine, n_threads)
    shared = _SharedState(machine, n_threads)
    lead = machine.clusters[0]
    n_levels = len(machine.caches)
    n_priv = n_levels - (shared.llc is not None)
    private = machine.caches[:n_priv]
    caps = [lv.size_bytes for lv in private]
    # bytes/second of every slot (private levels, LLC, memory) per core
    bw = np.array([[lv.bw_bytes_per_cycle * (cl.freq_ghz * GIGA)
                    for lv in private]
                   + [shared.llc_bw] * (shared.llc is not None)
                   + [shared.dram_bw] for cl in clusters],
                  dtype=np.float64).reshape(n_threads, n_levels + 1)

    # lock-step order: events sorted by (event index, thread); ``perm``
    # maps each lock-step position to its thread-major access index.
    # Threads without events take no part.
    live = [t for t, ct in enumerate(traces) if ct.n_events]
    traces_live = [traces[t] for t in live]
    n_ev = [ct.n_events for ct in traces_live]
    ev_thread = np.repeat(np.array(live, dtype=np.int64), n_ev)
    ev_index = _cat([np.arange(n, dtype=np.int64) for n in n_ev], np.int64)
    ev_size = _cat([np.bincount(ct.event_of, minlength=ct.n_events)
                    for ct in traces_live], np.int64)
    ls = np.lexsort((ev_thread, ev_index))
    sizes = ev_size[ls]
    tm_first = np.cumsum(ev_size) - ev_size
    perm = (np.repeat(tm_first[ls] - (np.cumsum(sizes) - sizes), sizes)
            + np.arange(int(ev_size.sum()), dtype=np.int64))
    g_thread = np.repeat(ev_thread[ls], sizes)
    g_event = np.repeat(ls, sizes)     # thread-major event id

    g_level = _cat([hit_levels(ct.key_ids, ct.footprint, caps,
                               memo=ct.reuse_memo)[0] for ct in traces_live],
                   np.int64)[perm]
    remote = np.empty(0, dtype=np.int64)
    if shared.llc is not None:
        remote = _replay_llc(traces_live, machine, perm, g_thread, g_level,
                             n_priv)
    g_nbytes = _cat([ct.nbytes for ct in traces_live], np.float64)[perm]
    g_eff = g_nbytes * _cat([ct.cost_scale for ct in traces_live],
                            np.float64)[perm]
    g_mem = g_eff / bw[g_thread, g_level]
    g_mem[remote] *= machine.remote_hit_penalty

    level_bytes = np.bincount(g_level, weights=g_nbytes,
                              minlength=n_levels + 1)
    eff_bytes = np.bincount(g_level, weights=g_eff, minlength=n_levels + 1)
    if shared.llc is not None:
        shared.llc_bytes = float(eff_bytes[n_priv])
    shared.dram_bytes = float(eff_bytes[n_levels])
    shared.remote_hits = int(remote.size)

    mem_ev = np.bincount(g_event, weights=g_mem, minlength=len(ev_size))
    lead_freq = lead.freq_ghz * GIGA
    comp_ev = _cat([traces[t].compute_cycles
                    / (lead_freq * _cluster_scale(clusters[t], lead, None))
                    for t in live], np.float64)
    ev_s = np.maximum(comp_ev, mem_ev)
    per_thread = [0.0] * n_threads
    end = 0
    for t, n in zip(live, n_ev):
        end += n
        per_thread[t] = float(np.cumsum(ev_s[end - n:end])[-1])

    return _result(machine, dispatch_overhead, shared, tuple(per_thread),
                   sum(ct.total_flops for ct in traces), level_bytes.tolist())


def _cat(arrays, dtype) -> np.ndarray:
    return (np.concatenate(arrays, dtype=dtype) if arrays
            else np.empty(0, dtype=dtype))


def _replay_llc(traces, machine: MachineModel, perm, g_thread, g_level,
                n_priv: int) -> np.ndarray:
    """Replay the shared LLC over the lock-step stream of private misses
    (``g_level == n_priv``), moving its misses to memory's slot in
    *g_level*; returns the lock-step positions of the hits that pay the
    remote-hit penalty."""
    keys = tuple(dict.fromkeys(chain.from_iterable(ct.keys
                                                   for ct in traces)))
    index = dict(zip(keys, range(len(keys))))
    tm_key = _cat([np.fromiter(map(index.__getitem__, ct.keys),
                               dtype=np.int64, count=len(ct.keys))[ct.key_ids]
                   for ct in traces], np.int64)

    s_pos = np.flatnonzero(g_level == n_priv)
    s_key = tm_key[perm[s_pos]]
    s_fp = _cat([ct.footprint for ct in traces], np.int64)[perm[s_pos]]
    check_constant_footprints(s_key, s_fp, keys, "between threads")
    s_hit = hit_levels(s_key, s_fp, [machine.llc.size_bytes])[0] == 0
    g_level[s_pos[~s_hit]] = n_priv + 1

    w_pos = np.flatnonzero(_cat([ct.write for ct in traces], bool)[perm])
    hits = s_pos[s_hit]
    if w_pos.size == 0 or hits.size == 0:
        return np.empty(0, dtype=np.int64)
    # each hit's key's last LLC miss: the running maximum of miss ranks
    # within key groups (a key's first stream access is always a miss)
    o = np.argsort(s_key, kind="stable")
    miss_rank = np.where(s_hit[o], -1, np.arange(o.size))
    last_miss = np.empty_like(s_pos)
    last_miss[o] = s_pos[o[np.maximum.accumulate(miss_rank)]]
    # the last write to the hit's key strictly before the hit, found in
    # writes sorted by (key, position)
    big = np.int64(perm.size + 1)
    hit_key = s_key[s_hit]
    w_comb = tm_key[perm[w_pos]] * big + w_pos
    wo = np.argsort(w_comb)
    w_comb = w_comb[wo]
    w_thread = g_thread[w_pos[wo]]
    j = np.searchsorted(w_comb, hit_key * big + hits) - 1
    jj = np.maximum(j, 0)
    remote = ((j >= 0) & (w_comb[jj] >= hit_key * big + last_miss[s_hit])
              & (w_thread[jj] != g_thread[hits]))
    return hits[remote]


def simulate_traces_lru(traces, machine: MachineModel,
                        dispatch_overhead: bool = True) -> SimResult:
    """Scalar lock-step replay of raw per-thread traces through per-core
    ``OrderedDict`` LRUs: the oracle of :func:`simulate_traces`, and
    :func:`simulate`'s fallback for traces the array replay rejects."""
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

    return _result(machine, dispatch_overhead, shared,
                   tuple(c.time for c in cores),
                   sum(t.flops for t in traces), level_bytes)


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

    return _result(machine, dispatch_overhead, shared,
                   tuple(c.time for c in cores), trace.flops, level_bytes)


def simulate(loop: ThreadedLoop, sim_body, machine: MachineModel,
             dispatch_overhead: bool = True, trace_cache=None,
             body_key=None) -> SimResult:
    """Simulate one ThreadedLoop kernel execution on *machine*.

    Static/grid schedules replay per-thread traces in lock-step, on the
    compiled traces the cache serves (so an engine pass after a model
    pass reuses the model's),
    falling back to :func:`simulate_traces_lru` on the raw traces when
    compilation or the array replay raises ``ValueError``; dynamic
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
        try:
            compiled = [trace_cache.compiled_thread_trace(
                loop, sim_body, tid, body_key=body_key)
                for tid in range(loop.num_threads)]
            return simulate_traces(compiled, machine, dispatch_overhead)
        except ValueError:
            traces = [trace_cache.thread_trace(loop, sim_body, tid,
                                               body_key=body_key)
                      for tid in range(loop.num_threads)]
            return simulate_traces_lru(traces, machine, dispatch_overhead)
