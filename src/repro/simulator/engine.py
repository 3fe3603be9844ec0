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
§II-E model (:func:`~repro.simulator.perfmodel.predict`) is the same
replay (:func:`_replay`) on a different view: shared levels split 1/n
per thread and no shared state.  The scalar loop over per-core
``OrderedDict`` LRUs (:func:`simulate_traces_lru`) stays as the test
oracle — every :class:`SimResult` field equals it bit for bit.  Dynamic
schedules (:func:`simulate_flat`) stay scalar: their order depends on
simulated time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, chain

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

    def __init__(self, machine: MachineModel):
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


def _cluster_scale(cluster: CoreCluster, lead: CoreCluster) -> float:
    """F32 compute-throughput ratio of a core vs the leading cluster."""
    if cluster is lead:
        return 1.0
    try:
        return (cluster.flops_per_cycle(DType.F32) * cluster.freq_ghz
                / (lead.flops_per_cycle(DType.F32) * lead.freq_ghz))
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

    scale = _cluster_scale(core.cluster, lead)
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
    """Lock-step replay of compiled per-thread traces (static schedules):
    the engine's view of :func:`_replay`, bit for bit equal to the
    scalar oracle :func:`simulate_traces_lru`.

    Every core gets its private levels at its cluster's frequency, the
    single-core LLC and DRAM streaming limits and its cluster's compute
    rate; the view adds the shared LLC (when the machine has one) with
    ``remote_hit_penalty``, the chip-wide bandwidth floors and the
    dispatch overhead.  *traces* are
    :class:`~repro.simulator.reuse.CompiledTrace`\\ s.  Raises
    ``ValueError`` when a key on the LLC stream has different footprints
    in different threads.
    """
    shared = _SharedState(machine)
    lead = machine.clusters[0]
    llc = machine.llc.size_bytes if machine.llc.shared else None
    private = machine.caches[:len(machine.caches) - (llc is not None)]
    # per cluster: bytes/second at every slot, compute cycles/second
    bw, hz = {}, {}
    for cl in machine.clusters:
        bw[id(cl)] = np.array([lv.bw_bytes_per_cycle * (cl.freq_ghz * GIGA)
                               for lv in private]
                              + [shared.llc_bw] * (llc is not None)
                              + [shared.dram_bw])
        hz[id(cl)] = lead.freq_ghz * GIGA * _cluster_scale(cl, lead)
    cores = [id(cl) for cl in _core_clusters(machine, len(traces))]
    return _replay(
        traces, [lv.size_bytes for lv in private], [bw[c] for c in cores],
        [hz[c] for c in cores], llc=llc, penalty=machine.remote_hit_penalty,
        floor_bw=(shared.llc_bw_total, shared.dram_bw_total),
        overhead_s=machine.dispatch_overhead_us * 1e-6
        if dispatch_overhead else 0.0)


def _replay(traces, caps, bw, hz, *, llc=None, penalty=1.0, floor_bw=None,
            overhead_s=0.0) -> SimResult:
    """Price compiled per-thread traces on one view of the hierarchy.

    The view is numbers: the private capacities *caps* (innermost
    first) of every thread; thread *t*'s bytes/second *bw[t]* at each
    private level, the LLC (if any) and memory; and its compute
    cycles/second *hz[t]*.  The engine's shared state is optional: an
    LLC of capacity *llc* that threads share in lock-step, where a hit
    on a line another core wrote costs *penalty* times more; the
    chip-wide ``(LLC, memory)`` bytes/second *floor_bw* that bound the
    makespan; and *overhead_s* added to it.  The lock-step order (event
    *i* of thread *t* before event *i* of thread *t* + 1, exhausted
    threads skipped) is built only when there is shared state.

    An event costs ``max(compute, memory)`` seconds.  Sums keep the
    scalar oracles' orders: an event's memory seconds in access order,
    a thread's time event by event, and the byte totals in lock-step
    order (thread by thread without shared state).
    """
    live = [t for t, ct in enumerate(traces) if ct.n_events]
    cts = [traces[t] for t in live]
    with _obs().span("reuse_sim", threads=len(cts)):
        level = _cat([hit_levels(ct.key_ids, ct.footprint, caps,
                                 memo=ct.reuse_memo)[0] for ct in cts],
                     np.int64)
    n_ev = [ct.n_events for ct in cts]
    ev_first = list(accumulate(n_ev, initial=0))
    acc_first = list(accumulate((ct.n_accesses for ct in cts), initial=0))
    event = _cat([ct.event_of + a if a else ct.event_of
                  for ct, a in zip(cts, ev_first)], np.int64)
    order = slice(None)
    remote = ()
    if llc is not None or floor_bw is not None:
        # events sorted by (index in their thread, thread); ``order``
        # maps each lock-step position to its thread-major access
        ls = np.argsort(np.arange(ev_first[-1], dtype=np.int64)
                        - np.repeat(ev_first[:-1], n_ev), kind="stable")
        ev_size = np.bincount(event, minlength=ev_first[-1])
        sizes = ev_size[ls]
        order = (np.repeat((np.cumsum(ev_size) - ev_size)[ls]
                           - (np.cumsum(sizes) - sizes), sizes)
                 + np.arange(event.size, dtype=np.int64))
        if llc is not None:
            level, remote = _replay_llc(cts, llc, order, level, len(caps),
                                        acc_first)

    nbytes = _cat([ct.nbytes for ct in cts], np.float64)
    eff = nbytes * _cat([ct.cost_scale for ct in cts], np.float64)
    mem = eff / _cat([bw[t][level[a:b]] for t, a, b
                      in zip(live, acc_first, acc_first[1:])], np.float64)
    if len(remote):
        mem[remote] *= penalty
    ev_s = np.maximum(
        _cat([ct.compute_cycles / hz[t] for t, ct in zip(live, cts)],
             np.float64),
        np.bincount(event, weights=mem, minlength=ev_first[-1]))
    per_thread = [0.0] * len(traces)
    for t, a, b in zip(live, ev_first, ev_first[1:]):
        per_thread[t] = float(ev_s[a:b].cumsum()[-1])

    n_slots = len(caps) + (llc is not None) + 1
    level = level[order]
    level_bytes = np.bincount(level, weights=nbytes[order],
                              minlength=n_slots)
    floor = 0.0
    if floor_bw is not None:
        eff_bytes = np.bincount(level, weights=eff[order],
                                minlength=n_slots)
        floor = float(eff_bytes[-1]) / floor_bw[1]
        if llc is not None:
            floor = max(float(eff_bytes[-2]) / floor_bw[0], floor)
    local = max(per_thread) if per_thread else 0.0
    return SimResult(max(local, floor) + overhead_s,
                     sum(ct.total_flops for ct in traces), tuple(per_thread),
                     tuple(level_bytes.tolist()), len(remote))


def _cat(arrays, dtype) -> np.ndarray:
    """*arrays* concatenated; the array itself when there is one."""
    if len(arrays) == 1:
        return arrays[0]
    return (np.concatenate(arrays, dtype=dtype) if arrays
            else np.empty(0, dtype=dtype))


def _replay_llc(traces, cap, perm, level, slot: int, acc_first) -> tuple:
    """Replay a shared LLC of capacity *cap* over the lock-step stream
    (*perm*) of private misses (``level == slot``), keys numbered across
    threads.  Returns the thread-major levels with the LLC's misses
    moved to memory's slot, and the thread-major indices of the hits
    that pay the remote-hit penalty; thread *t*'s accesses start at
    ``acc_first[t]``.

    A hit by core *c* on key *k* pays exactly when the last write to *k*
    strictly before it came from another core at or after *k*'s last
    LLC miss: a miss inserts *k* ownerless, a write sets the owner only
    while *k* is resident, and a hit means *k* stayed resident since its
    last miss."""
    keys = tuple(dict.fromkeys(chain.from_iterable(ct.keys
                                                   for ct in traces)))
    index = dict(zip(keys, range(len(keys))))
    tm_key = _cat([np.fromiter(map(index.__getitem__, ct.keys),
                               dtype=np.int64, count=len(ct.keys))[ct.key_ids]
                   for ct in traces], np.int64)

    s_pos = np.flatnonzero(level[perm] == slot)
    s_tm = perm[s_pos]
    s_key = tm_key[s_tm]
    s_fp = _cat([ct.footprint for ct in traces], np.int64)[s_tm]
    check_constant_footprints(s_key, s_fp, keys, "between threads")
    s_hit = hit_levels(s_key, s_fp, [cap])[0] == 0
    if not level.flags.writeable:       # one thread's memoized levels
        level = level.copy()
    level[s_tm[~s_hit]] = slot + 1

    w_pos = np.flatnonzero(_cat([ct.write for ct in traces], bool)[perm])
    hits = s_pos[s_hit]
    if w_pos.size == 0 or hits.size == 0:
        return level, ()
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
    w_tm = perm[w_pos]
    w_comb = tm_key[w_tm] * big + w_pos
    wo = np.argsort(w_comb)
    w_comb = w_comb[wo]
    thread = np.repeat(np.arange(len(traces)), np.diff(acc_first))
    w_thread = thread[w_tm[wo]]
    j = np.searchsorted(w_comb, hit_key * big + hits) - 1
    jj = np.maximum(j, 0)
    hit_tm = s_tm[s_hit]
    remote = ((j >= 0) & (w_comb[jj] >= hit_key * big + last_miss[s_hit])
              & (w_thread[jj] != thread[hit_tm]))
    return level, hit_tm[remote]


def simulate_traces_lru(traces, machine: MachineModel,
                        dispatch_overhead: bool = True) -> SimResult:
    """Scalar lock-step replay of raw per-thread traces through per-core
    ``OrderedDict`` LRUs: the test oracle of :func:`simulate_traces`."""
    num_threads = len(traces)
    cores, private_bws = _build_cores(machine, num_threads)
    shared = _SharedState(machine)
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
    shared = _SharedState(machine)
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
    pass reuses the model's); traces that break the reuse-distance
    preconditions raise ``ValueError``.  Dynamic schedules are
    re-assigned greedily (self-scheduling).

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
        compiled = trace_cache.compiled_thread_traces(
            loop, sim_body, range(loop.num_threads), body_key=body_key)
        return simulate_traces(compiled, machine, dispatch_overhead)
