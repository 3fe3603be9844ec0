"""Tensor-slice access traces (§II-E).

"Each thread can create a trace of its A, B and C accesses that arise in
chronological order as the thread proceeds ... These traces are compact
since they register accesses of full tensor slices instead of individual
cache-lines."

A trace is a list of :class:`BodyEvent`\\ s, one per ``body_func``
invocation, each carrying the tensor-slice accesses of that invocation and
its compute work.  Traces are produced by running the *actual* generated
loop nest with a recording body, so the simulated order is exactly the
executed order for any ``loop_spec_string``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..core.runtime import NestContext
from ..core.threaded_loop import ThreadedLoop

__all__ = ["Access", "AccessColumns", "BodyEvent", "BarrierMarker",
           "ChunkMarker", "ThreadTrace", "trace_threaded_loop",
           "trace_flat"]


@dataclass(frozen=True)
class Access:
    """One tensor-slice access.

    ``key`` identifies the slice — ``(tensor_name, *block_indices)`` — and
    must be stable across threads so shared-cache simulation can detect
    cross-thread reuse.  ``footprint`` (defaults to ``nbytes``) is the
    cache space the slice occupies and ``cost_scale`` the extra transfer
    traffic; layout penalties (e.g. flat-B conflict misses, §V-A1) are
    modelled by inflating both — conflicting lines evict each other, so
    they occupy more effective capacity *and* get refetched.
    """

    key: tuple
    nbytes: int
    write: bool = False
    footprint: int = 0
    cost_scale: float = 1.0

    def __post_init__(self):
        if self.footprint == 0:
            object.__setattr__(self, "footprint", self.nbytes)


class AccessColumns(NamedTuple):
    """The accesses of one event as columns, one entry per access in
    access order: the slice keys as one tuple, and ``nbytes``,
    ``footprint``, ``cost_scale`` and ``write`` as read-only arrays (the
    trace cache shares events across traces)."""

    keys: tuple
    nbytes: np.ndarray
    footprint: np.ndarray
    cost_scale: np.ndarray
    write: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BodyEvent:
    """Work of one body invocation: slice accesses + compute.

    The accesses live in :attr:`columns`.  The event builders
    (:mod:`repro.simulator.cost`) fill them directly through
    :meth:`from_columns`; ``BodyEvent(accesses=...)`` takes
    :class:`Access` objects (hand-written bodies) and derives the columns
    on first use.  :attr:`accesses` is the per-access view the scalar
    replays and the race detector read, likewise built on first use —
    the array paths never build it.
    """

    __slots__ = ("flops", "flops_per_cycle", "extra_cycles", "ind",
                 "_accesses", "_columns")

    def __init__(self, accesses, flops: float = 0.0,
                 flops_per_cycle: float = 1.0, extra_cycles: float = 0.0,
                 ind: tuple = ()):
        self._accesses = tuple(accesses)
        self._columns = None
        self.flops = flops
        #: effective FLOP/cycle of the compute (microkernel efficiency
        #: folded in)
        self.flops_per_cycle = flops_per_cycle
        #: extra fixed cycles (e.g. kernel call overhead)
        self.extra_cycles = extra_cycles
        #: logical indices of the invocation that produced this event;
        #: only populated by ``trace_threaded_loop(..., record_inds=True)``
        #: (the verification path) — perf replay never reads it
        self.ind = ind

    @classmethod
    def from_columns(cls, columns: AccessColumns, flops: float = 0.0,
                     flops_per_cycle: float = 1.0) -> "BodyEvent":
        """An event over *columns*, whose arrays must be read-only."""
        ev = cls((), flops, flops_per_cycle)
        ev._accesses, ev._columns = None, columns
        return ev

    @property
    def columns(self) -> AccessColumns:
        cols = self._columns
        if cols is None:
            accs = self._accesses
            n = len(accs)
            cols = self._columns = AccessColumns(
                tuple(a.key for a in accs),
                _read_only(np.fromiter((a.nbytes for a in accs),
                                       np.float64, n)),
                _read_only(np.fromiter((a.footprint for a in accs),
                                       np.int64, n)),
                _read_only(np.fromiter((a.cost_scale for a in accs),
                                       np.float64, n)),
                _read_only(np.fromiter((a.write for a in accs), bool, n)))
        return cols

    @property
    def accesses(self) -> tuple:
        accs = self._accesses
        if accs is None:
            c = self._columns
            accs = self._accesses = tuple(map(
                Access, c.keys, c.nbytes.tolist(), c.write.tolist(),
                c.footprint.tolist(), c.cost_scale.tolist()))
        return accs

    def compute_cycles(self) -> float:
        if self.flops <= 0:
            return self.extra_cycles
        return self.flops / max(self.flops_per_cycle, 1e-9) + self.extra_cycles


@dataclass(frozen=True)
class BarrierMarker:
    """A ``|`` barrier crossing recorded inside a verification trace.

    Barriers delimit *epochs*: accesses of different threads are ordered
    across a barrier and concurrent within one.  Only traces captured
    with ``record_barriers=True`` contain markers — the performance
    replay paths never see them.
    """

    ordinal: int           # how many barriers this thread crossed before


@dataclass(frozen=True)
class ChunkMarker:
    """A dynamic-schedule worksharing grant recorded in a verification trace.

    ``region`` is the ``(group_id, epoch)`` key of the worksharing region
    and ``bounds`` the granted ``(start, end)`` flat-iteration range —
    ``None`` bounds mark the region's exhaustion (the thread leaves the
    region).  Under ``schedule(dynamic)`` any two distinct chunks of a
    region may land on different OS threads, so the race detector treats
    each chunk as its own concurrency unit.
    """

    region: tuple
    bounds: tuple | None


@dataclass
class ThreadTrace:
    tid: int
    events: list = field(default_factory=list)

    @property
    def flops(self) -> float:
        return sum(e.flops for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


def trace_threaded_loop(loop: ThreadedLoop, sim_body, tids=None,
                        record_barriers: bool = False,
                        record_chunks: bool = False,
                        record_inds: bool = False) -> list:
    """Per-thread traces of a ThreadedLoop under its current spec string.

    ``sim_body(ind) -> BodyEvent | list[BodyEvent] | None`` describes the
    work of one body invocation.  Returns ``[ThreadTrace]``, one per
    traced tid (all threads unless *tids* selects a subset).

    Dynamic schedules are traced with their worksharing *chunks* dealt
    round-robin (a fair proxy for runtime self-scheduling: simulated
    greedy assignment happens later in the engine).

    The ``record_*`` flags serve the :mod:`repro.verify` subsystem and all
    default off so the performance-replay and memoization paths see plain
    :class:`BodyEvent` streams:

    * ``record_barriers`` interleaves :class:`BarrierMarker`\\ s into the
      event list at every ``|`` crossing (epoch boundaries);
    * ``record_chunks`` interleaves :class:`ChunkMarker`\\ s at every
      dynamic-schedule grant (chunk-granularity concurrency units);
    * ``record_inds`` stamps each event's ``ind`` with the logical loop
      indices of its invocation.
    """
    tid_list = list(range(loop.num_threads)) if tids is None else list(tids)
    traces = [ThreadTrace(tid) for tid in tid_list]
    nest = loop._nest.func
    for trace_slot, tid in enumerate(tid_list):
        events = traces[trace_slot].events
        ctx = _TracingContext(
            loop.num_threads, loop.plan.grid_shape, tid,
            on_barrier=events.append if record_barriers else None,
            on_chunk=events.append if record_chunks else None)

        def body(ind, _events=events):
            ev = sim_body(list(ind))
            if ev is None:
                return
            if isinstance(ev, BodyEvent):
                if record_inds:
                    ev.ind = tuple(ind)
                _events.append(ev)
            else:
                if record_inds:
                    for e in ev:
                        e.ind = tuple(ind)
                _events.extend(ev)

        nest(tid, loop.num_threads, body, None, None, ctx)
    return traces


def trace_flat(loop: ThreadedLoop, sim_body) -> ThreadTrace:
    """A single whole-nest trace (thread-agnostic iteration order).

    Used by the engine's dynamic-scheduling path, which re-assigns events
    to cores greedily by simulated availability.

    The serial helper loop reuses ``loop._cache``, so the nest is only
    JITed once per serialized order;
    :meth:`~repro.simulator.memo.TraceCache.flat_trace` also memoizes the
    trace itself (candidates differing only in parallel annotations then
    share one capture).
    """
    serial = ThreadedLoop(loop.specs, _serialize_spec(loop.spec_string),
                          num_threads=1, cache=loop._cache)
    return trace_threaded_loop(serial, sim_body)[0]


def _serialize_spec(spec: str) -> str:
    """Lower-case every mnemonic and strip grid annotations/barriers."""
    import re
    body, _, _directives = spec.partition("@")
    body = re.sub(r"\{\s*[RCD]\s*:\s*\d+\s*\}", "", body)
    body = body.replace("|", "")
    return body.strip().lower()


class _TracingContext(NestContext):
    """Context for tracing: fair round-robin dynamic chunks per thread.

    The real runtime's dynamic counter is first-come-first-served; during
    tracing each thread runs in isolation, so instead chunk *i* of a
    region is granted to thread ``i % num_threads`` — every chunk is traced
    exactly once across threads.
    """

    def __init__(self, num_threads, grid, tid, on_barrier=None, on_chunk=None):
        super().__init__(num_threads, grid, use_real_barrier=False)
        self._tid = tid
        self._round: dict = {}
        self._on_barrier = on_barrier
        self._on_chunk = on_chunk
        self._barriers_crossed = 0

    def barrier(self) -> None:
        if self._on_barrier is not None:
            self._on_barrier(BarrierMarker(self._barriers_crossed))
        self._barriers_crossed += 1
        super().barrier()

    def next_chunk(self, group_id, epoch, total, chunk):
        key = (group_id, epoch)
        i = self._round.get(key, self._tid)  # thread's first chunk index
        if i * chunk >= total:
            self._round.pop(key, None)
            if self._on_chunk is not None:
                self._on_chunk(ChunkMarker(key, None))
            return None
        self._round[key] = i + self.num_threads
        bounds = (i * chunk, min((i + 1) * chunk, total))
        if self._on_chunk is not None:
            self._on_chunk(ChunkMarker(key, bounds))
        return bounds
