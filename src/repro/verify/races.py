"""Static race detection over tensor-slice traces.

PARLOOPER's spec strings make it one keystroke to parallelize a reduction
loop — capitalizing GEMM's ``a`` (the K-block loop) makes every thread
read-modify-write the same C blocks.  The functional runtime may still
produce the right answer under the GIL most of the time, which is exactly
why such bugs survive: they are schedule-dependent.  This module finds
them *statically*, from the same per-thread traces the performance
simulator replays (§II-E) — no threads are spawned.

Happens-before model
--------------------
Within one traversal the only cross-thread ordering edges are ``|``
barriers.  Each thread's trace is segmented into barrier-delimited
*epochs*; two accesses in the same epoch from different *concurrency
units* are unordered.  A unit is a thread for static/grid schedules; for
``schedule(dynamic)`` worksharing regions each granted chunk is its own
unit, because the tracing proxy's round-robin chunk deal is only one of
the assignments the real first-come-first-served counter can produce
(two conflicting chunks congruent modulo ``num_threads`` land on one
simulated thread yet race on real ones).

Two unordered accesses to the same interned slice key conflict when at
least one writes: W-W (e.g. a parallelized reduction's accumulator) or
R-W (e.g. a producer epoch missing its barrier).  Additionally, barrier
*misuse* is reported as a deadlock hazard ("BARRIER"): threads crossing
``|`` a different number of times, or a barrier nested inside a
dynamic-schedule worksharing region (crossing counts then depend on the
runtime chunk assignment and no count can be trusted).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.threaded_loop import ThreadedLoop
from ..simulator.trace import BarrierMarker, BodyEvent, ChunkMarker, \
    trace_threaded_loop

__all__ = ["RaceReport", "detect_races"]

#: at most this many reports per kind are materialized (a racy reduction
#: conflicts on *every* output block; one report per block is noise)
MAX_REPORTS_PER_KIND = 16


@dataclass(frozen=True)
class RaceReport:
    """One detected conflict (or barrier hazard) in a parallel nest."""

    kind: str                 # "WW" | "RW" | "BARRIER"
    tensor: str               # tensor name of the contended slice
    key: tuple                # full interned slice key; () for BARRIER
    epoch: int                # barrier-delimited epoch of the conflict
    spec_chars: tuple         # parallelized spec characters implicated
    loop_chars: tuple         # logical loops whose indices differ
    units: tuple              # the two unordered concurrency units
    example_inds: tuple       # one body-invocation ind per unit
    message: str = ""

    def __str__(self) -> str:
        return self.message


def _unit_name(unit: tuple) -> str:
    if unit[0] == "tid":
        return f"thread {unit[1]}"
    _tag, region, start = unit
    return f"dynamic chunk@{start} of region {region[0]}"


def _differing_chars(ind_a: tuple, ind_b: tuple) -> tuple:
    return tuple(chr(ord("a") + i)
                 for i, (x, y) in enumerate(zip(ind_a, ind_b)) if x != y)


def _conflict_report(kind: str, key: tuple, epoch: int, unit_a, ind_a,
                     unit_b, ind_b, par_chars: tuple,
                     spec_string: str) -> RaceReport:
    loop_chars = _differing_chars(ind_a, ind_b)
    # the spec characters to blame: parallelized loops whose index differs
    # across the two conflicting invocations (shown capitalized, as the
    # user wrote them)
    blamed = tuple(c.upper() for c in loop_chars if c in par_chars) \
        or tuple(c.upper() for c in par_chars)
    tensor = str(key[0]) if key else ""
    verb = "write" if kind == "WW" else "write/read"
    msg = (f"{kind} race on {tensor}{list(key[1:])} (epoch {epoch}) in "
           f"{spec_string!r}: {_unit_name(unit_a)} at ind={list(ind_a)} and "
           f"{_unit_name(unit_b)} at ind={list(ind_b)} {verb} the same "
           f"slice; parallelized loop(s) {', '.join(blamed)} vary across "
           f"the conflicting accesses")
    return RaceReport(kind, tensor, key, epoch, blamed, loop_chars,
                      (unit_a, unit_b), (ind_a, ind_b), msg)


def detect_races(loop: ThreadedLoop, sim_body) -> list:
    """Detect W-W / R-W conflicts and barrier hazards in *loop*'s nest.

    ``sim_body`` is the kernel's simulator description (the same callable
    fed to :func:`~repro.simulator.engine.simulate`); its
    :class:`~repro.simulator.trace.Access` keys define the slices whose
    cross-thread sharing is analysed.  Returns a list of
    :class:`RaceReport`, empty when the nest is conflict-free.
    """
    if loop.num_threads <= 1 or loop.plan.par_mode == 0:
        return []   # a single worker cannot race with itself

    reports: list[RaceReport] = []
    plan = loop.plan
    par_chars = tuple(sorted({t.char for t in plan.parsed.tokens
                              if t.parallel}))

    # barrier nested inside a dynamic worksharing region: the crossing
    # count of each thread depends on the runtime chunk assignment, so no
    # trace can certify the counts match — always a deadlock hazard
    groups = plan.parsed.collapse_groups()
    if groups and plan.parsed.schedule == "dynamic":
        inner_start = max(groups[-1]) + 1
        for lv in plan.levels:
            if lv.barrier_after and lv.position >= inner_start:
                reports.append(RaceReport(
                    "BARRIER", "", (), -1, par_chars, (lv.char,), (), (),
                    f"barrier after loop {lv.char!r} is nested inside a "
                    f"schedule(dynamic) worksharing region in "
                    f"{loop.spec_string!r}: per-thread crossing counts "
                    "depend on runtime chunk assignment (deadlock hazard)"))

    traces = trace_threaded_loop(loop, sim_body, record_barriers=True,
                                 record_chunks=True, record_inds=True)

    # barrier parity: unequal crossing counts deadlock a threading.Barrier
    counts = {t.tid: sum(1 for e in t.events
                         if isinstance(e, BarrierMarker))
              for t in traces}
    if len(set(counts.values())) > 1:
        lo = min(counts, key=lambda tid: (counts[tid], tid))
        hi = max(counts, key=lambda tid: (counts[tid], -tid))
        reports.append(RaceReport(
            "BARRIER", "", (), -1, par_chars, (), (),
            (),
            f"threads cross '|' a different number of times in "
            f"{loop.spec_string!r}: thread {lo} crosses {counts[lo]}x but "
            f"thread {hi} crosses {counts[hi]}x (deadlock hazard)"))

    # (epoch, key) -> {unit: example ind} for writers and readers
    writers: dict = {}
    readers: dict = {}
    for t in traces:
        epoch = 0
        unit = ("tid", t.tid)
        for e in t.events:
            if isinstance(e, BarrierMarker):
                epoch += 1
                unit = ("tid", t.tid)
            elif isinstance(e, ChunkMarker):
                unit = ("tid", t.tid) if e.bounds is None else \
                    ("chunk", e.region, e.bounds[0])
            else:
                for acc in e.accesses:
                    table = writers if acc.write else readers
                    table.setdefault((epoch, acc.key), {}) \
                        .setdefault(unit, e.ind)

    reports.extend(_conflict_pass(writers, readers, par_chars,
                                  loop.spec_string))
    return reports


def _conflict_pass(writers: dict, readers: dict, par_chars: tuple,
                   spec_string: str) -> list:
    """The W-W / R-W pass over ``(epoch, key) -> {unit: ind}`` tables,
    in a deterministic report order."""
    reports: list[RaceReport] = []
    ww = rw = 0
    for (epoch, key), wmap in sorted(writers.items(),
                                     key=lambda kv: (kv[0][0],
                                                     repr(kv[0][1]))):
        wunits = sorted(wmap, key=repr)
        if len(wunits) > 1 and ww < MAX_REPORTS_PER_KIND:
            ww += 1
            a, b = wunits[0], wunits[1]
            reports.append(_conflict_report(
                "WW", key, epoch, a, wmap[a], b, wmap[b], par_chars,
                spec_string))
        rmap = readers.get((epoch, key), {})
        runits = sorted((u for u in rmap if u not in wmap), key=repr)
        if runits and rw < MAX_REPORTS_PER_KIND:
            rw += 1
            a, b = wunits[0], runits[0]
            reports.append(_conflict_report(
                "RW", key, epoch, a, wmap[a], b, rmap[b], par_chars,
                spec_string))
    return reports
