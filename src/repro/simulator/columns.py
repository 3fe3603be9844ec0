"""Column capture: compile thread traces straight from a nest's block map.

§II-E's traces "register accesses of full tensor slices instead of
individual cache-lines".  When each body call's events are one of a few
fixed templates over the slices its block map names, a thread's trace is
index arithmetic over its calls' block coordinates, and no nest needs to
run.  A kernel family describes the calls of some threads of a nest as
:class:`CallColumns`; :func:`compile_columns` turns them into one
:class:`~repro.simulator.reuse.CompiledTrace` per thread, array for array
what :func:`~repro.simulator.reuse.compile_trace` makes of the
interpreter's trace of that thread.  The trace cache is its one caller.

A slice's *code* is its tensor's offset plus its raveled block
coordinates, so one ``np.unique`` over ``(thread, code)`` numbers each
thread's slices by first occurrence, and each distinct slice's key tuple
is decoded once, for every thread that touches it.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from ..core.batched import _ragged_arange
from .reuse import _EMPTY, CompiledTrace, check_constant_footprints
from .trace import BodyEvent

__all__ = ["CallColumns", "compile_columns"]


class CallColumns(NamedTuple):
    """The body calls of some threads of a nest, as columns.

    Thread *t* makes ``counts[t]`` calls, in emission order, right after
    thread ``t - 1``'s.  Call *c* takes the event, or the list of events,
    ``templates[shape[c]]``, whose access keys are slot numbers: slot
    *s* of call *c* is the slice ``(tensor, *(x[c] for x in coords))``
    of ``slots[s] = (tensor, coords)``, each coordinate a column over
    the calls (or one int for all of them)."""

    counts: np.ndarray
    shape: np.ndarray
    templates: tuple
    slots: tuple


def _codes(slots, n: int) -> tuple:
    """``(codes, decode, n_codes)``: ``codes[s, c]``, the code of slot *s*
    of call *c*; ``decode(codes)``, the key tuples of ascending distinct
    codes; and the size of the code space.  The slots of one tensor (and
    coordinate count) share one code range, the bounding box of their
    blocks."""
    groups: dict = {}
    for s, (tensor, coords) in enumerate(slots):
        groups.setdefault((tensor, len(coords)), []).append(s)
    codes = np.empty((len(slots), n), dtype=np.int64)
    ranges = []             # (tensor, first code, low corner, box shape)
    offset = 0
    for (tensor, ndim), members in groups.items():
        axes = [np.stack([np.broadcast_to(slots[s][1][d], n)
                          for s in members]) for d in range(ndim)]
        low = [int(a.min()) for a in axes]
        box = tuple(int(a.max()) - lo + 1 for a, lo in zip(axes, low))
        codes[members] = offset + np.ravel_multi_index(
            [a - lo for a, lo in zip(axes, low)], box)
        ranges.append((tensor, offset, low, box))
        offset += int(np.prod(box))

    def decode(code: np.ndarray) -> list:
        ends = np.searchsorted(code, [r[1] for r in ranges[1:]] + [offset])
        parts, start = [], 0
        for (tensor, first, low, box), end in zip(ranges, ends.tolist()):
            coords = np.unravel_index(code[start:end] - first, box)
            parts.append(zip(repeat(tensor), *((c + lo).tolist()
                                               for c, lo in zip(coords,
                                                                low))))
            start = end
        return list(chain.from_iterable(parts))

    return codes, decode, offset


def compile_columns(calls: CallColumns) -> list:
    """One :class:`CompiledTrace` per thread of *calls*, in thread order.

    Raises ``ValueError`` with :func:`compile_trace`'s message, for the
    thread and key the interpreter's capture would name, when a thread
    breaks the reuse-distance preconditions: a non-positive footprint,
    or a key whose footprint changes."""
    counts = np.asarray(calls.counts, dtype=np.int64)
    n_threads = len(counts)
    if not counts.sum():
        return [CompiledTrace(*_EMPTY, 0, ()) for _ in range(n_threads)]

    # the templates as one table of events and one of their accesses
    templates = [[t] if isinstance(t, BodyEvent) else list(t)
                 for t in calls.templates]
    events = list(chain.from_iterable(templates))
    cols = [ev.columns for ev in events]
    sizes = np.array([len(c.keys) for c in cols], dtype=np.int64)
    t_events = np.array([len(t) for t in templates], dtype=np.int64)
    t_first = np.cumsum(t_events) - t_events
    size_cum = np.concatenate(([0], np.cumsum(sizes)))
    t_acc_first = size_cum[t_first]
    t_accesses = size_cum[t_first + t_events] - t_acc_first

    def table(field, dtype):
        return np.concatenate([np.empty(0, dtype)]
                              + [getattr(c, field) for c in cols],
                              dtype=dtype)

    slot = np.fromiter(chain.from_iterable(c.keys for c in cols), np.int64,
                       count=int(size_cum[-1]))
    event_in_template = np.repeat(
        np.arange(len(events)) - np.repeat(t_first, t_events), sizes)
    cycles = np.array([ev.compute_cycles() for ev in events],
                      dtype=np.float64)
    flops = np.array([ev.flops for ev in events], dtype=np.float64)

    # every call's accesses and events, gathered from its template
    shape = np.asarray(calls.shape)
    per_call = t_accesses[shape]
    events_per_call = t_events[shape]
    acc = _ragged_arange(t_acc_first[shape], t_acc_first[shape] + per_call)
    ev = _ragged_arange(t_first[shape], t_first[shape] + events_per_call)
    call = np.repeat(np.arange(len(shape)), per_call)
    thread_of_call = np.repeat(np.arange(n_threads), counts)
    owner = thread_of_call[call]
    bounds = np.concatenate(([0], np.cumsum(counts)))
    acc_bounds = np.concatenate(([0], np.cumsum(per_call)))[bounds]
    ev_cum = np.cumsum(events_per_call)
    ev_bounds = np.concatenate(([0], ev_cum))[bounds]
    event_of = (ev_cum - events_per_call
                - ev_bounds[thread_of_call])[call] + event_in_template[acc]

    # keys: each thread's slices, numbered by first occurrence
    codes, decode, n_codes = _codes(calls.slots, len(shape))
    uniq, first, inverse = np.unique(owner * n_codes
                                     + codes[slot[acc], call],
                                     return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    key_id = rank[inverse]
    distinct, which = np.unique(uniq[order] % n_codes, return_inverse=True)
    keys = list(map(decode(distinct).__getitem__, which.tolist()))
    key_bounds = np.concatenate(([0], np.cumsum(
        np.bincount(uniq // n_codes, minlength=n_threads))))

    # compile_trace's checks, thread by thread in order, in one pass
    footprint = table("footprint", np.int64)[acc]
    nonpositive = np.flatnonzero(footprint <= 0)
    if nonpositive.size:
        t = owner[nonpositive[0]]
        lo, hi = acc_bounds[t], acc_bounds[t + 1]
        check_constant_footprints(key_id[:lo], footprint[:lo], keys,
                                  "mid-trace")
        at = lo + int(np.argmin(footprint[lo:hi]))
        raise ValueError(
            f"reuse-distance replay needs positive footprints, got "
            f"{footprint[at]} for key {keys[key_id[at]]!r}")
    check_constant_footprints(key_id, footprint, keys, "mid-trace")

    key_id -= key_bounds[owner]
    columns = (key_id, table("nbytes", np.float64)[acc],
               table("cost_scale", np.float64)[acc], footprint,
               table("write", bool)[acc], event_of, cycles[ev], flops[ev])
    traces = []
    for t in range(n_threads):
        e0, e1 = ev_bounds[t], ev_bounds[t + 1]
        if e0 == e1:
            traces.append(CompiledTrace(*_EMPTY, 0, ()))
            continue
        a0, a1 = acc_bounds[t], acc_bounds[t + 1]
        traces.append(CompiledTrace(
            *(c[a0:a1] for c in columns[:6]),
            *(c[e0:e1] for c in columns[6:]), n_events=int(e1 - e0),
            keys=tuple(keys[key_bounds[t]:key_bounds[t + 1]])))
    return traces
