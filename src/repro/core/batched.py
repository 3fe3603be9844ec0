"""Batched lowering of loop-nest plans: vectorized iteration enumeration.

The interpreter (:mod:`repro.core.codegen` + :mod:`repro.core.runtime`)
invokes a Python-level ``body_func(ind)`` once per innermost iteration.
The batched backend instead *enumerates* every ``ind`` a thread would
visit — in exactly the interpreter's emission order — as one flat
``(n, num_loops)`` int64 array, so kernels can replace the per-iteration
Python loop with tile-level NumPy calls over whole blocking levels.

The enumeration replays the code generator's partitioning formulas
symbolically:

* serial levels iterate their full local range;
* PAR-MODE-2 grid levels take the block ``[coord*chunk, (coord+1)*chunk)``
  of their trip range along the declared axis;
* PAR-MODE-1 collapse groups flatten their trip space and partition it
  per the schedule (static near-equal, static chunked round-robin, or
  dynamic), then decode flat indices back to loop variables;
* the logical index of loop ``l`` is
  ``start_l + sum_p j_p * step_p`` over all occurrences ``p`` of ``l``,
  where ``j_p`` is the local trip index at level ``p`` (each occurrence's
  variable chains off its parent, so the sum telescopes).

Dynamic chunk ownership is decided at run time by
:class:`~repro.core.runtime.NestContext.next_chunk`; the enumeration
reproduces serial execution, where threads run to completion in tid
order against one shared context, so thread 0 claims every chunk
(first come, first served).  That is only provable when
:func:`batchable` accepts the plan.

:func:`batchable` is the gate: it reports whether the batched backend
can reproduce the interpreter's semantics bit-for-bit for a plan, and
why not otherwise.  Callers fall back to the interpreter on a ``False``.
"""

from __future__ import annotations

import numpy as np

from .plan import LoopLevel, LoopNestPlan

__all__ = ["BACKENDS", "resolve_backend", "batchable", "enumerate_inds",
           "clear_enumeration_cache"]

#: accepted values of the kernel/Session ``backend`` knob
BACKENDS = ("interp", "batched")


def resolve_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


# -- unit decomposition (mirrors codegen._emit_levels grouping) -----------

def _units(plan: LoopNestPlan) -> list:
    """Decompose the nest into emission units: ``("serial", level)``,
    ``("grid", level)``, or ``("collapse", [levels])`` for a maximal
    adjacent run of PAR-MODE-1 parallel levels."""
    units = []
    levels = list(plan.levels)
    i = 0
    while i < len(levels):
        lv = levels[i]
        if lv.grid_axis:
            units.append(("grid", lv))
            i += 1
        elif lv.parallel:
            group = [lv]
            i += 1
            while i < len(levels) and levels[i].parallel \
                    and not levels[i].grid_axis:
                group.append(levels[i])
                i += 1
            units.append(("collapse", group))
        else:
            units.append(("serial", lv))
            i += 1
    return units


def _trips(level: LoopLevel, plan: LoopNestPlan) -> int:
    spec = plan.specs[level.loop_index]
    if level.occurrence == 0:
        return (spec.bound - spec.start) // level.step
    return level.outer_step // level.step


def _collapse_runs(plan: LoopNestPlan) -> list:
    return [u[1] for u in _units(plan) if u[0] == "collapse"]


# -- the gate -------------------------------------------------------------

def batchable(plan: LoopNestPlan, num_threads: int,
              execution: str = "serial") -> tuple:
    """Can the batched backend reproduce this plan exactly?

    Returns ``(ok, reason)``; *reason* is ``""`` when ok and a short
    human-readable fallback cause otherwise.
    """
    if plan.has_barriers and num_threads > 1:
        return False, "barriers require interleaved thread execution"
    runs = _collapse_runs(plan)
    if plan.parsed.schedule == "dynamic" and runs:
        if execution == "threads" and num_threads > 1:
            return False, ("dynamic schedule under threads execution is "
                           "arrival-order dependent")
        if len(runs) > 1:
            return False, "multiple dynamic collapse groups"
        if any(lv.grid_axis for lv in plan.levels):
            return False, "dynamic schedule combined with a thread grid"
    return True, ""


# -- vectorized helpers ---------------------------------------------------

def _ragged_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, e)`` for each (s, e) pair, vectorized."""
    sizes = np.maximum(stops - starts, 0)
    n = int(sizes.sum())
    if n == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, sizes)
    offs = np.arange(n, dtype=np.int64) \
        - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return base + offs


def _unit_flat(unit, plan: LoopNestPlan, num_threads: int,
               tid: int) -> np.ndarray:
    """The flat local-index selection this thread executes for one unit,
    ascending — exactly the order the generated nest emits."""
    kind = unit[0]
    if kind == "serial":
        return np.arange(_trips(unit[1], plan), dtype=np.int64)
    if kind == "grid":
        lv = unit[1]
        trips = _trips(lv, plan)
        R, C, D = plan.grid_shape
        coord = {"R": tid // (C * D), "C": (tid // D) % C,
                 "D": tid % D}[lv.grid_axis]
        chunk = -(-trips // lv.grid_ways)
        s = min(coord * chunk, trips)
        e = min((coord + 1) * chunk, trips)
        return np.arange(s, e, dtype=np.int64)
    # collapse group
    group = unit[1]
    total = 1
    for lv in group:
        total *= _trips(lv, plan)
    sched = plan.parsed.schedule
    chunk = plan.parsed.chunk
    if sched == "dynamic":
        # serial FCFS: thread 0 runs first against the shared context and
        # claims every chunk (batchable() proved the epochs thread-
        # invariant), so later threads find the counters exhausted
        if tid == 0:
            return np.arange(total, dtype=np.int64)
        return np.empty(0, dtype=np.int64)
    if chunk:
        starts = np.arange(tid * chunk, total,
                           num_threads * chunk, dtype=np.int64)
        return _ragged_arange(starts, np.minimum(starts + chunk, total))
    base, rem = divmod(total, num_threads)
    lo = tid * base + min(tid, rem)
    hi = lo + base + (1 if tid < rem else 0)
    return np.arange(lo, hi, dtype=np.int64)


# -- the enumeration ------------------------------------------------------

_ENUM_CACHE: dict = {}
_ENUM_CACHE_MAX = 256


def clear_enumeration_cache() -> None:
    _ENUM_CACHE.clear()


def enumerate_inds(plan: LoopNestPlan, num_threads: int,
                   tid: int) -> np.ndarray:
    """Every logical-index vector thread *tid* visits, in emission order.

    Returns an ``(n, plan.num_loops)`` int64 array: row *r* is the
    ``ind`` of the interpreter's *r*-th ``body_func`` call on this
    thread.  Results are cached per (plan, num_threads, tid).
    """
    key = (plan.cache_key(), num_threads, tid)
    cached = _ENUM_CACHE.get(key)
    if cached is not None:
        return cached

    units = _units(plan)
    flats = [_unit_flat(u, plan, num_threads, tid) for u in units]
    n = 1
    for f in flats:
        n *= f.shape[0]

    # local trip index at every level, for every emitted iteration
    j_of: dict = {}      # level position -> (n,) int64
    if n:
        idx = np.arange(n, dtype=np.int64)
        inner = n
        for unit, flat in zip(units, flats):
            inner //= flat.shape[0]
            sel = flat[(idx // inner) % flat.shape[0]]
            if unit[0] == "collapse":
                group = unit[1]
                div = 1
                for lv in group:
                    div *= _trips(lv, plan)
                for lv in group:
                    div //= _trips(lv, plan)
                    j_of[lv.position] = (sel // div) % _trips(lv, plan)
            else:
                j_of[unit[1].position] = sel

    inds = np.empty((n, plan.num_loops), dtype=np.int64)
    for li in range(plan.num_loops):
        spec = plan.specs[li]
        col = np.full(n, spec.start, dtype=np.int64)
        if n:
            char = chr(ord("a") + li)
            for lv in plan.levels:
                if lv.char == char:
                    col += j_of[lv.position] * lv.step
        inds[:, li] = col

    if len(_ENUM_CACHE) >= _ENUM_CACHE_MAX:
        _ENUM_CACHE.pop(next(iter(_ENUM_CACHE)))
    _ENUM_CACHE[key] = inds
    inds.setflags(write=False)
    return inds
