"""Batched tile-level nest execution.

Instead of one Python ``body(ind)`` call per iteration, one executor
shared by every family takes each thread's index vectors from
:func:`~repro.core.batched.enumerate_inds` (the interpreter's emission
order), reads their blocks off the kernel's block map and runs them as
a few stacked gather / TPP / scatter steps: LoopStack's move of handing
the nest to batched tensor primitives.  Each output block gets the
serial interpreter's updates in its order with the same precision casts
(:mod:`repro.tpp.batched`), so results are bit-identical on
integer-valued tensors (fuzz-verified per family).  Nests that
:func:`~repro.core.batched.batchable` or the kernel's layout gate reject
fall back to the interpreter (the ``batched_exec`` obs counter).
"""

from __future__ import annotations

import numpy as np

from ..core.batched import batchable, enumerate_inds
from ..core.inject import active_injector

__all__ = ["batched_ok", "run_batched", "offer_final_tiles"]

#: cap on elements gathered per stacked call, so transient block stacks
#: stay cache-friendly instead of materializing the whole nest at once
_SLAB_ELEMS = 1 << 21


def batched_ok(kern) -> tuple:
    """``(eligible, reason)``: can the shared executor run *kern*'s nest?"""
    if kern._layout_gate:
        return False, kern._layout_gate
    loop = kern.loop
    return batchable(loop.plan, loop.num_threads, loop.execution)


def offer_final_tiles(injector, out, writes, lasts, inds) -> None:
    """Offer *injector* the output tile of each call that finishes its
    block, in call order, keyed by the call's body index: the one place
    either executor hands tiles to fault injection."""
    for write, last, ind in zip(writes, lasts, inds):
        if last:
            injector.maybe_flip(out[tuple(map(int, write))],
                                tuple(map(int, ind)))


def _groups(write: np.ndarray, count: np.ndarray):
    """One thread's calls as stackable groups, in run order: a group
    holds, in call order, the calls with one reduction count that are
    the thread's *step*-th update of their output block, so ascending
    steps give every block its updates in call order."""
    block = np.ravel_multi_index(write.T, write.max(axis=0) + 1)
    order = np.argsort(block, kind="stable")
    step = np.empty_like(block)
    step[order] = np.arange(len(block)) - np.searchsorted(block[order],
                                                          block[order])
    key = step * (int(count.max()) + 1) + count
    for k in np.unique(key):
        yield np.flatnonzero(key == k)


def _slabs(sel: np.ndarray, elems_per_row: int):
    """Split a selection into slabs of bounded gather size."""
    step = max(1, _SLAB_ELEMS // max(1, elems_per_row))
    for s in range(0, sel.size, step):
        yield sel[s:s + step]


def _stacker(x, axes):
    """``stack(rows, br)``: input *x*'s blocks at ``axes[d][rows, :br]``;
    runs along the last block axis (stride BRGEMM) copy as one window."""
    *lead, last = axes
    if last.shape[1] > 1 and (np.diff(last, axis=1) == 1).all() \
            and all((ax == ax[:, :1]).all() for ax in lead):
        windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(
            x, last.shape[1], axis=len(axes) - 1), -1, len(axes))
        return lambda rows, br: windows[tuple(ax[rows, 0]
                                              for ax in axes)][:, :br]
    return lambda rows, br: x[tuple(ax[rows, :br] for ax in axes)]


def run_batched(kern, *ops) -> None:
    """Execute *kern*'s nest on *ops* with stacked TPP calls.

    Threads run in tid order; the block map of each thread's index
    columns runs by :func:`_groups` in bounded slabs of gather → stacked
    TPP → scatter.  A call that starts its output block accumulates onto
    zeros, one that finishes it gets the fused epilogue, and finished
    tiles are offered to an active SDC injector in call order."""
    ins, out = kern._blocks(*ops)
    loop = kern.loop
    nt = loop.num_threads
    injector = active_injector()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid)
        n = inds.shape[0]
        if not n:
            continue
        m = kern.block_map(inds.T)
        write = np.array(m.write).T
        first, last = np.broadcast_to(m.first, n), np.broadcast_to(m.last, n)
        count = np.broadcast_to(
            len(m.reads[0]) if m.count is None else m.count, n)
        # per input, one (n, br) block index array per coordinate axis
        axes = [[np.array([c[d] for c in r]).T for d in range(len(r[0]))]
                if r else [] for r in m.reads]
        in_elems = sum(int(np.prod(x.shape[len(xa):]))
                       for x, xa in zip(ins, axes) if xa)
        stacks = [_stacker(x, xa) if xa else None
                  for x, xa in zip(ins, axes)]
        tile = out.shape[len(m.write):]
        for sel in _groups(write, count):
            br = int(count[sel[0]])
            for part in _slabs(sel, max(br, 1) * in_elems):
                at = tuple(write[part].T)
                if first[part].all():       # no C to read back
                    old = np.zeros((part.size, *tile), dtype=out.dtype)
                else:
                    old = out[at]
                    old[first[part]] = 0
                stored = kern._tpp_batched(
                    [stack(part, br) if br else np.empty((part.size, 0))
                     for stack in stacks], old)
                done = last[part]
                if done.all():
                    stored = kern._epilogue(stored, at, *ops)
                else:
                    stored[done] = kern._epilogue(
                        stored[done], tuple(write[part][done].T), *ops)
                out[at] = stored
        if injector is not None:
            offer_final_tiles(injector, out, write, last, inds)


# the benchmark ledger resolves the executor under its per-family names
run_gemm_batched = run_conv_batched = run_spmm_batched = run_batched
