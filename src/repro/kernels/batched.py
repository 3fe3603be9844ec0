"""Batched tile-level nest execution and vectorized trace capture.

The interpreter runs one Python ``body(ind)`` call per innermost
iteration.  This module lowers whole loop nests to *block-granular*
NumPy instead: :func:`~repro.core.batched.enumerate_inds` materializes
every index vector a thread visits (in the interpreter's exact emission
order), and the per-kernel executors below replay those iterations as a
handful of stacked einsum / fancy-index / slice-assign calls over whole
blocking levels — the LoopStack move of dispatching the nest to batched
tensor primitives rather than interpreting it.

Correctness contract (fuzz-verified per family, see
``tests/verify``):

* the batched executor performs, per output block, the same reduction
  updates in the same order as the serial interpreter — ascending
  reduction index within each thread, threads in tid order — with the
  same compute-precision casts and store-time down-conversions
  (:mod:`repro.tpp.batched`).  On integer-valued tensors the results
  are bit-identical; on general floats they agree to reduction-order
  tolerance.
* the trace builders emit, per thread, a :class:`CompiledTrace` equal
  element-for-element (and digest-for-digest) to compiling the
  interpreter's captured :class:`~repro.simulator.trace.ThreadTrace` —
  same first-appearance key interning, same access/event order, same
  bit-exact ``compute_cycles``.

Execution eligibility is decided by :func:`~repro.core.batched.
batchable` plus per-kernel layout gates; ineligible nests fall back to
the interpreter (counted on the ``batched_exec`` obs counter).  Trace
builders have no such gate: the round-robin chunk policy reproduces the
tracing context for every plan.
"""

from __future__ import annotations

import numpy as np

from ..core.batched import (BACKENDS, batchable, enumerate_inds,
                            resolve_backend)
from ..core.inject import active_injector
from ..obs.context import current as _obs
from ..simulator.reuse import CompiledTrace
from ..tpp.backend.dispatch import dispatch_brgemm
from ..tpp.backend.isa import ISA_SPECS
from ..tpp.batched import (batched_bias_add_col, batched_brgemm,
                           batched_unary)
from ..tpp.dtypes import DType, from_compute

__all__ = ["BACKENDS", "resolve_backend", "record_backend_outcome",
           "run_gemm_batched", "run_conv_batched", "run_spmm_batched",
           "gemm_trace_builder", "conv_trace_builder", "spmm_trace_builder"]

#: cap on elements gathered per stacked call, so transient block stacks
#: stay cache-friendly instead of materializing the whole nest at once
_SLAB_ELEMS = 1 << 21


def record_backend_outcome(kernel: str, outcome: str,
                           reason: str = "") -> None:
    """Count a lowered/fallback dispatch decision on the obs registry."""
    obs = _obs()
    if obs.enabled:
        labels = {"kernel": kernel, "outcome": outcome}
        if reason:
            labels["reason"] = reason
        obs.inc("batched_exec", **labels)


def _slabs(sel: np.ndarray, elems_per_row: int):
    """Split a selection into slabs of bounded gather size."""
    step = max(1, _SLAB_ELEMS // max(1, elems_per_row))
    for s in range(0, sel.size, step):
        yield sel[s:s + step]


# ======================================================================
# batched execution
# ======================================================================

def run_gemm_batched(kern, A, B, C, bias_vec=None,
                     defer_epilogue: bool = False) -> np.ndarray:
    """Execute a :class:`~repro.kernels.gemm.ParlooperGemm` (blocked-B
    layout) with tile-level stacked BRGEMM calls.

    Threads run in tid order; within a thread, each ``k_step`` group is
    processed as one stacked gather → einsum → scatter.  Every C-block
    fiber sees its reduction updates in ascending-k order with the
    epilogue attached to the last one — the serial interpreter's exact
    per-fiber schedule.  ``defer_epilogue`` leaves C linear so ABFT can
    verify it first (the kernel applies the epilogue afterwards).
    """
    loop = kern.loop
    nt = loop.num_threads
    prec = kern.brgemm_tpp.precision
    ks = kern.k_step
    last_k = kern.Kb - ks
    elems = ks * kern.bm * kern.bk + ks * kern.bk * kern.bn
    bias_blocks = (None if bias_vec is None
                   else np.asarray(bias_vec).reshape(kern.Mb, kern.bm))
    injector = active_injector()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        ik, im, in_ = inds[:, 0], inds[:, 1], inds[:, 2]
        for k0 in range(0, kern.Kb, ks):
            sel = np.nonzero(ik == k0)[0]
            if not sel.size:
                continue
            for part in _slabs(sel, elems):
                ims, ins = im[part], in_[part]
                a_blk = A[ims, k0:k0 + ks]
                b_blk = B[ins, k0:k0 + ks]
                if k0 == 0:
                    old = np.zeros((part.size, kern.bm, kern.bn),
                                   dtype=C.dtype)
                else:
                    old = C[ins, ims]
                stored = batched_brgemm(a_blk, b_blk, old,
                                        kern.brgemm_tpp.beta, prec)
                if k0 == last_k:
                    if not defer_epilogue:
                        if kern.bias_tpp is not None:
                            stored = batched_bias_add_col(
                                stored, bias_blocks[ims], prec)
                        if kern.act_tpp is not None:
                            stored = batched_unary(
                                stored, kern.activation, prec)
                    if injector is not None:
                        # final writes, in the interpreter's visit order
                        for r in range(part.size):
                            injector.maybe_flip(
                                stored[r],
                                (int(k0), int(ims[r]), int(ins[r])))
                C[ins, ims] = stored
    return C


def run_conv_batched(kern, I, Wt, O) -> np.ndarray:
    """Execute a :class:`~repro.kernels.conv.ParlooperConv` with stacked
    address-variant BRGEMM calls, gathering the ``c_step * R * S``
    input/weight blocks of every iteration via broadcast fancy indexing
    (no im2col copy of the full tensor)."""
    sp = kern.spec
    st = sp.stride
    loop = kern.loop
    nt = loop.num_threads
    prec = kern.brgemm_tpp.precision
    cs, R, S, ws = kern.c_step, sp.R, sp.S, kern.w_step
    br = cs * R * S
    # per-br-column offsets in the interpreter's c-outer, r-mid, s-inner
    # gather order
    c_off = np.repeat(np.arange(cs, dtype=np.int64), R * S)
    r_off = np.tile(np.repeat(np.arange(R, dtype=np.int64), S), cs)
    s_off = np.tile(np.arange(S, dtype=np.int64), cs * R)
    wcols = np.arange(ws, dtype=np.int64) * st
    ocols = np.arange(ws, dtype=np.int64)
    elems = br * (ws * kern.bc + kern.bc * kern.bk)
    injector = active_injector()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        # ascending (ic, ir, is_) groups: each O fiber sees its reduction
        # chunks in the serial interpreter's order
        red = (inds[:, 1] * (R + 1) + inds[:, 5]) * (S + 1) + inds[:, 6]
        # the r/s loops cover their whole range per call, so the last
        # reduction chunk of every O fiber is ic == Cb - c_step
        final_code = (kern.Cb - cs) * (R + 1) * (S + 1)
        for code in np.unique(red):
            sel = np.nonzero(red == code)[0]
            r0 = inds[sel[0]]
            ic, ir, is_ = int(r0[1]), int(r0[5]), int(r0[6])
            first = ic == 0 and ir == 0 and is_ == 0
            final = code == final_code
            cg = (ic + c_off)[None, :]
            for part in _slabs(sel, elems):
                n_i = inds[part, 0]
                ikk = inds[part, 2]
                ih = inds[part, 3]
                iw = inds[part, 4]
                rows = (ih * st + ir)[:, None] + r_off[None, :]
                col0 = (iw * st + is_)[:, None] + s_off[None, :]
                a_blk = I[n_i[:, None, None], cg[:, :, None],
                          rows[:, :, None],
                          col0[:, :, None] + wcols[None, None, :]]
                b_blk = Wt[ikk[:, None], cg,
                           (ir + r_off)[None, :], (is_ + s_off)[None, :]]
                oidx = iw[:, None] + ocols[None, :]
                if first:
                    old = np.zeros((part.size, ws, kern.bk), dtype=O.dtype)
                else:
                    old = O[n_i[:, None], ikk[:, None], ih[:, None], oidx]
                stored = batched_brgemm(a_blk, b_blk, old,
                                        kern.brgemm_tpp.beta, prec)
                if injector is not None and final:
                    for r in range(part.size):
                        injector.maybe_flip(
                            stored[r], tuple(int(v) for v in inds[part[r]]))
                O[n_i[:, None], ikk[:, None], ih[:, None], oidx] = stored
    return O


def run_spmm_batched(kern, B, C) -> np.ndarray:
    """Execute a :class:`~repro.kernels.spmm.ParlooperSpmm` (flat-B
    layout, beta = 0) with row-block-grouped stacked matmuls.

    Iterations are grouped by nonzero count so each group is a dense
    ``(x, bm, bk) @ (x, bk, bn)`` stack; the accumulation stays
    sequential over the j-th nonzero, matching the microkernel's
    ``acc = acc + a @ b`` chain order."""
    a = kern.a
    bm, bk, bn = a.bm, a.bk, kern.bn
    prec = kern.spmm_tpp.precision
    comp = prec.comp.np
    counts = np.diff(a.row_ptr)
    loop = kern.loop
    nt = loop.num_threads
    rowc = np.arange(bm, dtype=np.int64)
    colc = np.arange(bn, dtype=np.int64)
    bkc = np.arange(bk, dtype=np.int64)
    elems = bm * bk + bk * bn + bm * bn
    injector = active_injector()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        i_m, i_n = inds[:, 0], inds[:, 1]
        c_nnz = counts[i_m]
        for c in np.unique(c_nnz):
            sel = np.nonzero(c_nnz == c)[0]
            for part in _slabs(sel, int(c) * elems + elems):
                ims, ins = i_m[part], i_n[part]
                acc = np.zeros((part.size, bm, bn), dtype=comp)
                base = a.row_ptr[ims]
                cols = (ins * bn)[:, None] + colc[None, :]
                for j in range(int(c)):
                    q = base + j
                    kc = a.col_idx[q]
                    a_blk = a.values[a.perm[q]].astype(comp, copy=False)
                    b_blk = B[(kc * bk)[:, None, None] + bkc[None, :, None],
                              cols[:, None, :]]
                    acc = acc + np.matmul(a_blk, b_blk)
                stored = from_compute(acc, prec.out).astype(C.dtype,
                                                            copy=False)
                if injector is not None:
                    for r in range(part.size):
                        injector.maybe_flip(
                            stored[r], (int(ims[r]), int(ins[r])))
                C[(ims * bm)[:, None, None] + rowc[None, :, None],
                  cols[:, None, :]] = stored
    return C


# ======================================================================
# vectorized trace builders
# ======================================================================

def _intern_codes(flat_codes: np.ndarray, decode) -> tuple:
    """First-appearance interning of integer key codes — the vectorized
    twin of ``compile_trace``'s ``dict.setdefault`` walk."""
    uniq, first_idx, inv = np.unique(flat_codes, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    key_ids = rank[inv.reshape(-1)].astype(np.int64, copy=False)
    keys = tuple(decode(int(uniq[o])) for o in order)
    return key_ids, keys


def _empty_trace(tid: int, num_loops: int) -> CompiledTrace:
    return CompiledTrace(
        tid=tid,
        key_ids=np.empty(0, np.int64),
        nbytes=np.empty(0, np.float64),
        cost_scale=np.empty(0, np.float64),
        footprint=np.empty(0, np.int64),
        write=np.empty(0, bool),
        event_of=np.empty(0, np.int64),
        compute_cycles=np.empty(0, np.float64),
        flops=np.empty(0, np.float64),
        n_events=0,
        keys=(),
        event_ind=np.empty((0, num_loops), np.int64),
    )


def _gemm_layer_trace(tid, plan, num_threads, *, Mb, Nb, Kb, k_step,
                      bm, bn, bk, dtype, machine, names, epilogue,
                      flops_per_elem, scale) -> CompiledTrace:
    """One thread's compiled trace of a GEMM-shaped nest, built from the
    enumeration — no per-iteration Python body calls."""
    inds = enumerate_inds(plan, num_threads, tid, dynamic="roundrobin")
    n = inds.shape[0]
    if n == 0:
        return _empty_trace(tid, plan.num_loops)
    ik, im, in_ = inds[:, 0], inds[:, 1], inds[:, 2]
    ks = k_step
    last_k = Kb - ks
    nb = dtype.nbytes
    a_bytes = bm * bk * nb
    b_bytes = bk * bn * nb
    c_bytes = bm * bn * nb

    # radix-encoded keys: (tensor, i, j) -> (t*RI + i)*RJ + j
    RI = max(Mb, Nb)
    RJ = max(Kb, Mb)
    kk = ik[:, None] + np.arange(ks, dtype=np.int64)[None, :]
    a_code = im[:, None] * RJ + kk
    b_code = (RI + in_)[:, None] * RJ + kk
    c_code = ((2 * RI + in_) * RJ + im)[:, None]
    ncol = 2 * ks + 4
    # column layout per iteration row, in the interpreter's access
    # order: [A x ks][B x ks][C read][C write][elt C read][elt C write]
    codes = np.concatenate([a_code, b_code, c_code, c_code, c_code,
                            c_code], axis=1)
    mask = np.ones((n, ncol), dtype=bool)
    mask[:, 2 * ks] = ik > 0     # beta read skipped on first touch
    if epilogue:
        elt = ik == last_k
    else:
        elt = np.zeros(n, dtype=bool)
    mask[:, 2 * ks + 2] = elt
    mask[:, 2 * ks + 3] = elt

    rij = RI * RJ

    def decode(code):
        t, rem = divmod(code, rij)
        i, j = divmod(rem, RJ)
        return (names[t], i, j)

    key_ids, keys = _intern_codes(codes[mask], decode)

    row_nbytes = np.array([a_bytes] * ks + [b_bytes] * ks + [c_bytes] * 4,
                          dtype=np.float64)
    row_fp = np.array([a_bytes] * ks + [int(b_bytes * scale)] * ks
                      + [c_bytes] * 4, dtype=np.int64)
    row_cs = np.array([1.0] * ks + [float(scale)] * ks + [1.0] * 4,
                      dtype=np.float64)
    row_wr = np.array([False] * (2 * ks) + [False, True, False, True],
                      dtype=bool)

    ev_count = 1 + elt.astype(np.int64)
    ev_base = np.concatenate(([0], np.cumsum(ev_count)[:-1]))
    E = int(ev_base[-1] + ev_count[-1])
    col_ev = np.array([0] * (2 * ks + 2) + [1, 1], dtype=np.int64)
    event_of = (ev_base[:, None] + col_ev[None, :])[mask]

    cfg = dispatch_brgemm(machine.isa_for(dtype), dtype, bm, bn, bk, ks)
    br_flops = 2.0 * bm * bn * bk * ks
    br_cc = br_flops / max(cfg.flops_per_cycle(), 1e-9)
    flops = np.full(E, br_flops, dtype=np.float64)
    cc = np.full(E, br_cc, dtype=np.float64)
    if elt.any():
        spec = ISA_SPECS[machine.isa_for(DType.F32)]
        el_flops = flops_per_elem * bm * bn
        el_cc = el_flops / max(spec.flops_per_cycle(DType.F32) / 2.0,
                               1e-9)
        eidx = ev_base[elt] + 1
        flops[eidx] = el_flops
        cc[eidx] = el_cc

    return CompiledTrace(
        tid=tid,
        key_ids=key_ids,
        nbytes=np.broadcast_to(row_nbytes, (n, ncol))[mask],
        cost_scale=np.broadcast_to(row_cs, (n, ncol))[mask],
        footprint=np.broadcast_to(row_fp, (n, ncol))[mask],
        write=np.broadcast_to(row_wr, (n, ncol))[mask],
        event_of=event_of,
        compute_cycles=cc,
        flops=flops,
        n_events=E,
        keys=keys,
        event_ind=np.repeat(inds, ev_count, axis=0),
    )


def gemm_trace_builder(kern, machine, scale: float, names=("A", "B", "C")):
    """``tid -> CompiledTrace`` for a ParlooperGemm (or one MLP layer),
    equal to compiling the interpreter's trace of ``kern.sim_body(
    machine, names)``; *scale* is ``kern._conflict_scale()``."""
    loop = kern.loop
    epilogue = kern.act_tpp is not None or kern.bias_tpp is not None

    def build(tid: int) -> CompiledTrace:
        return _gemm_layer_trace(
            tid, loop.plan, loop.num_threads, Mb=kern.Mb, Nb=kern.Nb,
            Kb=kern.Kb, k_step=kern.k_step, bm=kern.bm, bn=kern.bn,
            bk=kern.bk, dtype=kern.dtype, machine=machine,
            names=names, epilogue=epilogue,
            flops_per_elem=2.0 if kern.bias else 1.0, scale=scale)
    return build


def conv_trace_builder(kern, machine):
    """``tid -> CompiledTrace`` for a ParlooperConv, equal to compiling
    the interpreter's trace of ``kern.sim_body(machine)``."""
    sp = kern.spec
    loop = kern.loop
    cs, R, S = kern.c_step, sp.R, sp.S
    Cb, Kb = kern.Cb, kern.Kb
    N, H, P, Q, st = sp.N, sp.H, sp.P, sp.Q, sp.stride
    T = max(N * Cb * H, Kb * Cb * R * S, N * Kb * P * Q)
    # A gather: c outer, r inner over range(R); B: c outer, r mid, s inner
    cA = np.repeat(np.arange(cs, dtype=np.int64), R)
    rA = np.tile(np.arange(R, dtype=np.int64), cs)
    cB = np.repeat(np.arange(cs, dtype=np.int64), R * S)
    rB = np.tile(np.repeat(np.arange(R, dtype=np.int64), S), cs)
    sB = np.tile(np.arange(S, dtype=np.int64), cs * R)
    nb = kern.dtype.nbytes
    a_bytes = kern.w_step * kern.bc * nb
    b_bytes = kern.bc * kern.bk * nb
    c_bytes = kern.w_step * kern.bk * nb
    brcount = cs * R * S
    cfg = dispatch_brgemm(machine.isa_for(kern.dtype), kern.dtype,
                          kern.w_step, kern.bk, kern.bc, brcount)
    ev_flops = 2.0 * kern.w_step * kern.bk * kern.bc * brcount
    ev_cc = ev_flops / max(cfg.flops_per_cycle(), 1e-9)

    def decode(code):
        t, rem = divmod(code, T)
        if t == 0:
            nc, row = divmod(rem, H)
            nn, c = divmod(nc, Cb)
            return ("I", nn, c, row)
        if t == 1:
            kcr, s = divmod(rem, S)
            kc, r = divmod(kcr, R)
            kb, c = divmod(kc, Cb)
            return ("Wt", kb, c, r, s)
        np_, q = divmod(rem, Q)
        nk, p = divmod(np_, P)
        nn, kb = divmod(nk, Kb)
        return ("O", nn, kb, p, q)

    def build(tid: int) -> CompiledTrace:
        inds = enumerate_inds(loop.plan, loop.num_threads, tid,
                              dynamic="roundrobin")
        n = inds.shape[0]
        if n == 0:
            return _empty_trace(tid, loop.plan.num_loops)
        in_, ic, ikk = inds[:, 0], inds[:, 1], inds[:, 2]
        ih, iw = inds[:, 3], inds[:, 4]
        a_code = (in_[:, None] * Cb + ic[:, None] + cA[None, :]) * H \
            + ih[:, None] * st + rA[None, :]
        b_code = T + (((ikk[:, None] * Cb + ic[:, None] + cB[None, :]) * R
                       + rB[None, :]) * S + sB[None, :])
        c_code = (2 * T
                  + ((in_ * Kb + ikk) * P + ih) * Q + iw)[:, None]
        ncol = cs * R + cs * R * S + 2
        codes = np.concatenate([a_code, b_code, c_code, c_code], axis=1)
        mask = np.ones((n, ncol), dtype=bool)
        mask[:, ncol - 2] = ic > 0   # beta read skipped on first touch
        key_ids, keys = _intern_codes(codes[mask], decode)
        row_nbytes = np.array([a_bytes] * (cs * R)
                              + [b_bytes] * (cs * R * S)
                              + [c_bytes] * 2, dtype=np.float64)
        row_fp = row_nbytes.astype(np.int64)
        row_wr = np.array([False] * (ncol - 1) + [True], dtype=bool)
        event_of = np.broadcast_to(
            np.arange(n, dtype=np.int64)[:, None], (n, ncol))[mask]
        return CompiledTrace(
            tid=tid,
            key_ids=key_ids,
            nbytes=np.broadcast_to(row_nbytes, (n, ncol))[mask],
            cost_scale=np.ones(key_ids.size, dtype=np.float64),
            footprint=np.broadcast_to(row_fp, (n, ncol))[mask],
            write=np.broadcast_to(row_wr, (n, ncol))[mask],
            event_of=event_of,
            compute_cycles=np.full(n, ev_cc, dtype=np.float64),
            flops=np.full(n, ev_flops, dtype=np.float64),
            n_events=n,
            keys=keys,
            event_ind=inds,
        )
    return build


def spmm_trace_builder(kern, machine):
    """``tid -> CompiledTrace`` for a ParlooperSpmm, equal to compiling
    the interpreter's trace of ``kern.sim_body(machine)`` (empty block
    rows emit no event, exactly like the ``None`` body returns)."""
    a = kern.a
    loop = kern.loop
    counts = np.diff(a.row_ptr)
    mx = int(counts.max()) if counts.size and a.nnz_blocks else 0
    NBR, NBC, Nb = a.n_block_rows, a.n_block_cols, kern.Nb
    # dense table of each block row's nonzero block-columns (ascending,
    # like row_blocks); padded slots are masked out below
    tab = np.zeros((NBR, max(mx, 1)), dtype=np.int64)
    vtab = np.arange(max(mx, 1), dtype=np.int64)[None, :] < counts[:, None]
    tab[vtab] = a.col_idx
    T = max(NBR * max(NBC, 1), NBC * Nb, NBR * Nb)
    bm, bk, bn = a.bm, a.bk, kern.bn
    nb = kern.dtype.nbytes
    a_bytes = bm * bk * nb
    b_bytes = bk * bn * nb
    c_bytes = bm * bn * nb
    isa = machine.isa_for(kern.dtype)

    def decode(code):
        t, rem = divmod(code, T)
        if t == 0:
            i, kc = divmod(rem, max(NBC, 1))
            return ("Asp", i, kc)
        name = "B" if t == 1 else "C"
        i, j = divmod(rem, Nb)
        return (name, i, j) if t == 2 else ("B", i, j)

    def build(tid: int) -> CompiledTrace:
        inds = enumerate_inds(loop.plan, loop.num_threads, tid,
                              dynamic="roundrobin")
        n = inds.shape[0]
        if n == 0:
            return _empty_trace(tid, loop.plan.num_loops)
        i_m, i_n = inds[:, 0], inds[:, 1]
        kcs = tab[i_m]
        vmask = vtab[i_m]
        has = counts[i_m] > 0
        a_code = i_m[:, None] * max(NBC, 1) + kcs
        b_code = T + kcs * Nb + i_n[:, None]
        c_code = (2 * T + i_m * Nb + i_n)[:, None]
        w = kcs.shape[1]
        codes = np.concatenate([a_code, b_code, c_code], axis=1)
        mask = np.concatenate([vmask, vmask, has[:, None]], axis=1)
        key_ids, keys = _intern_codes(codes[mask], decode)
        row_nbytes = np.array([a_bytes] * w + [b_bytes] * w + [c_bytes],
                              dtype=np.float64)
        row_wr = np.array([False] * (2 * w) + [True], dtype=bool)
        ev_count = has.astype(np.int64)
        ev_base = np.concatenate(([0], np.cumsum(ev_count)[:-1]))
        E = int(ev_count.sum())
        event_of = np.broadcast_to(ev_base[:, None],
                                   (n, 2 * w + 1))[mask]
        nnz_r = counts[i_m][has]
        flops = np.empty(E, dtype=np.float64)
        cc = np.empty(E, dtype=np.float64)
        for nz in np.unique(nnz_r):
            cfg = dispatch_brgemm(isa, kern.dtype, bm, bn, bk,
                                  max(1, int(nz)))
            f = 2.0 * bm * bn * bk * int(nz)
            m = nnz_r == nz
            flops[m] = f
            cc[m] = f / max(cfg.flops_per_cycle(), 1e-9)
        return CompiledTrace(
            tid=tid,
            key_ids=key_ids,
            nbytes=np.broadcast_to(row_nbytes, (n, 2 * w + 1))[mask],
            cost_scale=np.ones(key_ids.size, dtype=np.float64),
            footprint=np.broadcast_to(row_nbytes.astype(np.int64),
                                      (n, 2 * w + 1))[mask],
            write=np.broadcast_to(row_wr, (n, 2 * w + 1))[mask],
            event_of=event_of,
            compute_cycles=cc,
            flops=flops,
            n_events=E,
            keys=keys,
            event_ind=inds[has],
        )
    return build


# ======================================================================
# eligibility gates
# ======================================================================

def gemm_batched_ok(kern) -> tuple:
    if kern.flat_b:
        return False, "flat-B layout gathers per-iteration address blocks"
    return batchable(kern.loop.plan, kern.loop.num_threads,
                     kern.loop.execution)


def conv_batched_ok(kern) -> tuple:
    return batchable(kern.loop.plan, kern.loop.num_threads,
                     kern.loop.execution)


def spmm_batched_ok(kern) -> tuple:
    if kern.b_vnni != 1:
        return False, "VNNI-packed B requires per-block re-layout"
    if kern.spmm_tpp.beta != 0.0:
        return False, "nonzero beta accumulation is not lowered"
    return batchable(kern.loop.plan, kern.loop.num_threads,
                     kern.loop.execution)
