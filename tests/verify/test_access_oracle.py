"""Access oracle: ``sim_body`` against what the interpreter executes.

The perf model, the engine, the tuner and the race detector all trust a
kernel's ``sim_body`` to name the tensor slices each body call touches.
This oracle checks that claim by observation.  It runs the kernel's
interpreter on *recording operands*: object arrays whose every element
logs its slice key when a TPP converts it to a number (a view read, a
gather, a stride walk — however the body reached it), and is replaced by
a plain number when a TPP stores to it.  After each body call the oracle
collects

* the executed reads: the keys logged during the call.  An element the
  call stored to first is a plain number by the time it is read, so a
  zero-then-accumulate or an epilogue re-reading its own output does
  not count as a read;
* the executed writes: the keys of every element the call replaced;

and asserts ``sim_body(ind)``'s write keys equal the executed writes and
its read keys cover the executed reads.  Keys follow the layouts, not
the kernel's block map: conv input is keyed per (image, channel block,
input row), the granularity ``sim_body`` declares.  The fused bias
vector stays a plain array: it is outside §II-E's A/B/C traces, so its
reads are not checked.
"""

import copy
import random

import numpy as np
import pytest

from repro.core.errors import SpecError
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.spmm import ParlooperSpmm
from repro.platform import SPR
from repro.simulator.trace import _serialize_spec
from repro.tpp.sparse import BCSCMatrix
from repro.verify import default_families
from repro.verify.fuzz import _valid_case, default_case_count

_READS: set = set()


class _Element:
    """One operand element that logs its slice key when read."""

    __slots__ = ("value", "key")

    def __init__(self, value, key):
        self.value = value
        self.key = key

    def __float__(self):
        _READS.add(self.key)
        return self.value


def _recording(values: np.ndarray, block_ids: np.ndarray, keys: list):
    """An object array of elements: entry ``i`` holds ``values[i]`` and
    logs ``keys[block_ids[i]]``."""
    make = np.frompyfunc(lambda v, b: _Element(float(v), keys[b]), 2, 1)
    return make(values, block_ids)


def _blocked(name: str, values: np.ndarray, lead: int):
    """Recording operand keyed by its *lead* leading (block) axes."""
    shape = values.shape[:lead]
    ids = np.indices(shape).reshape(lead, -1).T.tolist()
    keys = [(name, *i) for i in ids]
    block = np.arange(len(keys)).reshape(shape)
    block = np.broadcast_to(block.reshape(shape + (1,) * (values.ndim - lead)),
                            values.shape)
    return _recording(values, block, keys)


def _tiled(name: str, values: np.ndarray, rows: int, cols: int,
           transpose: bool = False):
    """Recording flat matrix keyed by ``(row block, column block)``, or
    ``(column block, row block)`` with *transpose*."""
    r = np.arange(values.shape[0])[:, None] // rows
    c = np.arange(values.shape[1])[None, :] // cols
    nr, nc = values.shape[0] // rows, values.shape[1] // cols
    keys = [(name, j, i) if transpose else (name, i, j)
            for i in range(nr) for j in range(nc)]
    return _recording(values, np.broadcast_to(r * nc + c, values.shape), keys)


def _written(out: np.ndarray) -> np.ndarray:
    return np.frompyfunc(lambda e: type(e) is not _Element, 1, 1)(
        out).astype(bool)


def _ints(rng, *shape):
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def _gemm_operands(kern, rng):
    A = _blocked("A", kern.pack_a(_ints(rng, kern.M, kern.K)), 2)
    b = _ints(rng, kern.K, kern.N)
    if kern.flat_b:
        B = _tiled("B", b, kern.bk, kern.bn, transpose=True)
    else:
        B = _blocked("B", kern.pack_b(b), 2)
    C = _blocked("C", np.full(kern.alloc_c().shape, 7.0), 2)
    bias = _ints(rng, kern.M) if kern.bias else None
    return C, lambda: kern(A, B, C, bias)


def _conv_operands(kern, rng):
    sp = kern.spec
    I = _blocked("I", kern.pack_input(_ints(rng, sp.N, sp.C, sp.H, sp.W)), 3)
    Wt = _blocked("Wt", kern.pack_weights(_ints(rng, sp.K, sp.C, sp.R,
                                                sp.S)), 4)
    o = np.full(kern.alloc_output().shape, 7.0)
    # output tiles are w_step-wide column windows keyed by their start
    n, kb, p, q, _ = o.shape
    ws = kern.w_step
    ids = (((np.arange(n)[:, None, None, None] * kb
             + np.arange(kb)[None, :, None, None]) * p
            + np.arange(p)[None, None, :, None]) * (q // ws)
           + np.arange(q)[None, None, None, :] // ws)
    keys = [("O", a, b, c, d * ws) for a in range(n) for b in range(kb)
            for c in range(p) for d in range(q // ws)]
    O = _recording(o, np.broadcast_to(ids[..., None], o.shape), keys)
    return O, lambda: kern(I, Wt, O)


def _spmm_operands(kern, rng):
    a = copy.copy(kern.a)
    cols = np.empty(a.nnz_blocks, dtype=np.int64)
    cols[a.perm] = a.col_idx
    keys = [("Asp", int(r), int(c)) for r, c in zip(a.row_idx, cols)]
    slots = np.arange(a.nnz_blocks).reshape(-1, 1, 1)
    a.values = _recording(a.values, np.broadcast_to(slots, a.values.shape),
                          keys)
    kern.a = a
    B = _tiled("B", kern.pack_b(_ints(rng, a.k, kern.N)), a.bk, kern.bn)
    C = _tiled("C", np.full((a.m, kern.N), 7.0), a.bm, kern.bn)
    return C, lambda: kern(B, C)


def _operands(kern, rng):
    if isinstance(kern, ParlooperGemm):
        return _gemm_operands(kern, rng)
    if isinstance(kern, ParlooperConv):
        return _conv_operands(kern, rng)
    return _spmm_operands(kern, rng)


class _PerCall:
    """A kernel's loop, running each body call with a fresh read log."""

    def __init__(self, loop, on_call):
        self._loop = loop
        self._on_call = on_call

    def __getattr__(self, name):
        return getattr(self._loop, name)

    def __call__(self, body_func, init_func=None, term_func=None):
        def body(ind):
            _READS.clear()
            body_func(ind)
            self._on_call(tuple(int(i) for i in ind), set(_READS))
        self._loop(body, init_func, term_func)


def _declared(sim_body, ind):
    events = sim_body(list(ind))
    if events is None:
        events = []
    elif not isinstance(events, list):
        events = [events]
    keys = [(a.key, a.write) for ev in events for a in ev.accesses]
    return ({k for k, w in keys if not w}, {k for k, w in keys if w})


def check_accesses(kern, seed: int = 0) -> int:
    """Run *kern*'s interpreter on recording operands and assert every
    body call's accesses against ``sim_body``; returns the call count."""
    out, run = _operands(kern, np.random.default_rng(seed))
    sim = kern.sim_body(SPR)
    flat = out.reshape(-1)
    out_keys = [e.key for e in flat]
    calls = []

    def on_call(ind, reads):
        stored = np.flatnonzero(_written(flat))
        writes = {out_keys[i] for i in stored}
        declared_reads, declared_writes = _declared(sim, ind)
        assert writes == declared_writes, (
            f"{kern.spec_string!r} {ind}: executed writes {sorted(writes)} "
            f"!= sim_body writes {sorted(declared_writes)}")
        assert reads <= declared_reads, (
            f"{kern.spec_string!r} {ind}: executed reads "
            f"{sorted(reads - declared_reads)} missing from sim_body")
        for i in stored:                 # later calls read these again
            flat[i] = _Element(float(flat[i]), out_keys[i])
        calls.append(ind)

    kern.loop = _PerCall(kern.loop, on_call)
    run()
    assert calls, "the interpreter made no body calls"
    return len(calls)


def _fuzz_kernel(family, spec, blocks, num_threads):
    """The family's interpreter kernel for a fuzz case; barrier specs
    that need real threads run their serialized nest instead."""
    try:
        return family.make(spec, blocks, num_threads, "interp")
    except SpecError:
        return family.make(_serialize_spec(spec), blocks, None, "interp")


@pytest.mark.fuzz
@pytest.mark.parametrize("family", default_families(), ids=lambda f: f.name)
def test_fuzz_cases(family):
    rng = random.Random(f"access-oracle:{family.name}")
    for _ in range(default_case_count()):
        spec, blocks, num_threads = _valid_case(rng, family)
        check_accesses(_fuzz_kernel(family, spec, blocks, num_threads))


def _spmm_with_empty_row():
    dense = np.ones((64, 64), dtype=np.float32)
    dense[16:32, :] = 0.0                        # block row 1 is empty
    dense[:16, 16:48] = 0.0
    return ParlooperSpmm(BCSCMatrix.from_dense(dense, 16, 16), 64, bn=16,
                         num_threads=2)


FIXED = {
    "spmm-empty-block-row": _spmm_with_empty_row,
    "conv-stride2-w_step<Q": lambda: ParlooperConv(
        ConvSpec(N=1, C=32, K=32, H=11, W=11, stride=2), bc=16, bk=16,
        w_step=1, c_step=2, spec_string="Abcdefg", num_threads=2),
    "gemm-bias-relu": lambda: ParlooperGemm(
        64, 64, 128, 16, 16, 16, k_step=2, activation="relu", bias=True,
        spec_string="bcaBCb", block_steps=((), (2, 1), (2,)),
        num_threads=4),
    "gemm-flat-b": lambda: ParlooperGemm(
        64, 64, 64, 16, 16, 16, k_step=2, flat_b=True, num_threads=2),
}


@pytest.mark.parametrize("make", FIXED.values(), ids=FIXED.keys())
def test_fixed_cases(make):
    assert check_accesses(make()) > 0


def test_oracle_sees_a_drifted_sim_body():
    """A sim_body that forgets a B block fails the oracle."""
    kern = FIXED["gemm-flat-b"]()
    honest = kern.sim_body

    def forgetful(machine):
        body = honest(machine)

        def drop_b(ind):
            events = body(ind)
            ev = events[0]
            accesses = tuple(a for a in ev.accesses
                             if a.key[0] != "B" or a.key[2] != ind[0])
            events[0] = type(ev)(accesses=accesses, flops=ev.flops,
                                 flops_per_cycle=ev.flops_per_cycle)
            return events
        return drop_b

    kern.sim_body = forgetful
    with pytest.raises(AssertionError, match="missing from sim_body"):
        check_accesses(kern)
