"""Differential test: column capture vs the interpreter capture.

A kernel's ``sim_body`` carries ``call_columns``: the trace cache then
compiles thread traces straight from the block map
(:func:`~repro.simulator.columns.compile_columns`) instead of running the
nest and compiling its events (``compile_trace(trace_threaded_loop(...))``,
the oracle).  Every array must be ``array_equal`` with an equal dtype,
and ``keys`` and ``n_events`` equal; a kernel's ``simulate`` and
``predict`` must be ``==`` to the same body wrapped in a plain function,
which the cache captures through the interpreter.
"""

import random
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro import Session
from repro.core.errors import SpecError
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.platform import ADL, SPR
from repro.simulator import (TraceCache, bandwidth_event, compile_trace,
                             predict, simulate, trace_threaded_loop)
from repro.simulator.columns import compile_columns
from repro.simulator.reuse import CompiledTrace
from repro.simulator.trace import _serialize_spec
from repro.tpp.dtypes import DType
from repro.verify import default_families
from repro.verify.fuzz import _valid_case, default_case_count

ARRAYS = [f.name for f in fields(CompiledTrace)
          if f.name not in ("n_events", "keys", "reuse_memo")]


def _plain(body):
    """*body* without ``call_columns``: the interpreter capture's input."""
    return lambda ind: body(ind)


def _assert_same(got, want, where):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, name)
    assert got.n_events == want.n_events, where
    assert got.keys == want.keys, where


def _check_traces(kern, machine, tids=None):
    """Column traces of *tids* (all threads by default) equal the
    interpreter's, thread by thread."""
    loop, body = kern.loop, kern.sim_body(machine)
    tids = list(range(loop.num_threads)) if tids is None else tids
    got = compile_columns(body.call_columns(loop, tids))
    assert len(got) == len(tids)
    for tid, ct in zip(tids, got):
        want = compile_trace(trace_threaded_loop(loop, _plain(body),
                                                 tids=[tid])[0])
        _assert_same(ct, want, (kern.spec_string, tid))


def _check_results(kern, machine):
    """``simulate`` and ``predict`` equal the interpreter path's."""
    body = _plain(kern.sim_body(machine))
    where = (kern.spec_string, machine.name)
    assert kern.simulate(machine, session=Session()) == \
        simulate(kern.loop, body, machine), where
    assert kern.predict(machine, session=Session()) == \
        predict(kern.loop, body, machine,
                total_flops=float(kern.flops)), where


def _fuzz_kernel(family, spec, blocks, num_threads):
    try:
        return family.make(spec, blocks, num_threads, "interp")
    except SpecError:
        return family.make(_serialize_spec(spec), blocks, None, "interp")


GEMM_FAMILIES = [f for f in default_families() if f.name in ("gemm", "mlp")]


@pytest.mark.fuzz
@pytest.mark.parametrize("family", GEMM_FAMILIES, ids=lambda f: f.name)
def test_fuzz_cases(family):
    rng = random.Random(f"column-capture:{family.name}")
    static = 0
    for _ in range(default_case_count()):
        spec, blocks, num_threads = _valid_case(rng, family)
        kern = _fuzz_kernel(family, spec, blocks, num_threads)
        if kern.loop.plan.parsed.schedule != "dynamic":
            static += 1
            _check_traces(kern, SPR)
            nt = kern.num_threads
            _check_traces(kern, SPR, [nt - 1, 0][:nt])
        for machine in (SPR, ADL):
            _check_results(kern, machine)
    assert static > 0


#: the engine-priced GEMMs of a ledger pricing pass: Fig 11's GPT-J
#: projections in BF16 and F32 at a 128-token prompt, and Fig 9's
#: BERT-Large ones at batch 4 (priced for both stacks), all on 112 SPR
#: threads with 64-blocks
PRICING_GEMMS = [
    (4096, 128, 4096, DType.BF16), (16384, 128, 4096, DType.BF16),
    (4096, 128, 16384, DType.BF16), (4096, 128, 4096, DType.F32),
    (16384, 128, 4096, DType.F32), (4096, 128, 16384, DType.F32),
    (1024, 704, 1024, DType.BF16), (4096, 704, 1024, DType.BF16),
    (1024, 704, 4096, DType.BF16)]


@pytest.mark.parametrize("M,N,K,dtype", PRICING_GEMMS)
def test_pricing_gemms(M, N, K, dtype):
    kern = ParlooperGemm(M, N, K, 64, 64, 64, dtype=dtype, num_threads=112)
    _check_traces(kern, SPR)


def test_flat_b_gemm_scales_b_footprints():
    kern = ParlooperGemm(256, 4096, 256, 64, 64, 64, k_step=2, flat_b=True,
                         spec_string="aBC", num_threads=8)
    _check_traces(kern, SPR)
    ct = TraceCache().compiled_thread_trace(kern.loop, kern.sim_body(SPR), 0)
    assert set(ct.cost_scale.tolist()) == {1.0, 2.1}
    _check_results(kern, SPR)


def test_mlp_predict():
    def mlp(gate=""):
        m = ParlooperMlp([256, 128, 256], 128, num_threads=8)
        for layer in m.layers:
            layer.gemm._columns_gate = gate
        return m

    for machine in (SPR, ADL):
        sess = Session()
        assert mlp().predict(machine, session=sess) == \
            mlp("interpreter").predict(machine, session=Session())
        (capture, *_) = sess.tracer.spans("trace_capture")
        assert dict(capture.args)["kind"] == "columns"


class _TwoFootprintGemm(ParlooperGemm):
    """A GEMM whose first call on an output block also streams that
    block with a footprint of its own: the C key gets two footprints."""

    def _events(self, machine, keys, c_key, first, last):
        events = super()._events(machine, keys, c_key, first, last)
        if first:
            events.append(bandwidth_event(c_key, 8))
        return events


def test_two_footprints_raise_alike():
    kern = _TwoFootprintGemm(128, 128, 256, 64, 64, 64, k_step=1,
                             spec_string="aBC", num_threads=2)
    body = kern.sim_body(SPR)
    errors = []
    for b in (body, _plain(body)):
        with pytest.raises(ValueError, match=r"\('C', 0, 0\)") as exc:
            TraceCache().compiled_thread_traces(kern.loop, b, range(2))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("round_", range(3))
def test_threads_racing_on_one_cache_file_each_trace_once(round_):
    """Racing column captures of one kernel's threads (in different
    orders and subsets) file one trace per tid: every caller gets the
    trace filed first, and each tid counts one miss."""
    kern = ParlooperGemm(256, 256, 256, 64, 64, 64, k_step=2,
                         spec_string="aBC", num_threads=24)
    loop, body = kern.loop, kern.sim_body(SPR)
    cache = TraceCache()
    got = []

    def sweep(seed):
        rng = random.Random(seed)
        for _ in range(4):
            tids = rng.sample(range(24), rng.randint(1, 24))
            got.extend(zip(tids, cache.compiled_thread_traces(loop, body,
                                                              tids)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=(8 * round_ + i,))
                   for i in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert cache.misses == len({tid for tid, _ in got})
    filed = cache.compiled_thread_traces(loop, body, range(24))
    assert all(ct is filed[tid] for tid, ct in got)
    assert len({id(ct) for ct in filed if not ct.n_events}) == 1
