"""Differential test: column capture vs the interpreter capture.

A kernel's ``sim_body`` carries ``call_columns``: the trace cache then
compiles thread traces straight from the block map
(:func:`~repro.simulator.columns.compile_columns`) instead of running the
nest and compiling its events (``compile_trace(trace_threaded_loop(...))``,
the oracle).  Every array must be ``array_equal`` with an equal dtype,
and ``keys`` and ``n_events`` equal; a kernel's ``simulate`` and
``predict`` must be ``==`` to the same body wrapped in a plain function,
which the cache captures through the interpreter.  The MLP cascade joins
its layers' compiled traces with
:func:`~repro.simulator.reuse.concat_traces`, whose oracle is
``compile_trace`` of the concatenated interpreter traces.
"""

import random
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro import Session
from repro.core.errors import SpecError
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.kernels.spmm import ParlooperSpmm
from repro.platform import ADL, SPR
from repro.simulator import (TraceCache, bandwidth_event, compile_trace,
                             predict, simulate, trace_threaded_loop)
from repro.simulator.columns import compile_columns
from repro.simulator.engine import simulate_traces
from repro.simulator.reuse import CompiledTrace, concat_traces
from repro.simulator.trace import ThreadTrace, _serialize_spec
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix
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
                total_flops=float(kern._score_flops)), where


def _fuzz_kernel(family, spec, blocks, num_threads):
    try:
        return family.make(spec, blocks, num_threads, "interp")
    except SpecError:
        return family.make(_serialize_spec(spec), blocks, None, "interp")


@pytest.mark.fuzz
@pytest.mark.parametrize("family", default_families(), ids=lambda f: f.name)
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


def test_conv_with_stride_and_folded_channels():
    kern = ParlooperConv(ConvSpec(N=2, C=64, K=32, H=9, W=9, stride=2),
                         bc=16, bk=16, c_step=2, spec_string="ACbdefg",
                         num_threads=3)
    _check_traces(kern, SPR)
    for machine in (SPR, ADL):
        _check_results(kern, machine)


@pytest.mark.parametrize("dtype", [DType.F32, DType.BF16],
                         ids=lambda d: d.name)
def test_spmm_with_empty_and_ragged_block_rows(dtype):
    dense = np.ones((64, 64), dtype=np.float32)
    dense[:16] = 0.0                     # block row 0: no nonzero block
    dense[16:32, 16:48] = 0.0            # block row 1: two of four
    dense[48:, :48] = 0.0                # block row 3: one of four
    for spec, nt in (("AB", 4), ("BA", 3), ("aB", 2)):
        kern = ParlooperSpmm(BCSCMatrix.from_dense(dense, 16, 16), 64,
                             bn=16, dtype=dtype, spec_string=spec,
                             num_threads=nt)
        _check_traces(kern, SPR)
        _check_results(kern, SPR)


def _merged_mlp_replay(mlp, machine):
    """The cascade replayed from each thread's layers' interpreter
    traces, concatenated event by event and compiled once."""
    merged = None
    for l, layer in enumerate(mlp.layers):
        body = _plain(layer.gemm.sim_body(machine, mlp._names(l)))
        traces = trace_threaded_loop(layer.gemm.loop, body)
        if merged is None:
            merged = [ThreadTrace(t.tid) for t in traces]
        for t, extra in zip(merged, traces):
            t.events.extend(extra.events)
    return simulate_traces([compile_trace(t) for t in merged], machine)


@pytest.mark.parametrize("spec", ["aBC", "bCa", "aBC @ schedule(dynamic, 1)"])
def test_mlp_simulate(spec):
    mlp = ParlooperMlp([128, 256, 64, 128], 64, bm=32, bn=32, bk=32,
                       spec_string=spec, num_threads=4)
    for machine in (SPR, ADL):
        sess = Session()
        want = _merged_mlp_replay(mlp, machine)
        assert mlp.simulate(machine, session=sess) == want, machine.name
        assert mlp.simulate(machine, session=sess) == want, machine.name


def test_concat_traces_equals_compiling_the_concatenation():
    kern = ParlooperGemm(128, 128, 256, 64, 64, 64, k_step=1,
                         spec_string="aBC", num_threads=3)
    body = _plain(kern.sim_body(SPR))
    parts = [ThreadTrace(0, trace.events)
             for trace in trace_threaded_loop(kern.loop, body)]
    parts.insert(1, ThreadTrace(0))      # an idle part
    whole = ThreadTrace(0, [ev for t in parts for ev in t.events])
    _assert_same(concat_traces([compile_trace(t) for t in parts]),
                 compile_trace(whole), "concat")


def test_concat_traces_raises_on_a_footprint_change_across_parts():
    narrow = ThreadTrace(0, [bandwidth_event(("C", 0, 0), 64)])
    wide = ThreadTrace(0, [bandwidth_event(("D", 1), 8),
                           bandwidth_event(("C", 0, 0), 128)])
    with pytest.raises(ValueError) as want:
        compile_trace(ThreadTrace(0, narrow.events + wide.events))
    with pytest.raises(ValueError, match=r"\('C', 0, 0\)") as got:
        concat_traces([compile_trace(narrow), compile_trace(wide)])
    assert str(got.value) == str(want.value)


def test_mlp_predict():
    def plain_layers(m):
        for layer in m.layers:
            gemm = layer.gemm
            gemm.sim_body = lambda machine, names=None, g=gemm: _plain(
                ParlooperGemm.sim_body(g, machine, names))
        return m

    for machine in (SPR, ADL):
        sess = Session()
        mlp = ParlooperMlp([256, 128, 256], 128, num_threads=8)
        plain = plain_layers(ParlooperMlp([256, 128, 256], 128,
                                          num_threads=8))
        assert mlp.predict(machine, session=sess) == \
            plain.predict(machine, session=Session())
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
