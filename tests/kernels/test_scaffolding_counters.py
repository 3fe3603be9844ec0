"""The counters the shared kernel scaffolding reports, pinned per family
and backend: ``batched_exec{kernel,outcome[,reason]}`` for the backend
dispatch and ``sdc_events{kernel,outcome}`` for the ABFT ladder.

Kernels are built outside the metrics scope, so only the calls count."""

import numpy as np
import pytest

from repro.core import ThreadedLoop
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.spmm import ParlooperSpmm
from repro.obs import MetricRegistry, ObsContext, use
from repro.resilience import SdcPlan, sdc_injection
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix


def ints(rng, *shape):
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def _gemm(rng, backend, eligible=True, abft="off"):
    kern = ParlooperGemm(64, 64, 64, 16, 16, 16, k_step=2, num_threads=2,
                         flat_b=not eligible, backend=backend, abft=abft)
    A, B = kern.pack_a(ints(rng, 64, 64)), kern.pack_b(ints(rng, 64, 64))
    return lambda: kern(A, B, kern.alloc_c())


def _conv(rng, backend, eligible=True, abft="off"):
    spec = ConvSpec(N=2, C=32, K=32, H=6, W=6)
    kern = ParlooperConv(spec, bc=16, bk=16, w_step=2, num_threads=2,
                         backend=backend, abft=abft)
    if not eligible:
        # a barrier spec at two threads needs real threads to run at all
        kern.loop = ThreadedLoop(kern.loop.specs, "A|bcdefg",
                                 num_threads=2, execution="threads")
    I = kern.pack_input(ints(rng, 2, 32, 6, 6))
    Wt = kern.pack_weights(ints(rng, 32, 32, 3, 3))
    return lambda: kern(I, Wt, kern.alloc_output())


def _spmm(rng, backend, eligible=True, abft="off"):
    dense = ints(rng, 64, 64)
    dense[0:16, 16:32] = 0.0
    a = BCSCMatrix.from_dense(dense, 16, 16)
    if eligible:
        kern = ParlooperSpmm(a, 64, bn=16, num_threads=2, backend=backend,
                             abft=abft)
    else:
        kern = ParlooperSpmm(a, 64, bn=16, dtype=DType.BF16, b_vnni=2,
                             num_threads=2, backend=backend)
    B = kern.pack_b(ints(rng, 64, 64))
    return lambda: kern(B, kern.alloc_c())


FAMILIES = {"gemm": _gemm, "conv": _conv, "spmm": _spmm}
#: why the ineligible instance of each family falls back
REASONS = {"gemm": "flat-B layout gathers per-iteration address blocks",
           "conv": "barriers require interleaved thread execution",
           "spmm": "VNNI-packed B requires per-block re-layout"}
#: how abft="correct" repairs one flipped element
REPAIRS = {"gemm": "corrected", "conv": "recomputed", "spmm": "recomputed"}


def _counters(run) -> dict:
    reg = MetricRegistry()
    with use(ObsContext(metrics=reg)):
        run()
    return {k: v for k, v in reg.snapshot().items()
            if k.startswith(("batched_exec", "sdc_events"))}


@pytest.mark.parametrize("backend", ("interp", "batched"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dispatch_and_abft_counters(family, backend):
    rng = np.random.default_rng(0)
    make = FAMILIES[family]

    def dispatched(outcome, n=1, reason=""):
        if backend != "batched":
            return {}
        labels = f'kernel="{family}",outcome="{outcome}"'
        if reason:
            labels += f',reason="{reason}"'
        return {f"batched_exec{{{labels}}}": n}

    assert _counters(make(rng, backend)) == dispatched("lowered")
    assert _counters(make(rng, backend, eligible=False)) == \
        dispatched("fallback", reason=REASONS[family])

    run = make(rng, backend, abft="correct")
    with sdc_injection(SdcPlan.single_flip(seed=1)) as inj:
        got = _counters(run)
    assert len(inj.flips) == 1
    repair = REPAIRS[family]
    # a recompute dispatches the nest a second time
    assert got == {
        **dispatched("lowered", 2 if repair == "recomputed" else 1),
        f'sdc_events{{kernel="{family}",outcome="detected"}}': 1,
        f'sdc_events{{kernel="{family}",outcome="{repair}"}}': 1}
