"""The model's and the engine's static replays run on arrays, end to end.

Guards for the array path:

* ``simulate`` and ``ParlooperMlp.simulate`` reach the function bound to
  ``repro.simulator.engine.simulate_traces`` once per replay, with
  compiled traces.  The check rebinds that name, and every alias of it
  in a ``repro`` module, to a counting wrapper — as a name-based span
  recorder would — so a replay that bypasses the name shows up here.
* Pricing a kernel builds no :class:`~repro.simulator.trace.Access`
  object: the event builders fill columns, compilation concatenates
  them, and only the scalar oracles read the per-access view.
* No static-schedule replay reaches an ``OrderedDict`` LRU, and no
  library function calls the scalar oracles ``predict_traces`` and
  ``simulate_traces_lru``: they are the tests' references.
* Kernel pricing runs no nest: a cold ``OpCostModel.gemm_seconds``,
  ``simulate`` / ``predict`` of GEMM, conv and SpMM on static schedules,
  and ``ParlooperMlp.simulate`` / ``.predict`` compile their traces from
  the block map, with ``trace_threaded_loop`` rebound to raise.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Session, default_session
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.kernels.spmm import ParlooperSpmm
from repro.platform import SPR
from repro.simulator import TraceCache, engine, trace
from repro.simulator.lru import LRUCache
from repro.simulator.reuse import CompiledTrace
from repro.simulator.trace import Access
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix
from repro.workloads.opsim import OpCostModel

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _gemm():
    return ParlooperGemm(256, 256, 256, 64, 64, 64, k_step=2,
                         spec_string="aBC", num_threads=8)


def _rebind(monkeypatch, original, replacement) -> None:
    """Rebind *original*, and every alias of it in a ``repro`` module, to
    *replacement* — as a name-based span recorder would."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name == "repro" or name.startswith("repro."):
            for alias, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, alias, replacement)


@pytest.fixture
def replays(monkeypatch):
    """A list that records the traces of every ``simulate_traces`` call."""
    calls = []
    original = engine.simulate_traces

    def counting(traces, machine, dispatch_overhead=True):
        result = original(traces, machine, dispatch_overhead)
        calls.append(traces)       # only replays that returned
        return result

    _rebind(monkeypatch, original, counting)
    return calls


def test_every_static_replay_reaches_the_wrapped_name(replays):
    gemm = _gemm()
    gemm.simulate(SPR, session=Session())
    assert len(replays) == 1
    gemm.simulate(SPR, session=Session())
    assert len(replays) == 2
    ParlooperMlp([128, 128, 128], 64, num_threads=4).simulate(
        SPR, session=Session())
    assert len(replays) == 3
    assert all(isinstance(ct, CompiledTrace)
               for traces in replays for ct in traces)


def test_pricing_builds_no_access_objects(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an Access object was built")

    monkeypatch.setattr(Access, "__init__", refuse)
    sess = Session()
    gemm = _gemm()
    assert gemm.simulate(SPR, session=sess).seconds > 0
    assert gemm.predict(SPR, session=sess).seconds > 0


def test_static_replays_reach_no_scalar_lru(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a static replay reached the scalar LRU")

    monkeypatch.setattr(LRUCache, "access", refuse)
    kernels = [_gemm(), *_sparse_kernels(),
               ParlooperMlp([128, 128, 128], 64, num_threads=4)]
    for kern in kernels:
        sess = Session()
        assert kern.simulate(SPR, session=sess).seconds > 0
        assert kern.predict(SPR, session=sess).seconds > 0
    assert OpCostModel(SPR, num_threads=8).gemm_seconds(
        256, 256, 256, DType.F32) > 0


def test_no_library_function_calls_the_scalar_oracles():
    oracles = {"predict_traces", "simulate_traces_lru"}
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    getattr(fn, "attr", None)
                if name in oracles:
                    calls.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not calls, f"library calls to a scalar oracle: {calls}"


def _sparse_kernels():
    dense = np.ones((64, 64), dtype=np.float32)
    dense[:16, 16:32] = 0.0
    return [ParlooperConv(ConvSpec(N=2, C=32, K=32, H=6, W=6), bc=16,
                          bk=16, w_step=2, num_threads=4),
            ParlooperSpmm(BCSCMatrix.from_dense(dense, 16, 16), 64,
                          bn=16, num_threads=4)]


def _refuse_nests(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel trace was captured by running a "
                             "nest")

    _rebind(monkeypatch, trace.trace_threaded_loop, refuse)


def test_gemm_pricing_runs_no_nest(monkeypatch):
    _refuse_nests(monkeypatch)
    # cold: the cost model prices through the default session's cache
    monkeypatch.setattr(default_session(), "trace_cache", TraceCache())
    assert OpCostModel(SPR, num_threads=8).gemm_seconds(
        256, 256, 256, DType.F32) > 0
    for gemm in (_gemm(), ParlooperGemm(256, 256, 256, flat_b=True,
                                        num_threads=4)):
        assert gemm.simulate(SPR, session=Session()).seconds > 0
        assert gemm.predict(SPR, session=Session()).seconds > 0
    mlp = ParlooperMlp([128, 128, 128], 64, num_threads=4)
    assert mlp.predict(SPR, session=Session()).seconds > 0


def test_conv_spmm_and_mlp_simulate_run_no_nest(monkeypatch):
    _refuse_nests(monkeypatch)
    for kern in _sparse_kernels():
        assert kern.simulate(SPR, session=Session()).seconds > 0
        assert kern.predict(SPR, session=Session()).seconds > 0
    mlp = ParlooperMlp([128, 128, 128], 64, num_threads=4)
    assert mlp.simulate(SPR, session=Session()).seconds > 0
