"""The engine's static replays run on arrays, end to end.

Two guards for the array path:

* ``simulate`` and ``ParlooperMlp.simulate`` reach the function bound to
  ``repro.simulator.engine.simulate_traces`` once per replay, with
  compiled traces.  The check rebinds that name, and every alias of it
  in a ``repro`` module, to a counting wrapper — as a name-based span
  recorder would — so a replay that bypasses the name shows up here.
* Pricing a kernel builds no :class:`~repro.simulator.trace.Access`
  object: the event builders fill columns, compilation concatenates
  them, and only the scalar oracles read the per-access view.
"""

import sys

import pytest

from repro import Session
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.platform import SPR
from repro.simulator import engine
from repro.simulator.reuse import CompiledTrace
from repro.simulator.trace import Access


def _gemm():
    return ParlooperGemm(256, 256, 256, 64, 64, 64, k_step=2,
                         spec_string="aBC", num_threads=8)


@pytest.fixture
def replays(monkeypatch):
    """A list that records the traces of every ``simulate_traces`` call."""
    calls = []
    original = engine.simulate_traces

    def counting(traces, machine, dispatch_overhead=True):
        result = original(traces, machine, dispatch_overhead)
        calls.append(traces)       # only replays that returned
        return result

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name == "repro" or name.startswith("repro."):
            for alias, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, alias, counting)
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
