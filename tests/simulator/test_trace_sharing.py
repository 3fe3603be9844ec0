"""Differential test: sharing a trace cache never changes a result.

A :class:`~repro.simulator.memo.TraceCache` hands one compiled trace to
every thread key whose events it holds, and one reuse memo to every
pattern-identical trace.  Across random fuzz kernels, predicting and
simulating through one long-lived session must give exactly what a fresh
session per kernel gives.
"""

import random

import pytest

from repro import Session
from repro.core.errors import SpecError
from repro.platform import ADL, SPR
from repro.simulator.trace import _serialize_spec
from repro.verify import default_families
from repro.verify.fuzz import _valid_case, default_case_count


def _fuzz_kernel(family, spec, blocks, num_threads):
    try:
        return family.make(spec, blocks, num_threads, "interp")
    except SpecError:
        return family.make(_serialize_spec(spec), blocks, None, "interp")


@pytest.mark.fuzz
@pytest.mark.parametrize("family", default_families(), ids=lambda f: f.name)
def test_shared_session_matches_fresh_sessions(family):
    rng = random.Random(f"trace-sharing:{family.name}")
    shared = Session()
    for _ in range(default_case_count()):
        spec, blocks, num_threads = _valid_case(rng, family)
        kern = _fuzz_kernel(family, spec, blocks, num_threads)
        fresh = Session()
        for machine in (SPR, ADL):
            assert kern.predict(machine, session=shared) == \
                kern.predict(machine, session=fresh), (spec, machine.name)
            assert kern.simulate(machine, session=shared) == \
                kern.simulate(machine, session=fresh), (spec, machine.name)
