"""Differential tests: the engine's array lock-step replay vs its oracle.

:func:`repro.simulator.engine.simulate_traces` replays compiled traces on
arrays; :func:`~repro.simulator.engine.simulate_traces_lru`, the scalar
loop over per-core ``OrderedDict`` LRUs, is its oracle.  Every
:class:`~repro.simulator.engine.SimResult` field must be ``==`` — seconds,
per-thread seconds and byte totals bit for bit — on randomized traces
(keys shared and written across threads, so remote hits occur; hybrid
clusters; capacities small enough to clamp; empty traces and events), on
every fuzz family, and on the fixed cases below.
"""

import random
from dataclasses import replace

import pytest

from repro.core import LoopSpecs, ThreadedLoop
from repro.core.errors import SpecError
from repro.kernels.mlp import ParlooperMlp
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.simulator import (Access, BodyEvent, ThreadTrace, bandwidth_event,
                             compile_trace, predict, predict_traces,
                             simulate, simulate_flat, trace_flat,
                             trace_threaded_loop)
from repro.simulator.engine import simulate_traces, simulate_traces_lru
from repro.simulator.trace import _serialize_spec
from repro.verify import default_families
from repro.verify.fuzz import _valid_case, default_case_count


def _array(traces, machine, dispatch_overhead=True):
    return simulate_traces([compile_trace(t) for t in traces], machine,
                           dispatch_overhead)


def _shrunk(machine, sizes):
    """*machine* with cache capacities *sizes*, innermost first."""
    return replace(machine, caches=tuple(
        replace(lv, size_bytes=s) for lv, s in zip(machine.caches, sizes)))


def _random_machine(rng):
    """A preset with shrunken caches and, at times, a single-core
    streaming limit above a starved chip-wide DRAM or LLC bandwidth, so
    an aggregate floor sets the makespan."""
    machine = rng.choice([SPR, ADL, GVT3, ZEN4])
    sizes = sorted(rng.choice([64, 256, 1024, 4096, 16384, 65536])
                   for _ in machine.caches)
    roll = rng.random()
    if roll < 0.2:
        machine = replace(machine, dram_bw_gbytes=rng.choice([1.0, 3.0]))
    elif roll < 0.4:
        machine = replace(
            machine, caches=machine.caches[:-1] + (
                replace(machine.llc, bw_bytes_per_cycle=0.01),),
            core_llc_bw_bytes_per_cycle=1e4, dram_bw_gbytes=1e4,
            core_dram_gbytes=1e4)
    return _shrunk(machine, sizes)


def _random_traces(rng):
    """1-6 threads over a small key pool: keys recur within and across
    threads, some accesses write, footprints (fixed per key) may exceed
    every capacity, and events may be empty or carry no flops."""
    n_keys = rng.randint(1, 24)
    footprint = {k: rng.choice([16, 64, 256, 1024, 4096, 100000])
                 for k in range(n_keys)}

    def access(k):
        return Access(("T", k), rng.choice([8, 64, 100, 4096]),
                      write=rng.random() < 0.3, footprint=footprint[k],
                      cost_scale=rng.choice([1.0, 1.0, 1.25, 2.1]))

    traces = []
    for tid in range(rng.randint(1, 6)):
        events = []
        for _ in range(rng.choice([0, 1, 3, 8, 20])):
            if rng.random() < 0.15:             # a builder-made event
                k = rng.randrange(n_keys)
                events.append(bandwidth_event(("T", k), footprint[k],
                                              write=rng.random() < 0.5))
                continue
            accs = tuple(access(rng.randrange(n_keys))
                         for _ in range(rng.choice([0, 1, 2, 4, 7])))
            events.append(BodyEvent(
                accs, flops=rng.choice([0.0, 1e3, 3e5]),
                flops_per_cycle=rng.choice([1.0, 16.0, 64.0]),
                extra_cycles=rng.choice([0.0, 50.0])))
        traces.append(ThreadTrace(tid, events))
    return traces


def test_randomized_traces_match_oracle():
    rng = random.Random(20261017)
    remote = 0
    for case in range(320):
        traces = _random_traces(rng)
        machine = _random_machine(rng)
        overhead = rng.random() < 0.8
        want = simulate_traces_lru(traces, machine, overhead)
        assert _array(traces, machine, overhead) == want, case
        remote += want.remote_hits
    assert remote > 0


def _oracle(loop, body, machine):
    """The uncached scalar engine: per-thread capture and the lock-step
    LRU loop, or a flat trace and the greedy replay."""
    if loop.plan.parsed.schedule == "dynamic":
        return simulate_flat(trace_flat(loop, body), machine,
                             loop.num_threads)
    return simulate_traces_lru(trace_threaded_loop(loop, body), machine)


def _fuzz_kernel(family, spec, blocks, num_threads):
    try:
        return family.make(spec, blocks, num_threads, "interp")
    except SpecError:
        return family.make(_serialize_spec(spec), blocks, None, "interp")


FUZZ_MACHINES = (SPR, ADL, _shrunk(SPR, (2048, 8192, 32768)),
                 _shrunk(ADL, (1024, 4096, 16384)))


@pytest.mark.fuzz
@pytest.mark.parametrize("family", default_families(), ids=lambda f: f.name)
def test_fuzz_cases(family):
    """Builder-made traces of static specs replay on arrays, never
    rejected, and equal the oracle; ``simulate`` returns the same, and
    ``predict`` equals the model's scalar oracle in every field."""
    rng = random.Random(f"engine-equivalence:{family.name}")
    for _ in range(default_case_count()):
        spec, blocks, num_threads = _valid_case(rng, family)
        kern = _fuzz_kernel(family, spec, blocks, num_threads)
        loop = kern.loop
        for machine in FUZZ_MACHINES:
            body = kern.sim_body(machine)
            want = _oracle(loop, body, machine)
            if loop.plan.parsed.schedule != "dynamic":
                assert _array(trace_threaded_loop(loop, body), machine) \
                    == want, (spec, machine.name)
            assert simulate(loop, body, machine) == want, \
                (spec, machine.name)
            assert predict(loop, body, machine) == predict_traces(
                trace_threaded_loop(loop, body), machine,
                loop.num_threads), (spec, machine.name)


class TestFixedCases:
    def test_mlp_cascade_hands_activations_across_cores(self):
        mlp = ParlooperMlp([256, 256, 256], 128, num_threads=8)
        merged = [ThreadTrace(tid) for tid in range(8)]
        for l, layer in enumerate(mlp.layers):
            body = mlp._layer_sim_body(l, SPR)
            for t, tr in zip(merged, trace_threaded_loop(layer.gemm.loop,
                                                         body)):
                t.events.extend(tr.events)
        want = simulate_traces_lru(merged, SPR)
        assert want.remote_hits > 0
        assert mlp.simulate(SPR) == want

    def test_no_threads(self):
        assert _array([], SPR) == simulate_traces_lru([], SPR)

    def test_zero_footprint_raises(self):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1)], "A", num_threads=2)

        def body(ind):
            return BodyEvent((Access(("m", ind[0]), 0),
                              Access(("x", 0), 64, write=True)), flops=1.0)

        for replay in (simulate, predict):
            with pytest.raises(ValueError,
                               match=r"positive footprints.*\('m', 0\)"):
                replay(loop, body, SPR)

    def test_footprint_differing_across_threads_raises(self):
        loop = ThreadedLoop([LoopSpecs(0, 4, 1)], "A", num_threads=2)

        def body(ind):
            # thread 0 runs ind 0-1 and thread 1 ind 2-3: each thread
            # alone keeps one footprint per key
            fp = 64 if ind[0] < 2 else 128
            return BodyEvent((Access(("x",), 64, footprint=fp),), flops=1.0)

        with pytest.raises(ValueError,
                           match=r"\('x',\) changed between threads"):
            simulate(loop, body, SPR)
        # the model ignores sharing, so each thread alone is consistent
        assert predict(loop, body, SPR) == predict_traces(
            trace_threaded_loop(loop, body), SPR, loop.num_threads)


class TestCacheHierarchies:
    """Memory is always the slot past the last cache level."""

    ALL_PRIVATE = replace(ZEN4, caches=tuple(replace(lv, shared=False)
                                             for lv in ZEN4.caches))
    L1_ONLY = replace(SPR, caches=SPR.caches[:1])

    @pytest.mark.parametrize("machine", [ALL_PRIVATE, L1_ONLY],
                             ids=["all-private", "l1-only"])
    def test_machines_without_a_shared_level_simulate(self, machine):
        loop = ThreadedLoop([LoopSpecs(0, 8, 1), LoopSpecs(0, 8, 1)], "Ab",
                            num_threads=4)

        def body(ind):
            return BodyEvent((Access(("A", ind[0]), 64 << 10),
                              Access(("B", ind[1]), 64 << 10),
                              Access(("C", *ind), 1024, write=True)),
                             flops=1e4)

        res = simulate(loop, body, machine)
        want = _oracle(loop, body, machine)
        assert res == want
        assert len(res.level_bytes) == len(machine.caches) + 1
        assert res.level_bytes[-1] > 0
