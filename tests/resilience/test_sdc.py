"""Seeded silent-data-corruption injection: every flip must be a pure,
replayable function of the plan's seed and the call/tile counters."""

import math

import numpy as np
import pytest

from repro.core.inject import active_injector, clear_injector
from repro.resilience import SdcPlan, sdc_injection
from repro.resilience.sdc import EXPONENT_MSB, flip_bit


class TestFlipBit:
    def test_flip_and_restore(self):
        a = np.full((4, 4), 3.25, dtype=np.float32)
        old, new = flip_bit(a, 5, 10)
        assert old == np.float32(3.25) and a.flat[5] == new
        flip_bit(a, 5, 10)                       # involution
        assert a.flat[5] == np.float32(3.25)

    def test_works_on_strided_views(self):
        base = np.zeros((8, 8), dtype=np.float32)
        base[:] = 1.0
        view = base[::2, 1::2]                   # non-contiguous
        flip_bit(view, 3, EXPONENT_MSB)
        assert (base != 1.0).sum() == 1

    def test_exponent_msb_moves_any_finite_value_far(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([
            rng.standard_normal(100).astype(np.float32) * 100,
            rng.standard_normal(100).astype(np.float32) * 0.01,
            np.array([1e-30, 1e30, -2.0, 0.5], dtype=np.float32)])
        for v in vals:
            a = np.array([v], dtype=np.float32)
            old, new = flip_bit(a, 0, EXPONENT_MSB)
            delta = abs(float(new) - float(old))
            assert not math.isfinite(delta) or delta >= 2.0


class TestSdcPlan:
    def test_tile_draws_are_deterministic(self):
        a = SdcPlan(seed=3, p_tile=0.4)
        b = SdcPlan(seed=3, p_tile=0.4)
        draws = [(c, i, j) for c in range(4)
                 for i in range(4) for j in range(4)]
        assert [a.tile_corrupts(c, (i, j)) for c, i, j in draws] \
            == [b.tile_corrupts(c, (i, j)) for c, i, j in draws]

    def test_seed_changes_draws(self):
        a = SdcPlan(seed=3, p_tile=0.4)
        b = SdcPlan(seed=4, p_tile=0.4)
        draws = [(c, (i, j)) for c in range(8)
                 for i in range(4) for j in range(4)]
        assert [a.tile_corrupts(c, ind) for c, ind in draws] \
            != [b.tile_corrupts(c, ind) for c, ind in draws]

    def test_call_window_gates_injection(self):
        plan = SdcPlan(seed=1, p_tile=1.0, call_start=2, call_end=4)
        assert [plan.injects(c) for c in range(6)] \
            == [False, False, True, True, False, False]

    def test_step_corrupts_keyed_on_step_index(self):
        plan = SdcPlan(seed=7, p_step=0.3)
        assert [plan.step_corrupts(i) for i in range(100)] \
            == [plan.step_corrupts(i, now_s=5.0) for i in range(100)]
        rate = sum(plan.step_corrupts(i) for i in range(2000)) / 2000
        assert 0.22 < rate < 0.38

    def test_step_windows_raise_probability(self):
        from repro.resilience import FaultWindow
        plan = SdcPlan(seed=7, step_windows=(FaultWindow(2.0, 5.0, 1.0),))
        assert all(plan.step_corrupts(i, now_s=3.0) for i in range(20))
        assert not any(plan.step_corrupts(i, now_s=6.0) for i in range(20))
        assert plan.next_boundary(0.0) == 2.0
        assert plan.next_boundary(3.0) == 5.0
        assert plan.next_boundary(5.0) is None

    def test_correctable_is_seeded(self):
        plan = SdcPlan(seed=9, p_correctable=0.5)
        draws = [plan.correctable(i) for i in range(500)]
        assert draws == [plan.correctable(i) for i in range(500)]
        assert 0 < sum(draws) < 500
        assert all(SdcPlan(seed=9, p_correctable=1.0).correctable(i)
                   for i in range(20))

    def test_single_flip_skip_is_seeded(self):
        a = SdcPlan.single_flip(seed=11)
        assert a == SdcPlan.single_flip(seed=11)
        assert a.p_tile == 1.0 and a.max_flips == 1
        skips = {SdcPlan.single_flip(seed=s).skip for s in range(40)}
        assert len(skips) > 1                    # the flip moves around


class TestInjectorContext:
    def test_context_installs_and_clears(self):
        assert active_injector() is None
        with sdc_injection(SdcPlan(seed=1)) as inj:
            assert active_injector() is inj
        assert active_injector() is None

    def test_clear_is_idempotent(self):
        clear_injector()
        assert active_injector() is None

    def test_max_flips_caps_across_calls(self):
        plan = SdcPlan(seed=2, p_tile=1.0, max_flips=2)
        with sdc_injection(plan) as inj:
            tile = np.ones((4,), dtype=np.float32)
            inj.begin_call()
            flips = sum(inj.maybe_flip(tile, (i,)) for i in range(10))
            inj.begin_call()
            flips += sum(inj.maybe_flip(tile, (i,)) for i in range(10))
        assert flips == 2 and len(inj.flips) == 2

    def test_flip_records_replay(self):
        plan = SdcPlan(seed=3, p_tile=0.5)
        def run():
            with sdc_injection(plan) as inj:
                tile = np.ones((8,), dtype=np.float32)
                inj.begin_call()
                for i in range(16):
                    inj.maybe_flip(tile, (i,))
            return inj.flips
        assert run() == run()
        assert len(run()) > 0


class TestServeIntegration:
    """The serve loop under a step-corruption plan: defended runs
    detect everything; undefended runs taint what they touch."""

    @pytest.fixture(scope="class")
    def cost(self):
        from repro.platform.presets import SPR
        from repro.serve.cost import ServeCostModel
        from repro.workloads.llm import GPTJ_6B
        return ServeCostModel.for_stack(GPTJ_6B, SPR)

    def _run(self, cost, sdc, hardened):
        from repro.platform.presets import SPR
        from repro.resilience.policies import ResilienceConfig
        from repro.serve.request import TrafficGenerator
        from repro.serve.server import ServeSimulator
        from repro.workloads.llm import GPTJ_6B
        reqs = TrafficGenerator(rate_rps=8.0, seed=2).generate(24)
        sim = ServeSimulator(
            GPTJ_6B, SPR, cost=cost, sdc=sdc,
            resilience=ResilienceConfig() if hardened else None)
        return sim.run(reqs)

    def test_defended_detects_and_recovers(self, cost):
        plan = SdcPlan(seed=5, p_step=0.2)
        rep = self._run(cost, plan, hardened=True)
        s = rep.summary
        assert s.n_sdc_detected > 0 and s.n_sdc_silent == 0
        assert s.n_sdc_detected == s.n_sdc_corrected + s.n_sdc_recomputed
        assert not any(r.tainted for r in rep.requests)
        assert s.n_terminal == s.n_submitted

    def test_undefended_taints_silently(self, cost):
        plan = SdcPlan(seed=5, p_step=0.2)
        rep = self._run(cost, plan, hardened=False)
        s = rep.summary
        assert s.n_sdc_silent > 0 and s.n_sdc_detected == 0
        assert any(r.tainted for r in rep.requests)

    def test_runs_are_bit_identical(self, cost):
        plan = SdcPlan(seed=5, p_step=0.2)
        a = self._run(cost, plan, hardened=True)
        b = self._run(cost, plan, hardened=True)
        assert a.summary == b.summary

    def test_recompute_costs_wall_time(self, cost):
        """Uncorrectable SDC rolls the step back: same recovery price
        as a transient step failure, visible as extra steps."""
        clean = self._run(cost, None, hardened=True)
        hit = self._run(cost, SdcPlan(seed=5, p_step=0.3,
                                      p_correctable=0.0), hardened=True)
        assert hit.n_steps > clean.n_steps
        assert hit.summary.n_sdc_recomputed == hit.summary.n_sdc_detected
