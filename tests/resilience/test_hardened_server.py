"""End-to-end tests for the hardened serving simulator: typed deadlock
recovery, deadlines, retries, cancellation, degradation, and fault
replay — all on the tiny decoder config so every scenario runs in
milliseconds."""

from dataclasses import replace

import pytest

from repro.core.errors import DeadlockError, ServeError
from repro.platform import SPR
from repro.resilience import (DegradePolicy, FaultPlan, FaultWindow,
                              ResilienceConfig, RetryPolicy,
                              stamp_deadlines)
from repro.serve import (Request, Scheduler, ServeCostModel, ServeSimulator,
                         SloPolicy, TrafficGenerator)
from repro.serve.request import RequestState
from repro.tpp.dtypes import DType
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=1024)

#: recovery-only config: no deadline stamping, no degradation — each
#: test enables exactly the mechanism it exercises
BARE = ResilienceConfig(deadline_s=None, retry=None, degrade=None)


def tiny_machine(n_blocks, block_tokens=16):
    bytes_needed = TINY.weight_bytes(DType.BF16) \
        + n_blocks * block_tokens * TINY.kv_bytes_per_token(DType.BF16)
    return replace(SPR, dram_capacity_gbytes=bytes_needed / (1 << 30))


@pytest.fixture(scope="module")
def cost():
    return ServeCostModel.for_stack(TINY, SPR)


def sim(cost, n_blocks=256, **kw):
    return ServeSimulator(TINY, tiny_machine(n_blocks), cost=cost,
                          mem_fraction=1.0, **kw)


def burst(n, prompt=64, new=16, gap_s=0.0):
    return [Request(rid=i, arrival_s=gap_s * i, prompt_tokens=prompt,
                    max_new_tokens=new) for i in range(n)]


def traffic(n=30, seed=11):
    return TrafficGenerator(rate_rps=200.0, seed=seed, min_prompt=16,
                            max_prompt=64, mean_prompt=32,
                            mean_new_tokens=8,
                            max_new_tokens=16).generate(n)


#: a request that fits the pool outright but deadlocks once half the
#: blocks are lost: prefill succeeds at 64 tokens, the 65th cannot grow,
#: and there is no victim to preempt and no future event to wait for
PERMANENT_LOSS = FaultPlan(
    seed=0, capacity_windows=(FaultWindow(0.0, float("inf"), 0.5),))


def deadlock_requests():
    return [Request(rid=0, arrival_s=0.0, prompt_tokens=64,
                    max_new_tokens=64)]


class TestTypedDeadlock:
    def test_unhardened_raises_typed_error_with_snapshot(self, cost):
        simulator = sim(cost, n_blocks=8, faults=PERMANENT_LOSS)
        with pytest.raises(DeadlockError) as exc_info:
            simulator.run(deadlock_requests())
        snap = exc_info.value.snapshot
        assert snap["n_running"] == 1
        assert snap["pool"]["lost_blocks"] == 4
        assert snap["steps"] > 0
        assert isinstance(exc_info.value, ServeError)

    def test_watchdog_sheds_and_continues(self, cost):
        simulator = sim(cost, n_blocks=8, faults=PERMANENT_LOSS,
                        resilience=BARE)
        rep = simulator.run(deadlock_requests())
        s = rep.summary
        assert s.n_shed == 1
        assert s.n_terminal == s.n_submitted == 1
        assert simulator.pool.stats().used_blocks == 0

    def test_transient_loss_waits_for_the_window_to_close(self, cost):
        # same dip, but finite: the simulator advances to the window end
        # and completes without shedding anything
        plan = FaultPlan(seed=0, capacity_windows=(
            FaultWindow(0.0, 5.0, 0.5),))
        rep = sim(cost, n_blocks=8, faults=plan).run(deadlock_requests())
        assert rep.summary.n_finished == 1
        assert rep.summary.makespan_s > 5.0

    def test_loss_striking_a_full_pool_spares_held_blocks(self, cost):
        # both prompts fill the pool in the first step; half of it is
        # lost from the second step on, yet the remaining tokens fit in
        # the blocks each request already holds
        plan = FaultPlan(seed=0, capacity_windows=(
            FaultWindow(1e-9, float("inf"), 0.5),))
        simulator = sim(cost, n_blocks=8, faults=plan)
        rep = simulator.run(burst(2, prompt=60, new=4))
        assert rep.summary.n_finished == 2
        assert simulator.pool.lost_blocks == 4


class TestDeadlines:
    def test_hopeless_deadlines_time_out_and_release_kv(self, cost):
        simulator = sim(cost, resilience=ResilienceConfig(
            deadline_s=1e-6, retry=None, degrade=None))
        rep = simulator.run(traffic())
        s = rep.summary
        # single-token requests finish inside their first step (a step in
        # flight cannot be cancelled); everything else times out
        assert s.n_timed_out > 0
        assert s.n_finished + s.n_timed_out == s.n_submitted
        assert s.goodput_tokens == 0
        assert simulator.pool.stats().used_blocks == 0

    def test_generous_deadlines_change_nothing(self, cost):
        base = sim(cost).run(traffic()).summary
        hard = sim(cost, resilience=ResilienceConfig(
            deadline_s=1e6, retry=None, degrade=None)).run(
                traffic()).summary
        assert hard.n_finished == base.n_finished
        assert hard.generated_tokens == base.generated_tokens
        assert hard.n_timed_out == 0

    def test_late_finishers_earn_no_goodput(self, cost):
        reqs = traffic()
        stamp_deadlines(reqs, 1e-6)
        s = sim(cost).run(reqs).summary    # unhardened: serves them late
        assert s.n_finished == s.n_submitted
        assert s.generated_tokens > 0
        assert s.goodput_tokens == 0


class TestCancellation:
    #: every client hangs up mid-run; a straggler keeps service slower
    #: than client patience so cancellations actually land in flight
    PLAN = FaultPlan(seed=2, p_cancel=1.0, cancel_patience_s=0.01,
                     straggler_windows=(FaultWindow(0.0, 1e9, 50.0),))

    def test_hardened_cancels_and_frees(self, cost):
        simulator = sim(cost, faults=self.PLAN, resilience=BARE)
        rep = simulator.run(burst(24))
        s = rep.summary
        assert s.n_cancelled > 0
        assert s.n_terminal == s.n_submitted
        assert simulator.pool.stats().used_blocks == 0
        cancelled = [r for r in rep.requests
                     if r.state is RequestState.CANCELLED]
        assert len(cancelled) == s.n_cancelled

    def test_unhardened_wastes_tokens_on_ghosts(self, cost):
        hard = sim(cost, faults=self.PLAN, resilience=BARE) \
            .run(burst(24)).summary
        soft = sim(cost, faults=self.PLAN).run(burst(24)).summary
        # the unhardened server happily generates for clients long gone
        assert soft.n_finished == soft.n_submitted
        assert soft.generated_tokens > hard.generated_tokens
        # ... but none of that work is goodput
        assert soft.goodput_tokens <= hard.goodput_tokens


class TestRetry:
    POLICY = SloPolicy(admission_backlog_tokens=256)

    def test_rejected_requests_are_rescued_by_backoff(self, cost):
        reqs = burst(16, prompt=64)        # 1024 backlog tokens at once
        soft = sim(cost, scheduler=Scheduler(self.POLICY)) \
            .run([Request(**{k: getattr(r, k) for k in
                             ("rid", "arrival_s", "prompt_tokens",
                              "max_new_tokens")}) for r in reqs]).summary
        hard = sim(cost, scheduler=Scheduler(self.POLICY),
                   resilience=ResilienceConfig(
                       deadline_s=None, degrade=None,
                       retry=RetryPolicy(max_attempts=6,
                                         base_backoff_s=0.05))) \
            .run(reqs).summary
        assert soft.n_rejected > 0
        assert hard.n_retries > 0
        assert hard.n_finished > soft.n_finished
        assert hard.n_rejected < soft.n_rejected
        assert hard.n_terminal == hard.n_submitted

    def test_attempts_are_bounded(self, cost):
        # a backlog that never drains: one giant resident request plus
        # latecomers that always see a full backlog
        reqs = burst(8, prompt=64)
        hard = sim(cost, n_blocks=4,
                   resilience=ResilienceConfig(
                       deadline_s=None, degrade=None,
                       retry=RetryPolicy(max_attempts=3,
                                         base_backoff_s=0.01))).run(reqs)
        for r in hard.requests:
            assert r.attempts < 3


class TestDegradation:
    #: slow service so the queue actually builds while arrivals stream in
    SLOW = FaultPlan(seed=0, straggler_windows=(
        FaultWindow(0.0, 1e9, 20.0),))

    def test_overload_clamps_new_admissions(self, cost):
        degrade = DegradePolicy(queue_hi=4, enter_after_steps=1,
                                max_new_tokens_clamp=4, token_budget=None,
                                shed_queue_cap=None,
                                kv_target_occupancy=None)
        reqs = burst(32, prompt=64, new=16, gap_s=0.001)
        rep = sim(cost, n_blocks=32, faults=self.SLOW,
                  resilience=ResilienceConfig(
                      deadline_s=None, retry=None, degrade=degrade)).run(reqs)
        s = rep.summary
        assert s.n_degraded > 0
        degraded = [r for r in rep.requests if r.degraded]
        assert degraded and all(r.max_new_tokens <= 4 for r in degraded)
        assert all(r.generated <= 4 for r in degraded)
        assert s.n_finished == s.n_submitted      # availability preserved

    def test_queue_cap_sheds_lowest_class_first(self, cost):
        degrade = DegradePolicy(queue_hi=2, enter_after_steps=1,
                                shed_queue_cap=6,
                                max_new_tokens_clamp=None,
                                token_budget=None,
                                kv_target_occupancy=None)
        reqs = burst(24, prompt=64, gap_s=0.001)
        for r in reqs:
            r.priority = r.rid % 2         # interleave two SLO classes
        rep = sim(cost, n_blocks=32, faults=self.SLOW,
                  resilience=ResilienceConfig(
                      deadline_s=None, retry=None, degrade=degrade)).run(reqs)
        s = rep.summary
        assert s.n_shed > 0
        shed = [r for r in rep.requests if r.state is RequestState.SHED]
        assert all(r.priority == 1 for r in shed)
        assert s.n_terminal == s.n_submitted

    def test_degradation_recovers_when_load_drops(self, cost):
        degrade = DegradePolicy(queue_hi=4, enter_after_steps=1,
                                exit_after_steps=1,
                                max_new_tokens_clamp=4, token_budget=None,
                                shed_queue_cap=None,
                                kv_target_occupancy=None)
        # an overloaded burst, then a lull, then a lone late request;
        # the straggler fault ends with the burst
        slow = FaultPlan(seed=0, straggler_windows=(
            FaultWindow(0.0, 2.0, 20.0),))
        reqs = burst(32, prompt=64, gap_s=0.001) \
            + [Request(rid=99, arrival_s=100.0, prompt_tokens=64,
                       max_new_tokens=16)]
        rep = sim(cost, n_blocks=32, faults=slow,
                  resilience=ResilienceConfig(
                      deadline_s=None, retry=None, degrade=degrade)).run(reqs)
        s = rep.summary
        assert s.n_degraded > 0            # mode did engage under load
        late = next(r for r in rep.requests if r.rid == 99)
        assert not late.degraded           # mode exited before it arrived
        assert late.generated == 16


class TestFaultReplay:
    def test_stragglers_stretch_the_run(self, cost):
        # a closed burst makes the makespan service-dominated, so the
        # slowdown shows up end to end instead of vanishing into idle gaps
        plan = FaultPlan(seed=1, straggler_windows=(
            FaultWindow(0.0, 1e9, 8.0),))
        slow = sim(cost, faults=plan).run(burst(24)).summary
        fast = sim(cost).run(burst(24)).summary
        assert slow.makespan_s > 4.0 * fast.makespan_s
        assert slow.generated_tokens == fast.generated_tokens

    def test_step_failures_cost_time_not_tokens(self, cost):
        plan = FaultPlan(seed=3, p_step_fail=0.3)
        faulty = sim(cost, faults=plan).run(burst(24)).summary
        clean = sim(cost).run(burst(24)).summary
        assert faulty.n_step_failures > 0
        assert faulty.generated_tokens == clean.generated_tokens
        assert faulty.makespan_s > clean.makespan_s
        assert faulty.n_terminal == faulty.n_submitted

    def test_full_fault_stack_is_bit_replayable(self, cost):
        def one_run():
            plan = FaultPlan.sample(seed=7, horizon_s=0.5)
            reqs = traffic()
            stamp_deadlines(reqs, 2.0)
            return sim(cost, faults=plan,
                       resilience=ResilienceConfig(deadline_s=None)) \
                .run(reqs).summary
        assert one_run() == one_run()
