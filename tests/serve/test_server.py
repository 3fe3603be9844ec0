"""End-to-end tests for the discrete-event serving simulator.

Runs a tiny decoder config on a shrunken SPR so every scenario —
saturation, preemption, admission control — executes in milliseconds.
"""

from dataclasses import replace

import pytest

from repro.obs import ObsConfig, current, use
from repro.platform import SPR
from repro.serve import (ContinuousBatcher, Request, Scheduler,
                         ServeCostModel, ServeSimulator, SloPolicy,
                         StaticBatcher, TrafficGenerator)
from repro.serve.request import RequestState
from repro.tpp.dtypes import DType
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=1024)


def tiny_machine(n_blocks, block_tokens=16):
    """SPR shrunk so the KV pool holds exactly *n_blocks* blocks."""
    bytes_needed = TINY.weight_bytes(DType.BF16) \
        + n_blocks * block_tokens * TINY.kv_bytes_per_token(DType.BF16)
    return replace(SPR, dram_capacity_gbytes=bytes_needed / (1 << 30))


@pytest.fixture(scope="module")
def cost():
    # pricing depends on bandwidth/compute, not DRAM capacity, so one
    # model serves every shrunken machine below
    return ServeCostModel.for_stack(TINY, SPR)


def sim(cost, n_blocks=256, **kw):
    machine = tiny_machine(n_blocks)
    return ServeSimulator(TINY, machine, cost=cost, mem_fraction=1.0, **kw)


def burst(n, prompt=64, new=16):
    return [Request(rid=i, arrival_s=0.0, prompt_tokens=prompt,
                    max_new_tokens=new) for i in range(n)]


def traffic(n=30):
    return TrafficGenerator(rate_rps=200.0, seed=11, min_prompt=16,
                            max_prompt=64, mean_prompt=32,
                            mean_new_tokens=8,
                            max_new_tokens=16).generate(n)


class TestDeterminism:
    def test_identical_summaries_across_runs(self, cost):
        a = sim(cost).run(traffic()).summary
        b = sim(cost).run(traffic()).summary
        assert a == b                     # bit-identical frozen dataclasses

    def test_report_metadata(self, cost):
        rep = sim(cost).run(traffic(5))
        assert rep.config_name == "tiny"
        assert rep.batcher_name == "continuous"
        assert rep.stack_name == "parlooper"
        assert rep.n_steps > 0


class TestCompletion:
    def test_all_requests_finish_and_emit_every_token(self, cost):
        reqs = traffic()
        rep = sim(cost).run(reqs)
        s = rep.summary
        assert s.n_finished == len(reqs)
        assert s.n_rejected == 0
        assert s.generated_tokens == sum(r.max_new_tokens for r in reqs)
        assert s.tokens_per_s > 0

    def test_token_causality(self, cost):
        simulator = sim(cost)
        rep = simulator.run(traffic())
        for r in rep.requests:
            assert r.state is RequestState.FINISHED
            assert len(r.token_times) == r.generated
            assert r.token_times == sorted(r.token_times)
            assert r.first_token_s == r.token_times[0]
            assert r.arrival_s < r.first_token_s
            assert r.finish_s == r.token_times[-1]
        # the pool is drained once everyone is done
        assert simulator.pool.free_blocks == simulator.pool.total_blocks

    def test_static_batcher_completes_too(self, cost):
        reqs = traffic()
        s = sim(cost, batcher=StaticBatcher()).run(reqs).summary
        assert s.n_finished == len(reqs)


class TestBatchingPolicies:
    def test_continuous_at_least_matches_static_throughput(self, cost):
        cont = sim(cost, batcher=ContinuousBatcher()).run(burst(24)).summary
        stat = sim(cost, batcher=StaticBatcher()).run(burst(24)).summary
        assert cont.n_finished == stat.n_finished == 24
        assert cont.tokens_per_s >= stat.tokens_per_s
        assert cont.mean_batch > stat.mean_batch

    def test_static_never_exceeds_batch_limit(self, cost):
        rep = sim(cost, batcher=StaticBatcher(max_batch=4)).run(burst(12))
        assert max(s[2] for s in rep.metrics.samples) <= 4


class TestPreemption:
    def test_contention_preempts_and_recovers(self, cost):
        # two 80-token requests, pool of 8 blocks = 128 tokens: both
        # prefill, then the first decode forces the other out
        s = sim(cost, n_blocks=8).run(burst(2)).summary
        assert s.n_preemptions >= 1
        assert s.n_finished == 2
        assert s.generated_tokens == 32

    def test_preempted_request_keeps_its_first_token_time(self, cost):
        rep = sim(cost, n_blocks=8).run(burst(2))
        victim = max(rep.requests, key=lambda r: r.preemptions)
        assert victim.preemptions >= 1
        assert len(victim.token_times) == victim.generated
        assert victim.token_times == sorted(victim.token_times)


class TestAdmissionControl:
    def test_backlog_cap_rejects_overflow(self, cost):
        reqs = burst(16, prompt=64)      # 1024 prompt tokens at once
        policy = SloPolicy(admission_backlog_tokens=256)
        s = sim(cost, scheduler=Scheduler(policy)).run(reqs).summary
        assert s.n_rejected > 0
        assert s.n_finished + s.n_rejected == len(reqs)
        rejected = [r for r in reqs if r.state is RequestState.REJECTED]
        assert len(rejected) == s.n_rejected
        assert all(not r.token_times for r in rejected)

    def test_oversized_request_rejected_outright(self, cost):
        reqs = burst(1, prompt=64) \
            + [Request(rid=99, arrival_s=0.0, prompt_tokens=4096,
                       max_new_tokens=64)]
        s = sim(cost, n_blocks=16).run(reqs).summary
        assert s.n_rejected == 1
        assert s.n_finished == 1


class TestWithdraw:
    """The targeted evacuation the fleet guard uses to cancel a hedge
    loser or move work off a suspected replica."""

    def test_withdraw_queued_request(self, cost):
        s = sim(cost)
        s.begin()
        req = Request(rid=0, arrival_s=0.0, prompt_tokens=64,
                      max_new_tokens=16)
        s.push(req)
        moved = s.withdraw(0)
        assert moved is req
        assert moved.state is RequestState.QUEUED   # never started
        assert moved.failovers == 1
        assert s.pool.holders() == []
        rep = s.finish()
        # the withdrawn request is the replica's failover, not terminal
        assert rep.summary.n_failed_over == 1
        assert rep.summary.n_terminal == 0

    def test_withdraw_running_request_releases_kv(self, cost):
        s = sim(cost)
        s.begin()
        req = Request(rid=5, arrival_s=0.0, prompt_tokens=64,
                      max_new_tokens=64)
        s.push(req)
        for _ in range(3):                          # prefill + decode
            if not s.advance():
                break
        assert req.cached > 0                       # it holds KV now
        moved = s.withdraw(5)
        assert moved is req
        assert moved.state is RequestState.PREEMPTED
        assert moved.cached == 0                    # must re-prefill
        assert s.pool.holders() == []
        s.finish()

    def test_withdraw_unknown_or_terminal_is_none(self, cost):
        s = sim(cost)
        s.begin()
        req = Request(rid=1, arrival_s=0.0, prompt_tokens=32,
                      max_new_tokens=4)
        s.push(req)
        while s.advance():
            pass
        assert req.state is RequestState.FINISHED
        assert s.withdraw(1) is None                # terminal: untouchable
        assert s.withdraw(99) is None               # never seen
        rep = s.finish()
        assert rep.summary.n_finished == 1
        assert rep.summary.n_failed_over == 0

    def test_withdrawn_request_reruns_elsewhere(self, cost):
        a, b = sim(cost), sim(cost)
        a.begin(), b.begin()
        req = Request(rid=7, arrival_s=0.0, prompt_tokens=48,
                      max_new_tokens=8)
        a.push(req)
        a.advance()
        moved = a.withdraw(7)
        b.push(moved)
        while b.advance():
            pass
        assert moved.state is RequestState.FINISHED
        assert moved.generated == 8
        ra, rb = a.finish(), b.finish()
        assert ra.summary.n_failed_over == 1
        assert rb.summary.n_finished == 1


class TestAdvanceContext:
    """Driven step by step, as the fleet drives it, each ``advance()``
    reports into the run's context and hands the caller's back."""

    def test_step_reports_into_the_run_context(self, cost):
        run_ctx = ObsConfig(clock="tick").make_context()
        caller = ObsConfig(clock="tick").make_context()
        s = sim(cost, obs=run_ctx)
        with use(caller):
            s.begin()
            s.push(Request(rid=0, arrival_s=0.0, prompt_tokens=32,
                           max_new_tokens=4))
            steps = 0
            while s.advance():
                steps += 1
                assert current() is caller
            s.finish()
        priced = sum(run_ctx.metrics.value("serve_price_cache", kind=k)
                     for k in ("hit", "miss"))
        assert steps > 0 and priced >= steps
        assert caller.metrics.value("serve_price_cache", kind="hit") == 0
        assert caller.metrics.value("serve_price_cache", kind="miss") == 0

    def test_caller_context_restored_when_the_step_raises(self, cost,
                                                          monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("pricing failed")

        run_ctx = ObsConfig(clock="tick").make_context()
        caller = ObsConfig(clock="tick").make_context()
        s = sim(cost, obs=run_ctx)
        with use(caller):
            s.begin()
            s.push(Request(rid=0, arrival_s=0.0, prompt_tokens=32,
                           max_new_tokens=4))
            monkeypatch.setattr(s.cost, "step_seconds", broken)
            with pytest.raises(RuntimeError, match="pricing failed"):
                s.advance()
            assert current() is caller
