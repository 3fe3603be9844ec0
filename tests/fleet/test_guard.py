"""Circuit breakers, retry budget, hedging, and defended-fleet runs."""

import pytest

from repro.fleet import (BreakerPolicy, CircuitBreaker, FleetSimulator,
                         GUARD_PRESETS, GuardPolicy, HedgePolicy,
                         PoissonTrace, RetryBudget, RetryBudgetPolicy,
                         make_guard_policy)
from repro.fleet.guard import LEGAL_BREAKER_TRANSITIONS
from repro.platform import SPR, cluster_preset
from repro.resilience import (FleetFaultPlan, ReplicaFault,
                              ResilienceConfig, check_fleet_invariants)
from repro.serve.request import Request, RequestState
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=8192)
NO_DEGRADE = ResilienceConfig(deadline_s=60.0, degrade=None)

# one replica slowed x600 for most of the run, another flaky: the
# guarded fleet must hedge work off the straggler
GRAY = FleetFaultPlan(seed=3, grays=(
    ReplicaFault(replica=0, at_s=0.5, kind="slowdown", until_s=7.0,
                 value=600.0),
    ReplicaFault(replica=1, at_s=3.0, kind="flaky", until_s=6.0,
                 value=0.4),
), p_probe_loss=0.01)
TRACE = PoissonTrace(seed=1, n_requests=1200, rate_rps=150,
                     mean_prompt=384, max_prompt=1024,
                     mean_new_tokens=48, max_new_tokens=160)


def guarded_fleet(guard="default", faults=GRAY, router="round_robin"):
    return FleetSimulator(TINY, cluster_preset("homo4"), router=router,
                          faults=faults, resilience=NO_DEGRADE,
                          mem_fraction=0.02, guard=guard)


class TestBreakerStateMachine:
    def test_trips_after_consecutive_bad_intervals(self):
        br = CircuitBreaker(BreakerPolicy(trip_after=3, open_s=2.0), 0)
        br.on_interval(0.5, bad=True, delivered=False)
        br.on_interval(1.0, bad=False, delivered=True)   # streak resets
        br.on_interval(1.5, bad=True, delivered=False)
        br.on_interval(2.0, bad=True, delivered=False)
        assert br.state == "closed"
        br.on_interval(2.5, bad=True, delivered=False)
        assert br.state == "open"
        assert not br.allow()

    def test_open_cools_down_to_half_open_then_closes(self):
        br = CircuitBreaker(BreakerPolicy(trip_after=1, open_s=2.0), 0)
        br.on_interval(1.0, bad=True, delivered=False)
        assert br.state == "open"
        br.on_interval(2.0, bad=False, delivered=True)   # still cooling
        assert br.state == "open"
        br.on_interval(3.0, bad=False, delivered=True)
        assert br.state == "half_open"
        assert br.allow()
        br.note_route()                                  # one trial
        assert not br.allow()                            # allowance spent
        br.on_interval(3.5, bad=False, delivered=True)
        assert br.state == "closed"

    def test_half_open_relapses_on_bad_interval(self):
        br = CircuitBreaker(BreakerPolicy(trip_after=1, open_s=1.0), 0)
        br.on_interval(1.0, bad=True, delivered=False)
        br.on_interval(2.5, bad=False, delivered=True)
        assert br.state == "half_open"
        br.on_interval(3.0, bad=True, delivered=False)
        assert br.state == "open"

    def test_every_edge_is_legal(self):
        br = CircuitBreaker(BreakerPolicy(trip_after=1, open_s=1.0), 0)
        for i in range(40):
            br.on_interval(0.5 * i, bad=i % 3 == 0, delivered=i % 3 != 0)
        assert br.transitions                    # it did move
        for _, frm, to in br.transitions:
            assert (frm, to) in LEGAL_BREAKER_TRANSITIONS

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(trip_after=0)
        with pytest.raises(ValueError):
            BreakerPolicy(open_s=0.0)


class TestRetryBudget:
    def test_burst_then_refill(self):
        b = RetryBudget(RetryBudgetPolicy(capacity=2.0, refill_per_s=1.0))
        assert b.try_spend(0.0) and b.try_spend(0.0)
        assert not b.try_spend(0.0)              # bucket dry
        assert not b.available(0.5)              # half a token back
        assert b.try_spend(1.5)                  # refilled past 1.0
        assert b.spent == 3

    def test_never_exceeds_capacity(self):
        b = RetryBudget(RetryBudgetPolicy(capacity=3.0, refill_per_s=10.0))
        b.available(100.0)
        assert b.tokens == 3.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryBudgetPolicy(capacity=0.5)
        with pytest.raises(ValueError):
            RetryBudgetPolicy(refill_per_s=-1.0)


class TestGuardPolicyResolution:
    def test_presets_resolve(self):
        assert make_guard_policy(None) is None
        assert make_guard_policy("default") is GUARD_PRESETS["default"]
        pol = GuardPolicy(hedge=None)
        assert make_guard_policy(pol) is pol

    def test_unknown_preset_and_bad_type(self):
        with pytest.raises(ValueError, match="unknown guard preset"):
            make_guard_policy("yolo")
        with pytest.raises(TypeError):
            make_guard_policy(42)

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(multiplier=0.0)


class TestDefendedFleet:
    @pytest.fixture(scope="class")
    def defended(self):
        fleet = guarded_fleet()
        report = fleet.run(TRACE)
        return fleet, report

    def test_hedges_fire_and_win_under_stragglers(self, defended):
        fleet, report = defended
        s = report.summary
        assert s.n_hedges > 0
        assert s.n_hedge_wins > 0
        assert s.retry_budget_spent == s.n_hedges + s.n_guard_retries
        assert len(report.hedges) == s.n_hedges

    def test_invariants_hold(self, defended):
        fleet, report = defended
        assert check_fleet_invariants(fleet, report) == []
        assert report.summary.n_terminal == report.summary.n_injected

    def test_every_hedge_resolves_without_duplicates(self, defended):
        _, report = defended
        for rec in report.hedges:
            assert rec.winner in ("primary", "hedge", "none")
            assert rec.clone_state is not None
            assert not rec.duplicate
            assert rec.clone_rid == -rec.rid - 1
            assert rec.to_replica != rec.from_replica

    def test_hedging_improves_tail_ttft(self, defended):
        _, report = defended
        undefended = guarded_fleet(guard=None).run(TRACE)
        assert report.summary.ttft_p99_s < undefended.summary.ttft_p99_s

    def test_defended_runs_replay_bit_identically(self, defended):
        _, report = defended
        again = guarded_fleet().run(TRACE)
        assert again.summary == report.summary
        assert again.hedges == report.hedges

    def test_guard_off_matches_plain_fleet(self):
        # guard=None must leave the PR 6 behavior untouched
        a = guarded_fleet(guard=None).run(TRACE)
        b = FleetSimulator(TINY, cluster_preset("homo4"),
                           router="round_robin", faults=GRAY,
                           resilience=NO_DEGRADE,
                           mem_fraction=0.02).run(TRACE)
        assert a.summary == b.summary

    def test_least_suspect_router_runs_guarded(self):
        report = guarded_fleet(router="least_suspect").run(TRACE)
        s = report.summary
        assert s.n_terminal == s.n_injected

    def test_hedge_only_preset_moves_nothing(self):
        fleet = guarded_fleet(guard="hedge_only")
        report = fleet.run(TRACE)
        assert report.summary.n_guard_retries == 0
        assert check_fleet_invariants(fleet, report) == []

    def test_breaker_transitions_logged_are_legal(self, defended):
        fleet, _ = defended
        for _, _, frm, to in fleet._defense.transitions():
            assert (frm, to) in LEGAL_BREAKER_TRANSITIONS


class TestHedgeResolutions:
    """One hedged request on two equally slowed replicas.  Its 2,048-token
    prompt prefills in four 512-token chunks, each stretched x600: the
    primary's chunk steps on replica 0 start at 0, 0.21, 0.54 and
    0.97 s.  The first probe round (0.5 s) hedges it to replica 1, which
    starts the clone's chunk steps at 0.50, 0.71 and 1.04 s, so the
    primary is always the side nearer its first token."""

    GUARD = GuardPolicy(hedge=HedgePolicy(initial_delay_s=0.5,
                                          min_delay_s=0.5))

    def _report(self, deadline_s, until_s=100.0):
        slow = FleetFaultPlan(seed=0, grays=tuple(
            ReplicaFault(replica=r, at_s=0.0, kind="slowdown",
                         until_s=until_s, value=600.0) for r in (0, 1)))
        fleet = FleetSimulator(
            TINY, (SPR, SPR), faults=slow, mem_fraction=0.02,
            resilience=ResilienceConfig(deadline_s=deadline_s,
                                        degrade=None), guard=self.GUARD)
        report = fleet.run([Request(rid=0, arrival_s=0.0,
                                    prompt_tokens=2048, max_new_tokens=2)])
        (rec,) = report.hedges
        assert (rec.rid, rec.hedged_at_s, rec.from_replica,
                rec.to_replica) == (0, 0.5, 0, 1)
        # the clone was withdrawn from replica 1, its only request
        clone_side = report.replica_reports[1].summary
        assert (clone_side.n_submitted, clone_side.n_failed_over) == (1, 1)
        assert check_fleet_invariants(fleet, report) == []
        return report

    def _run(self, deadline_s):
        report = self._report(deadline_s)
        return report.requests[0], report.hedges[0]

    def test_primary_wins_and_its_clone_is_withdrawn(self):
        req, rec = self._run(deadline_s=60.0)
        assert (rec.winner, rec.clone_state) == ("primary", "withdrawn")
        assert req.state is RequestState.FINISHED
        assert not rec.duplicate

    def test_primary_timing_out_first_resolves_to_no_winner(self):
        # the deadline passes during the primary's third chunk step:
        # replica 0 reaps it at 0.97 s, before the clone's next step
        req, rec = self._run(deadline_s=0.9)
        assert (rec.winner, rec.clone_state) == ("none", "withdrawn")
        assert req.state is RequestState.TIMED_OUT
        assert req.first_token_s is None

    @pytest.mark.parametrize("until_s", [100.0, 5.0])
    def test_idle_replicas_do_not_wait_out_the_fault_windows(self, until_s):
        # the last reap (0.97 s) leaves both replicas idle inside their
        # slowdown windows; nothing is due when a window closes, so the
        # run ends with the reap, whatever the window's end
        report = self._report(deadline_s=0.9, until_s=until_s)
        assert report.summary.makespan_s < 1.1
