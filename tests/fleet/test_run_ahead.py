"""Run-ahead differential: the fleet loop keeps stepping the earliest
replica until anything else is due.  Forcing one step per loop
iteration (the loop as it was before run-ahead) must give the same run
byte for byte — summary, events, request timelines, hedge records,
metrics and the exported Chrome trace — while calling ``next_time()``
less than half as often."""

import pytest

from repro.fleet import AutoscalePolicy, PoissonBurstTrace, PoissonTrace
from repro.fleet import cluster
from repro.obs import ObsConfig
from repro.platform import cluster_preset
from repro.platform.presets import GVT3, SPR, SPR_1S, ZEN4
from repro.resilience import FleetFaultPlan, ReplicaFault, ResilienceConfig
from repro.serve import ServeCostModel, ServeSimulator
from repro.session import Session
from repro.workloads import LlmConfig
from tests.fleet.test_cluster import run_digest

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=8192)
MED = LlmConfig("med", layers=8, hidden=1024, heads=16, intermediate=4096,
                vocab=32000)


def _hedge():
    # a x600 straggler: the guard hedges its work to a healthy replica,
    # and the winner's step withdraws the loser from the straggler
    faults = FleetFaultPlan(seed=3, grays=(
        ReplicaFault(replica=0, at_s=0.5, kind="slowdown", until_s=7.0,
                     value=600.0),
        ReplicaFault(replica=1, at_s=3.0, kind="flaky", until_s=6.0,
                     value=0.4),
    ), p_probe_loss=0.01)
    trace = PoissonTrace(seed=1, n_requests=400, rate_rps=150,
                         mean_prompt=384, max_prompt=1024,
                         mean_new_tokens=48, max_new_tokens=160)
    return trace, dict(config=TINY, machines=cluster_preset("homo4"),
                       router="round_robin", faults=faults,
                       resilience=ResilienceConfig(deadline_s=60.0,
                                                   degrade=None),
                       mem_fraction=0.02, guard="default")


def _death():
    # two deaths with revivals; the first evacuates in-flight work
    faults = FleetFaultPlan.sample_gray(
        seed=7, horizon_s=8.0, n_replicas=4, n_slowdowns=2,
        slowdown_mult=200.0, n_flaky=1, flaky_p=0.3, n_partitions=1,
        p_probe_loss=0.02, n_deaths=2, n_sdc=1)
    trace = PoissonTrace(seed=1007, n_requests=400, rate_rps=50,
                         mean_prompt=256, mean_new_tokens=32,
                         max_new_tokens=128)
    return trace, dict(config=TINY, machines=cluster_preset("homo4"),
                       router="round_robin", faults=faults,
                       resilience=ResilienceConfig(deadline_s=30.0,
                                                   degrade=None),
                       mem_fraction=0.02, guard="paranoid")


def _autoscale():
    faults = FleetFaultPlan(seed=4, grays=(
        ReplicaFault(replica=0, at_s=0.5, kind="slowdown", until_s=3.0,
                     value=4.0),), p_probe_loss=0.02)
    trace = PoissonBurstTrace(seed=5, n_requests=330, base_rps=5,
                              burst_rps=200, period_s=60, burst_len_s=1.5,
                              mean_prompt=512, mean_new_tokens=192,
                              max_new_tokens=512)
    pol = AutoscalePolicy(min_replicas=1, interval_s=0.5, queue_hi=6,
                          queue_lo=1, up_after=2, down_after=2,
                          warmup_s=1.0)
    return trace, dict(config=MED, machines=(SPR, GVT3, ZEN4, SPR_1S),
                       router="least_kv_loaded", autoscale=pol,
                       faults=faults,
                       resilience=ResilienceConfig(deadline_s=60.0,
                                                   degrade=None),
                       mem_fraction=0.01, guard="default")


SCENARIOS = {"hedge": _hedge, "death": _death, "autoscale": _autoscale}


def run(scenario, one_step, tmp_path):
    """One fleet run; *one_step* patches the run-ahead seam so the loop
    re-picks its earliest event after every replica step.  Returns the
    compared outputs, the report, and a call log of replica steps,
    ``next_time()`` calls and withdrawals, in order."""
    log = []
    advance = ServeSimulator.advance
    next_time = ServeSimulator.next_time
    withdraw = ServeSimulator.withdraw

    def logged_advance(self):
        log.append(("step", self.replica_id))
        return advance(self)

    def logged_next_time(self):
        log.append(("next", self.replica_id))
        return next_time(self)

    def logged_withdraw(self, rid):
        req = withdraw(self, rid)
        if req is not None:
            log.append(("withdraw", self.replica_id))
        return req

    trace, kw = SCENARIOS[scenario]()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ServeSimulator, "advance", logged_advance)
        m.setattr(ServeSimulator, "next_time", logged_next_time)
        m.setattr(ServeSimulator, "withdraw", logged_withdraw)
        if one_step:
            m.setattr(cluster, "_leads", lambda *args: False)
        ses = Session(obs=ObsConfig(clock="tick"))
        report = ses.fleet(kw.pop("config"), **kw).run(trace)
    path = tmp_path / f"{scenario}-{int(one_step)}.json"
    ses.obs.tracer.write_chrome(str(path))
    out = dict(digest=run_digest(report), hedges=report.hedges,
               metrics=ses.obs.metrics.snapshot(), chrome=path.read_bytes())
    return out, report, log


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every scenario, run ahead and one step per iteration.  The
    pricing nests are compiled first, so both runs of a pair see the
    same process-wide nest cache (its counters are in the snapshot)."""
    for cfg, machines in ((TINY, (SPR,)), (MED, (SPR, GVT3, ZEN4, SPR_1S))):
        for machine in machines:
            ServeCostModel.for_stack(cfg, machine).prime()
    tmp_path = tmp_path_factory.mktemp("run_ahead")
    return {(name, one_step): run(name, one_step, tmp_path)
            for name in SCENARIOS for one_step in (False, True)}


def withdrawals_mid_run(log) -> int:
    """Withdrawals from another replica made after a step, where the
    stepping replica then kept stepping with no other replica asked."""
    n = 0
    stepping = None
    for j, (kind, rid) in enumerate(log):
        if kind == "step":
            stepping = rid
        elif kind == "next" and rid != stepping:
            stepping = None
        elif kind == "withdraw" and stepping is not None \
                and rid != stepping:
            k = j + 1
            while k < len(log) and log[k][0] == "withdraw":
                k += 1
            if log[k:k + 2] == [("next", stepping), ("step", stepping)]:
                n += 1
    return n


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_ahead_matches_one_step_per_iteration(runs, scenario):
    ahead, _, log = runs[scenario, False]
    one, _, one_log = runs[scenario, True]
    assert ahead["digest"] == one["digest"]
    assert ahead["hedges"] == one["hedges"]
    assert ahead["metrics"] == one["metrics"]
    assert ahead["chrome"] == one["chrome"]
    assert [e for e in log if e[0] == "step"] \
        == [e for e in one_log if e[0] == "step"]


def test_scenarios_cover_withdrawal_death_and_scaling(runs):
    _, hedge, log = runs["hedge", False]
    assert hedge.summary.n_hedges > 0
    assert withdrawals_mid_run(log) > 0
    death = runs["death", False][1]
    kinds = [k for _, k, _ in death.events]
    assert "replica_death" in kinds and "replica_revive" in kinds
    assert death.summary.n_failovers > 0
    events = runs["autoscale", False][1].events
    assert "replica_warm" in [k for _, k, _ in events]
    # a draining replica parks after the step that empties it
    downs = {(t, r) for t, k, r in events if k == "scale_down"}
    assert any(k == "replica_park" and (t, r) not in downs
               for t, k, r in events)


def test_run_ahead_halves_wake_up_queries(runs):
    def calls(one_step):
        return sum(1 for name in SCENARIOS
                   for kind, _ in runs[name, one_step][2] if kind == "next")
    assert calls(False) < calls(True) / 2, (calls(False), calls(True))

