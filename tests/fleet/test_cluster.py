"""The fleet event loop: lockstep clock, routing, scaling, summaries."""

import pytest

from repro.fleet import (AutoscalePolicy, FleetSimulator, FlashCrowdTrace,
                         PoissonBurstTrace, PoissonTrace, ReplicaState)
from repro.platform import CLUSTER_PRESETS, cluster_preset
from repro.platform.presets import GVT3, SPR, SPR_1S, ZEN4
from repro.resilience import ResilienceConfig, check_fleet_invariants
from repro.serve import ServeConfigError
from repro.session import Session
from repro.obs import ObsConfig
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=8192)
HETERO = (SPR, GVT3, ZEN4, SPR_1S)
NO_DEGRADE = ResilienceConfig(deadline_s=60.0, degrade=None)


def fleet(machines=HETERO, **kw):
    kw.setdefault("resilience", NO_DEGRADE)
    kw.setdefault("mem_fraction", 0.01)
    return FleetSimulator(TINY, machines, **kw)


def run_digest(report):
    s = report.summary
    return (s.to_dict(), report.routed_counts, report.events,
            tuple((r.rid, r.finish_s, tuple(r.token_times))
                  for r in report.requests))


class TestValidation:
    def test_empty_machine_list(self):
        with pytest.raises(ServeConfigError, match="at least one"):
            FleetSimulator(TINY, ())

    def test_initial_replicas_bounds(self):
        with pytest.raises(ServeConfigError, match="initial_replicas"):
            fleet(initial_replicas=0)
        with pytest.raises(ServeConfigError, match="initial_replicas"):
            fleet(initial_replicas=5)

    def test_duplicate_rids_rejected(self):
        reqs = PoissonTrace(seed=1, n_requests=5, rate_rps=50).generate()
        with pytest.raises(ServeConfigError, match="duplicate"):
            fleet().run(reqs + reqs[-1:])

    def test_unordered_arrivals_rejected(self):
        reqs = PoissonTrace(seed=1, n_requests=5, rate_rps=50).generate()
        with pytest.raises(ServeConfigError, match="time-ordered"):
            fleet().run(reversed(reqs))


class TestLockstepDeterminism:
    @pytest.mark.parametrize("router", ["round_robin", "least_kv_loaded",
                                        "slo_sticky", "prefix_affinity"])
    def test_bit_identical_reruns(self, router):
        trace = FlashCrowdTrace(seed=7, n_requests=400, base_rps=60,
                                flash_at_s=2, flash_len_s=2, flash_mult=5,
                                n_classes=3, n_prefix_groups=8)
        a = fleet(router=router).run(trace)
        b = fleet(router=router).run(trace)
        assert run_digest(a) == run_digest(b)

    def test_replica_clocks_never_regress(self):
        trace = PoissonTrace(seed=3, n_requests=300, rate_rps=120)
        report = fleet(router="least_kv_loaded").run(trace)
        for req in report.requests:
            assert req.token_times == sorted(req.token_times)


class TestRoutingAndConservation:
    def test_all_replicas_used_and_counts_add_up(self):
        trace = PoissonTrace(seed=5, n_requests=400, rate_rps=200)
        f = fleet(router="round_robin")
        report = f.run(trace)
        assert sum(report.routed_counts.values()) == 400
        assert all(n > 0 for n in report.routed_counts.values())
        assert check_fleet_invariants(f, report) == []

    def test_fleet_summary_conserves_requests(self):
        trace = FlashCrowdTrace(seed=9, n_requests=500, base_rps=80,
                                flash_at_s=1, flash_len_s=2, flash_mult=6)
        report = fleet(router="least_kv_loaded").run(trace)
        s = report.summary
        assert s.n_injected == 500
        assert s.n_terminal == 500
        assert s.n_slots == 4 and s.peak_active == 4
        per_replica = sum(r.summary.n_submitted
                          for r in report.replica_reports)
        assert per_replica == 500 + s.n_failovers

    def test_replica_ids_stamped(self):
        trace = PoissonTrace(seed=2, n_requests=60, rate_rps=60)
        report = fleet().run(trace)
        assert {r.replica_id for r in report.replica_reports} \
            == {0, 1, 2, 3}
        for req in report.requests:
            assert req.replica in (0, 1, 2, 3)

    def test_keep_requests_false_drops_payload(self):
        trace = PoissonTrace(seed=2, n_requests=50, rate_rps=50)
        report = fleet().run(trace, keep_requests=False)
        assert report.requests == ()
        assert report.summary.n_injected == 50


class TestHeterogeneity:
    def test_slow_small_replicas_get_less_kv_routed_load(self):
        # under least-KV routing the big-DRAM SPR absorbs more resident
        # work than the small replicas before looking equally loaded
        trace = PoissonTrace(seed=11, n_requests=600, rate_rps=300,
                             mean_prompt=768, prompt_sigma=1.2)
        report = fleet(router="least_kv_loaded",
                       mem_fraction=0.002).run(trace)
        counts = report.routed_counts
        assert sum(counts.values()) == 600
        assert len(set(counts.values())) > 1   # not uniform

    def test_cluster_presets_run(self):
        trace = PoissonTrace(seed=4, n_requests=40, rate_rps=40)
        machines = cluster_preset("duo")
        report = fleet(machines=machines).run(trace)
        assert report.summary.n_slots == 2
        assert report.summary.n_terminal == 40

    def test_preset_registry(self):
        assert set(CLUSTER_PRESETS) \
            == {"homo4", "homo6", "hetero4", "hetero6", "edge4", "duo"}
        with pytest.raises(KeyError, match="unknown cluster"):
            cluster_preset("mega9000")


class TestAutoscaling:
    # TINY drains any burst faster than it arrives; the autoscaling
    # scenarios need a model heavy enough for queues to actually form
    MED = LlmConfig("med", layers=8, hidden=1024, heads=16,
                    intermediate=4096, vocab=32000)

    def test_bursts_scale_up_then_down(self):
        trace = PoissonBurstTrace(seed=5, n_requests=450, base_rps=5,
                                  burst_rps=200, period_s=60,
                                  burst_len_s=1.5, mean_prompt=512,
                                  mean_new_tokens=192, max_new_tokens=512)
        pol = AutoscalePolicy(min_replicas=1, interval_s=0.5, queue_hi=6,
                              queue_lo=1, up_after=2, down_after=4,
                              warmup_s=1.0)
        f = FleetSimulator(self.MED, HETERO, router="least_kv_loaded",
                           autoscale=pol, resilience=NO_DEGRADE,
                           mem_fraction=0.01)
        report = f.run(trace)
        s = report.summary
        assert s.n_scale_ups >= 1
        assert s.n_scale_downs >= 1      # the quiet tail drains one
        assert s.peak_active > pol.min_replicas
        assert s.n_terminal == s.n_injected == 450
        kinds = [k for _, k, _ in report.events]
        assert kinds.count("replica_warm") == s.n_scale_ups
        assert kinds.count("replica_park") == s.n_scale_downs
        assert check_fleet_invariants(f, report) == []

    def test_scale_events_deterministic(self):
        trace = PoissonBurstTrace(seed=6, n_requests=400, base_rps=5,
                                  burst_rps=200, period_s=20,
                                  burst_len_s=5)
        pol = AutoscalePolicy(min_replicas=1, interval_s=0.5, queue_hi=4,
                              queue_lo=1, up_after=1, warmup_s=0.5)
        a = fleet(autoscale=pol).run(trace)
        b = fleet(autoscale=pol).run(trace)
        assert a.events == b.events
        assert a.summary == b.summary

    def test_initial_replicas_follow_policy_floor(self):
        pol = AutoscalePolicy(min_replicas=2)
        f = fleet(autoscale=pol)
        f.run(PoissonTrace(seed=1, n_requests=20, rate_rps=20))
        states = [r.state for r in f.replicas]
        assert states.count(ReplicaState.PARKED) >= 1


class TestSessionFacade:
    def test_session_fleet_preset_and_obs(self):
        ses = Session(obs=ObsConfig(clock="tick"))
        f = ses.fleet(TINY, machines="duo", resilience=NO_DEGRADE,
                      mem_fraction=0.01)
        report = f.run(PoissonTrace(seed=8, n_requests=60, rate_rps=60))
        assert report.summary.n_terminal == 60
        snap = ses.obs.metrics.snapshot()
        assert any(k.startswith("fleet_requests") for k in snap)
        tracks = {ev.track for ev in ses.obs.tracer.events()}
        assert "replica 0" in tracks and "replica 1" in tracks
        assert "fleet" in tracks

    def test_pool_gauges_carry_the_replica_label(self):
        ses = Session(obs=ObsConfig(clock="tick"))
        f = ses.fleet(TINY, machines="duo", resilience=NO_DEGRADE,
                      mem_fraction=0.01)
        f.run(PoissonTrace(seed=8, n_requests=60, rate_rps=60))
        snap = ses.obs.metrics.snapshot()
        assert "kv_free_blocks" not in snap
        for r in f.replicas:
            assert snap[f'kv_free_blocks{{replica="{r.id}"}}'] \
                == r.sim.pool.free_blocks

    def test_session_fleet_machine_list(self):
        ses = Session(obs=ObsConfig.disabled())
        f = ses.fleet(TINY, machines=(SPR, ZEN4), resilience=NO_DEGRADE,
                      mem_fraction=0.01)
        assert len(f.machines) == 2
