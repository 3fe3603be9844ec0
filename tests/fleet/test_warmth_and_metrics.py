"""A run's outputs depend only on its inputs: not on how warm the caches
it shares with earlier runs are, and not on whether metrics are on.

Warmth: each scenario runs twice through one shared cost model
(``cost=`` or ``costs=``), on a decoder config no other test prices, so
the first run prices cold — it compiles the pricing nests and fills the
step-price memo — and the second finds both warm.  Summaries, events,
hedge records and request timelines must be equal, and so must the
metric snapshots once the two process-scoped counters are dropped:
``serve_price_cache`` and ``cache_events`` count lookups in caches that
outlive a run (DESIGN §6).

Metrics: the fleet guard's retry-budget gauge reads the bucket's level
without refilling it, so a guarded fleet ends in the same budget state
with metrics on as with metrics off.
"""

import pytest

from repro.fleet import PoissonTrace
from repro.obs import ObsConfig
from repro.platform import SPR
from repro.resilience import FleetFaultPlan, ReplicaFault, ResilienceConfig
from repro.serve import ServeCostModel, TrafficGenerator
from repro.session import Session
from repro.workloads import LlmConfig

PROCESS_SCOPED = ("serve_price_cache{", "cache_events{")
GRAY = FleetFaultPlan(seed=3, grays=(
    ReplicaFault(replica=0, at_s=0.5, kind="slowdown", until_s=7.0,
                 value=600.0),
    ReplicaFault(replica=1, at_s=3.0, kind="flaky", until_s=6.0,
                 value=0.4),
), p_probe_loss=0.01)
TRACE = PoissonTrace(seed=1, n_requests=400, rate_rps=150,
                     mean_prompt=384, max_prompt=1024,
                     mean_new_tokens=48, max_new_tokens=160)
RESILIENCE = ResilienceConfig(deadline_s=60.0, degrade=None)


def _config(hidden):
    """A decoder no other test prices: each scenario's first run
    compiles its own pricing nests."""
    return LlmConfig(f"warmth-{hidden}", layers=3, hidden=hidden, heads=5,
                     intermediate=4 * hidden, vocab=3000)


def _serve(session, shared):
    reqs = TrafficGenerator(rate_rps=300.0, seed=3, mean_prompt=128,
                            max_prompt=512, mean_new_tokens=16,
                            max_new_tokens=48).generate(150)
    return session.serve(shared.config, machine=SPR, cost=shared,
                         mem_fraction=0.01).run(reqs)


def _fleet(session, shared, guard):
    return session.fleet(_config(480 if guard else 400), machines="homo4",
                         router="round_robin",
                         faults=GRAY if guard else None,
                         resilience=RESILIENCE, mem_fraction=0.02,
                         guard=guard, costs=shared).run(TRACE)


SCENARIOS = {
    "serve": (lambda: ServeCostModel.for_stack(_config(320), SPR), _serve),
    "fleet": (dict, lambda ses, shared: _fleet(ses, shared, None)),
    "guarded": (dict, lambda ses, shared: _fleet(ses, shared, "default")),
}


def _outputs(report):
    timelines = tuple((r.rid, r.state, r.replica, r.first_token_s,
                       r.finish_s, tuple(r.token_times))
                      for r in report.requests)
    return (report.summary, getattr(report, "events", None),
            getattr(report, "hedges", None), timelines)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_outputs_do_not_depend_on_cache_warmth(scenario):
    make_shared, run = SCENARIOS[scenario]
    shared = make_shared()
    runs = []
    for _ in range(2):
        ses = Session(obs=ObsConfig(tracing=False))
        runs.append((_outputs(run(ses, shared)),
                     ses.obs.metrics.snapshot()))
    (cold, cold_snap), (warm, warm_snap) = runs
    assert cold == warm
    # the first run really was colder: it missed the step-price memo
    miss = 'serve_price_cache{kind="miss"}'
    assert cold_snap.get(miss, 0) > warm_snap.get(miss, 0)

    def scoped(snap):
        return {k: v for k, v in snap.items()
                if not k.startswith(PROCESS_SCOPED)}
    assert scoped(cold_snap) == scoped(warm_snap)


def test_metrics_do_not_move_the_retry_budget():
    def run(metrics):
        ses = Session(obs=ObsConfig(tracing=False, metrics=metrics))
        fleet = ses.fleet(_config(560), machines="homo4",
                          router="round_robin", faults=GRAY,
                          resilience=RESILIENCE, mem_fraction=0.02,
                          guard="default")
        report = fleet.run(TRACE)
        return vars(fleet._defense.budget), report.summary, report.hedges

    with_metrics, without = run(True), run(False)
    assert with_metrics[2], "the scenario must hedge"
    assert with_metrics == without
