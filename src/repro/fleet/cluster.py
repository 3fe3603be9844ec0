"""The fleet simulator: N serving replicas under one discrete-event clock.

One :class:`FleetSimulator` owns a fixed set of replica *slots* (one
:class:`~repro.platform.machine.MachineModel` each — heterogeneous
clusters are just different presets per slot).  Every active slot runs
its own :class:`~repro.serve.server.ServeSimulator` — private KV pool,
private :class:`~repro.resilience.faults.FaultPlan` — through the
incremental begin/push/advance engine, and the fleet advances them in
lockstep: each loop iteration picks the globally earliest event among

1. replica deaths and revivals (:class:`FleetFaultPlan`),
2. warm-up completions of scaled-up replicas,
3. health-probe rounds (:class:`~repro.fleet.guard.FleetGuard`:
   failure detection, breakers, hedges — only with ``guard=`` set),
4. autoscaler evaluation ticks,
5. the next unrouted arrival (routed by the
   :class:`~repro.fleet.router.Router`),
6. the earliest replica able to make local progress,

with ties broken in exactly that order, then by replica id.  A replica
step runs ahead: the replica keeps stepping while it would be picked
again, i.e. until its next wake-up no longer sorts below the runner-up
event, which leaves the dispatch order unchanged.  The loop is
therefore a pure function of (trace seed, fault seed, policies) —
two runs are bit-identical, including every failover and scale event.

With a guard enabled the routers stop reading live replica state:
candidates become :class:`~repro.fleet.health.ObservedReplica`
probe-snapshot views (stale, and lying under partition faults), open
circuit breakers drop replicas from the candidate set, stalled
requests hedge to a second replica after a quantile-based delay, and
every defense pays into one fleet-wide retry budget.  With
``guard=None`` (the default) the loop is byte-identical to PR 6.

Replica death evacuates all non-terminal work (KV lost, positions
re-prefill elsewhere) and re-routes it at the death instant; the
conservation invariant — every injected request reaches exactly one
terminal state somewhere — is checked by
:func:`repro.resilience.chaos.check_fleet_invariants`.  Arrivals with
no routable replica buffer FIFO and route as soon as capacity returns;
if it never does they are rejected, not lost.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import asdict, dataclass

from ..core.errors import ServeConfigError
from ..obs.context import current as _obs
from ..obs.context import install as _install_obs
from ..serve.cost import ServeCostModel
from ..serve.metrics import percentile
from ..serve.request import RequestState
from ..serve.server import ServeSimulator
from ..tpp.dtypes import DType
from .autoscale import Autoscaler, FleetGauges
from .guard import FleetGuard, make_guard_policy
from .router import make_router

__all__ = ["ReplicaState", "Replica", "FleetSummary", "FleetReport",
           "FleetSimulator"]

# event priorities at equal simulated time (lower dispatches first)
_EV_DEATH = 0
_EV_REVIVE = 1
_EV_WARM = 2
_EV_PROBE = 3
_EV_SCALE = 4
_EV_ARRIVAL = 5
_EV_ADVANCE = 6


def _leads(t: float, rid: int, runner_up) -> bool:
    """Does replica *rid*'s next step at *t* still sort before
    *runner_up*, the loop's next event in ``(time, priority, id)``
    order?  Then the fleet loop would pick this replica again."""
    return runner_up is None or (t, _EV_ADVANCE, rid) < runner_up


class ReplicaState(enum.Enum):
    ACTIVE = "active"        # serving and routable
    WARMING = "warming"      # scaled up, waiting out warmup_s
    DRAINING = "draining"    # scaled down: finishes its work, no new
    PARKED = "parked"        # empty slot the autoscaler may warm
    DEAD = "dead"            # killed by a ReplicaFault (until revival)


class Replica:
    """One slot of the fleet: a machine plus the simulator incarnation
    currently running on it (replicas that die and revive get a fresh
    incarnation; every incarnation's report is kept)."""

    def __init__(self, rid: int, machine, state: ReplicaState):
        self.id = rid
        self.machine = machine
        self.state = state
        self.sim: ServeSimulator | None = None
        #: simulated time a WARMING replica becomes ACTIVE
        self.available_s = 0.0
        self.n_routed = 0
        #: ServeReports of every finished incarnation
        self.reports: list = []

    # -- the load signals routers read ----------------------------------
    @property
    def kv_load(self) -> float:
        """Fraction of this replica's KV pool currently allocated."""
        if self.sim is None:
            return 0.0
        pool = self.sim.pool
        return pool.used_blocks / pool.total_blocks \
            if pool.total_blocks else 1.0

    @property
    def queue_depth(self) -> int:
        return 0 if self.sim is None else self.sim.queue_depth

    @property
    def in_flight(self) -> int:
        return 0 if self.sim is None else self.sim.in_flight

    @property
    def goodput_tokens(self) -> int:
        """Goodput tokens over all incarnations, live one included."""
        total = sum(r.metrics.goodput_tokens for r in self.reports)
        if self.sim is not None and self.sim.live_metrics is not None:
            total += self.sim.live_metrics.goodput_tokens
        return total


@dataclass(frozen=True)
class FleetSummary:
    """One fleet run, condensed (aggregated over every incarnation)."""

    n_slots: int
    peak_active: int
    n_injected: int
    n_failovers: int
    n_replica_deaths: int
    n_scale_ups: int
    n_scale_downs: int
    #: arrivals that never found a routable replica (terminal REJECTED)
    n_unroutable: int
    n_finished: int
    n_rejected: int
    n_timed_out: int
    n_cancelled: int
    n_shed: int
    makespan_s: float
    generated_tokens: int
    tokens_per_s: float
    goodput_tokens: int
    goodput_tokens_per_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_p50_s: float
    tpot_p99_s: float
    e2e_p50_s: float
    e2e_p99_s: float
    mean_queue_depth: float
    peak_kv_occupancy: float
    # -- defense accounting (repro.fleet.guard) ------------------------
    #: hedge clones issued for stalled requests
    n_hedges: int = 0
    #: hedges whose clone delivered the winning completion
    n_hedge_wins: int = 0
    #: requests moved off suspected/breaker-open replicas
    n_guard_retries: int = 0
    #: circuit-breaker closed/half-open → open transitions
    n_breaker_opens: int = 0
    #: retry-budget tokens spent (== n_hedges + n_guard_retries)
    retry_budget_spent: int = 0
    # -- silent-data-corruption accounting (repro.resilience.sdc) ------
    n_sdc_detected: int = 0
    n_sdc_corrected: int = 0
    n_sdc_recomputed: int = 0
    n_sdc_silent: int = 0

    @property
    def n_terminal(self) -> int:
        """Terminal requests fleet-wide; conservation across failover
        demands this equals ``n_injected``."""
        return (self.n_finished + self.n_rejected + self.n_timed_out
                + self.n_cancelled + self.n_shed + self.n_unroutable)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_terminal"] = self.n_terminal
        return d


@dataclass(frozen=True)
class FleetReport:
    """Everything one fleet run produced."""

    summary: FleetSummary
    #: every incarnation's ServeReport, replica-id then lifetime order
    replica_reports: tuple
    #: unique injected requests (empty if keep_requests=False)
    requests: tuple
    #: replica id -> requests routed to it (failovers included)
    routed_counts: dict
    #: (time_s, kind, replica_id) for scale/death/revive/warm events
    events: tuple
    config_name: str
    router_name: str
    #: every :class:`~repro.fleet.guard.HedgeRecord` of the run
    hedges: tuple = ()


class FleetSimulator:
    """Simulates a multi-replica serving fleet, deterministically.

    Parameters mirror :class:`~repro.serve.server.ServeSimulator` where
    they are per-replica (batcher/scheduler/resilience are shared policy
    objects; each replica still gets its own KV pool and fault plan).

    ``machines`` fixes the replica slots; ``initial_replicas`` of them
    start ACTIVE (default: all without an autoscaler, else
    ``autoscale.min_replicas``).  ``faults`` is a
    :class:`~repro.resilience.faults.FleetFaultPlan`; ``router`` a
    policy name or :class:`~repro.fleet.router.Router`; ``autoscale``
    an :class:`~repro.fleet.autoscale.AutoscalePolicy` (None disables
    scaling); ``guard`` a :class:`~repro.fleet.guard.GuardPolicy` or
    preset name (``"default"``/``"hedge_only"``/``"paranoid"``)
    enabling observed-health routing, circuit breakers, hedged
    requests and the fleet-wide retry budget (None: the omniscient
    loop of PR 6, byte-identical to before).  ``costs`` injects a
    shared ``{machine.name: ServeCostModel}`` dict so repeated fleets
    over the same hardware reuse warmed engine anchors and step-price
    memos instead of re-pricing from scratch."""

    def __init__(self, config, machines, router="round_robin",
                 autoscale=None, faults=None, resilience=None,
                 stack_name: str = "parlooper", dtype: DType = DType.BF16,
                 batcher=None, scheduler=None, block_tokens: int = 16,
                 mem_fraction: float = 0.9, obs=None,
                 initial_replicas: int | None = None, guard=None,
                 costs: dict | None = None, tuner=None):
        machines = tuple(machines)
        if not machines:
            raise ServeConfigError(
                "a fleet needs at least one machine slot")
        self.config = config
        self.machines = machines
        self.router = make_router(router)
        #: None, a preset name ("default"/"hedge_only"/"paranoid") or a
        #: GuardPolicy — enables the observed-health defense layer
        self.guard_policy = make_guard_policy(guard)
        self.autoscale_policy = autoscale
        self.faults = faults
        self.resilience = resilience
        self.stack_name = stack_name
        self.dtype = dtype
        self.batcher = batcher
        self.scheduler = scheduler
        self.block_tokens = block_tokens
        self.mem_fraction = mem_fraction
        self.obs = obs
        if initial_replicas is None:
            initial_replicas = (autoscale.min_replicas
                                if autoscale is not None
                                else len(machines))
        if not 1 <= initial_replicas <= len(machines):
            raise ServeConfigError(
                f"initial_replicas must be in [1, {len(machines)}], "
                f"got {initial_replicas!r}")
        self.initial_replicas = initial_replicas
        # engine-priced cost anchors shared across incarnations (a
        # revive re-prices nothing); pass ``costs`` to share the warmed
        # models across *fleets* too — benchmark reruns and sweeps over
        # identical hardware re-price nothing at all
        self._costs: dict = costs if costs is not None else {}
        #: one shared :class:`~repro.tuner.online.OnlineTuner` across
        #: every replica's cost model — all machines pool one decision
        #: cache and one growing EvalCache corpus
        self.tuner = tuner
        self.replicas: list = []
        #: the FleetGuard of the last run (None: undefended) — the
        #: chaos harness audits its breakers/budget/hedge records
        self._defense: FleetGuard | None = None

    # -- replica lifecycle ----------------------------------------------
    def _cost_for(self, machine) -> ServeCostModel:
        key = machine.name
        if key not in self._costs:
            self._costs[key] = ServeCostModel.for_stack(
                self.config, machine, self.stack_name, self.dtype,
                tuner=self.tuner)
        return self._costs[key]

    def _start_incarnation(self, replica, max_steps: int,
                           now_s: float = 0.0) -> None:
        replica.sim = ServeSimulator(
            self.config, replica.machine, stack_name=self.stack_name,
            dtype=self.dtype, batcher=self.batcher,
            scheduler=self.scheduler, block_tokens=self.block_tokens,
            mem_fraction=self.mem_fraction,
            cost=self._cost_for(replica.machine),
            resilience=self.resilience,
            faults=(self.faults.plan_for(replica.id)
                    if self.faults is not None else None),
            sdc=(self.faults.sdc_for(replica.id)
                 if self.faults is not None else None),
            obs=self._obs, replica_id=replica.id)
        replica.sim.begin(max_steps=max_steps)
        replica.state = ReplicaState.ACTIVE
        if self._defense is not None:
            self._defense.activate(replica.id, now_s)

    # -- the fleet event loop -------------------------------------------
    def run(self, trace, max_steps: int = 1_000_000,
            keep_requests: bool = True) -> FleetReport:
        """Route and serve every request of *trace* (any iterable of
        :class:`~repro.serve.request.Request`, streamed); returns the
        aggregated :class:`FleetReport`."""
        obs = self.obs if self.obs is not None else _obs()
        self._obs = obs
        mirror = obs.metrics.enabled
        tracing = obs.tracer.enabled
        self.router.reset()
        guard = (FleetGuard(self.guard_policy, faults=self.faults,
                            obs=obs)
                 if self.guard_policy is not None else None)
        self._defense = guard
        scaler = Autoscaler(self.autoscale_policy) \
            if self.autoscale_policy is not None else None
        self.replicas = [
            Replica(i, m, ReplicaState.ACTIVE
                    if i < self.initial_replicas else ReplicaState.PARKED)
            for i, m in enumerate(self.machines)]
        for r in self.replicas:
            if r.state is ReplicaState.ACTIVE:
                self._start_incarnation(r, max_steps)
        death_events = self.faults.death_events() \
            if self.faults is not None else []
        death_i = 0
        pending: deque = deque()    # arrivals with no routable replica
        requests: list = []         # unique injected (order of arrival)
        self._routed_counts = {r.id: 0 for r in self.replicas}
        events_log: list = []
        clock = 0.0
        last_arrival = -1.0
        seen_rids: set = set()
        n_failovers = n_deaths = n_ups = n_downs = n_unroutable = 0
        peak_active = self.initial_replicas
        next_tick = (scaler.policy.interval_s
                     if scaler is not None else None)
        next_probe = (guard.policy.health.probe_interval_s
                      if guard is not None else None)
        last_goodput = 0
        stale_ticks = 0             # consecutive no-op autoscale ticks

        arrivals = iter(trace)

        def pull():
            nonlocal last_arrival
            req = next(arrivals, None)
            if req is None:
                return None
            if req.arrival_s < 0 or req.arrival_s < last_arrival:
                raise ServeConfigError(
                    f"request {req.rid}: arrivals must be "
                    f"time-ordered and non-negative "
                    f"(got {req.arrival_s!r} after {last_arrival!r})")
            if req.prompt_tokens <= 0 or req.max_new_tokens <= 0:
                raise ServeConfigError(
                    f"request {req.rid} has non-positive token counts")
            if req.rid in seen_rids:
                raise ServeConfigError(
                    f"duplicate request id {req.rid} in fleet trace")
            seen_rids.add(req.rid)
            last_arrival = req.arrival_s
            if keep_requests:
                requests.append(req)
            return req

        def route(req, failover=False):
            nonlocal n_failovers
            candidates = [r for r in self.replicas
                          if r.state is ReplicaState.ACTIVE]
            if not candidates:
                pending.append(req)
                if guard is not None:
                    guard.on_pending(req)
                return
            if guard is not None:
                # routers see observed (probe-snapshot) views only,
                # breaker-filtered; the view maps back to its replica
                views = guard.route_candidates(candidates, clock)
                target = self.router.route(req, views, clock).replica
            else:
                target = self.router.route(req, candidates, clock)
            target.sim.sync_clock(clock)
            target.sim.push(req)
            target.n_routed += 1
            self._routed_counts[target.id] += 1
            if guard is not None:
                guard.on_dispatch(req, target.id, clock)
            if failover:
                n_failovers += 1
            if mirror:
                obs.inc("fleet_requests",
                        event="failover" if failover else "routed",
                        replica=str(target.id))

        def guard_dispatch(target, req, kind):
            """Push hook the guard uses for hedges and retry moves."""
            target.sim.sync_clock(clock)
            target.sim.push(req)
            target.n_routed += 1
            self._routed_counts[target.id] += 1
            if mirror:
                obs.inc("fleet_requests", event=kind,
                        replica=str(target.id))

        def drain_pending():
            while pending and any(r.state is ReplicaState.ACTIVE
                                  for r in self.replicas):
                route(pending.popleft())

        def mark(kind, replica_id):
            events_log.append((clock, kind, replica_id))
            if tracing:
                obs.tracer.instant(kind, track="fleet", ts=clock,
                                   replica=replica_id)

        nxt = pull()
        while True:
            events = []
            if death_i < len(death_events):
                t, kind, rep = death_events[death_i]
                events.append((t, _EV_DEATH if kind == 0 else _EV_REVIVE,
                               rep))
            busy = False
            for r in self.replicas:
                if r.state is ReplicaState.WARMING:
                    events.append((r.available_s, _EV_WARM, r.id))
                    busy = True
                elif r.sim is not None:
                    t_r = r.sim.next_time()
                    if t_r is not None:
                        events.append((t_r, _EV_ADVANCE, r.id))
                        busy = True
            if nxt is not None:
                events.append((nxt.arrival_s, _EV_ARRIVAL, -1))
            work = busy or nxt is not None or bool(pending)
            if not work:
                break
            if scaler is not None and next_tick is not None:
                events.append((next_tick, _EV_SCALE, -1))
            if guard is not None and (busy or nxt is not None):
                # probe rounds only while the fleet has (or expects)
                # work: probes observe progress, they must not
                # manufacture it — pending-only states still terminate
                events.append((next_probe, _EV_PROBE, -1))
            if not events:
                break               # pending can never route again
            events.sort()
            t, prio, idx = events[0]
            clock = max(clock, t)
            if prio not in (_EV_SCALE, _EV_PROBE):
                stale_ticks = 0

            if prio == _EV_DEATH:
                death_i += 1
                r = self.replicas[idx]
                if r.sim is not None:
                    moved = r.sim.evacuate()
                    r.reports.append(r.sim.finish())
                    r.sim = None
                    r.state = ReplicaState.DEAD
                    n_deaths += 1
                    mark("replica_death", idx)
                    if mirror:
                        obs.inc("fleet_faults", kind="replica_death")
                    if guard is not None:
                        # uncommitted hedge clones die with the
                        # replica; everything else fails over
                        moved = guard.on_death_evacuated(idx, moved,
                                                         clock)
                    for req in moved:
                        route(req, failover=True)
                elif r.state is not ReplicaState.DEAD:
                    r.state = ReplicaState.DEAD
                    n_deaths += 1
                    mark("replica_death", idx)
            elif prio == _EV_REVIVE:
                death_i += 1
                r = self.replicas[idx]
                if r.state is ReplicaState.DEAD:
                    self._start_incarnation(r, max_steps, now_s=clock)
                    mark("replica_revive", idx)
                    drain_pending()
            elif prio == _EV_WARM:
                r = self.replicas[idx]
                self._start_incarnation(r, max_steps, now_s=clock)
                mark("replica_warm", idx)
                drain_pending()
            elif prio == _EV_PROBE:
                next_probe = clock + guard.policy.health.probe_interval_s
                guard.probe_tick(clock, self.replicas, guard_dispatch)
            elif prio == _EV_SCALE:
                next_tick = clock + scaler.policy.interval_s
                active = [r for r in self.replicas
                          if r.state in (ReplicaState.ACTIVE,
                                         ReplicaState.WARMING)]
                queue = len(pending) + sum(
                    r.queue_depth for r in self.replicas
                    if r.sim is not None)
                goodput = sum(r.goodput_tokens for r in self.replicas)
                tps = (goodput - last_goodput) / scaler.policy.interval_s
                last_goodput = goodput
                gauges = FleetGauges(now_s=clock,
                                     active_replicas=len(active),
                                     queue_depth=queue, goodput_tps=tps)
                if mirror:
                    obs.set_gauge("fleet_active_replicas", len(active))
                    obs.set_gauge("fleet_queue_depth", queue)
                    obs.set_gauge("fleet_goodput_tps", tps)
                decision = scaler.decide(gauges, len(self.replicas))
                acted = False
                if decision > 0:
                    parked = [r for r in self.replicas
                              if r.state is ReplicaState.PARKED]
                    if parked:
                        r = parked[0]
                        r.state = ReplicaState.WARMING
                        r.available_s = clock + scaler.policy.warmup_s
                        n_ups += 1
                        peak_active = max(peak_active, len(active) + 1)
                        mark("scale_up", r.id)
                        acted = True
                elif decision < 0:
                    actives = [r for r in self.replicas
                               if r.state is ReplicaState.ACTIVE]
                    if len(actives) > 1:
                        r = actives[-1]
                        r.state = ReplicaState.DRAINING
                        n_downs += 1
                        mark("scale_down", r.id)
                        acted = True
                        if r.sim.next_time() is None:
                            # already idle: park without waiting for an
                            # advance event that will never come
                            r.reports.append(r.sim.finish())
                            r.sim = None
                            r.state = ReplicaState.PARKED
                            mark("replica_park", r.id)
                if not acted and not busy and nxt is None \
                        and death_i >= len(death_events):
                    # nothing but ticks left and this one changed
                    # nothing; the deterministic scaler sees identical
                    # gauges forever, so a bounded streak decides it
                    stale_ticks += 1
                    p = scaler.policy
                    if stale_ticks > p.up_after + p.down_after + 2:
                        break
                else:
                    stale_ticks = 0
            elif prio == _EV_ARRIVAL:
                route(nxt)
                nxt = pull()
                while nxt is not None and nxt.arrival_s <= clock:
                    route(nxt)
                    nxt = pull()
            else:                   # _EV_ADVANCE
                # run ahead: step this replica while it stays earliest.
                # Nothing else comes due before the runner-up meanwhile:
                # other replicas change only through the events above,
                # and a hedge withdrawal can only delay one
                runner_up = events[1] if len(events) > 1 else None
                r = self.replicas[idx]
                prev = _install_obs(obs)
                try:
                    while True:
                        r.sim.advance()
                        if guard is not None:
                            # settle any hedge race this step decided
                            # before any other replica moves
                            guard.after_advance(r, clock, self.replicas)
                        t = r.sim.next_time()
                        if t is None:
                            if r.state is ReplicaState.DRAINING:
                                r.reports.append(r.sim.finish())
                                r.sim = None
                                r.state = ReplicaState.PARKED
                                mark("replica_park", idx)
                            break
                        if not _leads(t, idx, runner_up):
                            break
                        clock = max(clock, t)
                finally:
                    _install_obs(prev)

        # -- finalize ---------------------------------------------------
        for req in pending:
            req.state = RequestState.REJECTED
            n_unroutable += 1
        pending.clear()
        if guard is not None:
            # after pending is settled so a pending clone's REJECTED
            # can be mirrored onto its withdrawn primary
            guard.finalize(clock)
        for r in self.replicas:
            if r.sim is not None:
                r.reports.append(r.sim.finish())
                # keep r.sim: post-run pool state feeds the chaos
                # harness's leak check
        reports = tuple(rep for r in self.replicas for rep in r.reports)
        makespan = max([clock] + [rep.summary.makespan_s
                                  for rep in reports])
        peak_active = max(peak_active,
                          sum(1 for r in self.replicas
                              if r.state is ReplicaState.ACTIVE))
        summary = self._summarize(
            reports, makespan, n_injected=len(seen_rids),
            n_failovers=n_failovers, n_deaths=n_deaths, n_ups=n_ups,
            n_downs=n_downs, n_unroutable=n_unroutable,
            peak_active=peak_active, guard=guard)
        if tracing:
            obs.tracer.complete("fleet_run", 0.0, makespan, track="fleet",
                                replicas=len(self.replicas),
                                router=self.router.name,
                                injected=summary.n_injected,
                                failovers=n_failovers)
        return FleetReport(
            summary=summary,
            replica_reports=reports,
            requests=tuple(requests),
            routed_counts=dict(self._routed_counts),
            events=tuple(events_log),
            config_name=self.config.name,
            router_name=self.router.name,
            hedges=(tuple(guard.hedge_records)
                    if guard is not None else ()))

    def _summarize(self, reports, makespan, *, n_injected, n_failovers,
                   n_deaths, n_ups, n_downs, n_unroutable,
                   peak_active, guard=None) -> FleetSummary:
        def total(attr):
            return sum(getattr(rep.summary, attr) for rep in reports)

        # a hedge loser that reached a terminal before its withdrawal
        # was counted by its replica, but the injected request it
        # duplicates is counted elsewhere — subtract it exactly once
        disc = guard.discounts if guard is not None else {}

        ttfts, tpots, e2es, queues = [], [], [], []
        for rep in reports:
            ttfts.extend(rep.metrics.ttfts)
            tpots.extend(rep.metrics.tpots)
            e2es.extend(rep.metrics.e2es)
            queues.extend(s[1] for s in rep.metrics.samples)
        generated = total("generated_tokens")
        goodput = total("goodput_tokens")
        return FleetSummary(
            n_slots=len(self.replicas),
            peak_active=peak_active,
            n_injected=n_injected,
            n_failovers=n_failovers,
            n_replica_deaths=n_deaths,
            n_scale_ups=n_ups,
            n_scale_downs=n_downs,
            n_unroutable=n_unroutable,
            n_finished=total("n_finished") - disc.get("finished", 0),
            n_rejected=total("n_rejected") - disc.get("rejected", 0),
            n_timed_out=total("n_timed_out") - disc.get("timed-out", 0),
            n_cancelled=total("n_cancelled") - disc.get("cancelled", 0),
            n_shed=total("n_shed") - disc.get("shed", 0),
            makespan_s=makespan,
            generated_tokens=generated,
            tokens_per_s=(generated / makespan if makespan > 0 else 0.0),
            goodput_tokens=goodput,
            goodput_tokens_per_s=(goodput / makespan if makespan > 0
                                  else 0.0),
            ttft_p50_s=percentile(ttfts, 50),
            ttft_p99_s=percentile(ttfts, 99),
            tpot_p50_s=percentile(tpots, 50),
            tpot_p99_s=percentile(tpots, 99),
            e2e_p50_s=percentile(e2es, 50),
            e2e_p99_s=percentile(e2es, 99),
            mean_queue_depth=(sum(queues) / len(queues)
                              if queues else 0.0),
            peak_kv_occupancy=max(
                (rep.summary.peak_kv_occupancy for rep in reports),
                default=0.0),
            n_sdc_detected=total("n_sdc_detected"),
            n_sdc_corrected=total("n_sdc_corrected"),
            n_sdc_recomputed=total("n_sdc_recomputed"),
            n_sdc_silent=total("n_sdc_silent"),
            n_hedges=guard.n_hedges if guard is not None else 0,
            n_hedge_wins=guard.n_hedge_wins if guard is not None else 0,
            n_guard_retries=(guard.n_guard_retries
                             if guard is not None else 0),
            n_breaker_opens=(guard.n_breaker_opens
                             if guard is not None else 0),
            retry_budget_spent=(guard.budget.spent
                                if guard is not None else 0))
