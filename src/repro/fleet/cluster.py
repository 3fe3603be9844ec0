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

with ties broken in exactly that order, then by replica id, and hands
it to the handler of its kind (a table indexed by that priority, over
one per-run state object).  A replica step runs ahead: the replica
keeps stepping while it would be picked again, i.e. until its next
wake-up no longer sorts below the runner-up event, which leaves the
dispatch order unchanged.  The loop is therefore a pure function of
(trace seed, fault seed, policies) — two runs are bit-identical,
including every failover and scale event.

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
        st = _FleetRun(self, trace, max_steps, keep_requests)
        while True:
            events = st.events()
            if not events:
                break
            t, prio, idx = events[0]
            st.clock = max(st.clock, t)
            if prio not in (_EV_SCALE, _EV_PROBE):
                st.stale_ticks = 0
            if _HANDLERS[prio](st, idx, events):
                break

        # -- finalize ---------------------------------------------------
        st.n_unroutable = len(st.pending)
        for req in st.pending:
            req.state = RequestState.REJECTED
        st.pending.clear()
        guard = st.guard
        if guard is not None:
            # after pending is settled so a pending clone's REJECTED
            # can be mirrored onto its withdrawn primary
            guard.finalize(st.clock)
        for r in self.replicas:
            if r.sim is not None:
                r.reports.append(r.sim.finish())
                # keep r.sim: post-run pool state feeds the chaos
                # harness's leak check
        reports = tuple(rep for r in self.replicas for rep in r.reports)
        makespan = max([st.clock] + [rep.summary.makespan_s
                                     for rep in reports])
        st.peak_active = max(st.peak_active, len(st.active()))
        summary = self._summarize(st, reports, makespan)
        if st.tracing:
            st.obs.tracer.complete("fleet_run", 0.0, makespan,
                                   track="fleet",
                                   replicas=len(self.replicas),
                                   router=self.router.name,
                                   injected=summary.n_injected,
                                   failovers=st.n_failovers)
        return FleetReport(
            summary=summary,
            replica_reports=reports,
            requests=tuple(st.requests),
            routed_counts=dict(st.routed_counts),
            events=tuple(st.events_log),
            config_name=self.config.name,
            router_name=self.router.name,
            hedges=(tuple(guard.hedge_records)
                    if guard is not None else ()))

    def _summarize(self, st, reports, makespan) -> FleetSummary:
        def total(attr):
            return sum(getattr(rep.summary, attr) for rep in reports)

        # a hedge loser that reached a terminal before its withdrawal
        # was counted by its replica, but the injected request it
        # duplicates is counted elsewhere — subtract it exactly once
        guard = st.guard
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
            peak_active=st.peak_active,
            n_injected=len(st.seen_rids),
            n_failovers=st.n_failovers,
            n_replica_deaths=st.n_deaths,
            n_scale_ups=st.n_ups,
            n_scale_downs=st.n_downs,
            n_unroutable=st.n_unroutable,
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


class _FleetRun:
    """Mutable state of one :meth:`FleetSimulator.run`, with one handler
    per event kind (:data:`_HANDLERS`, indexed by priority) and the
    hand-offs they share: pushing a request to a replica, and retiring
    a replica's incarnation."""

    def __init__(self, fleet, trace, max_steps, keep_requests):
        obs = fleet.obs if fleet.obs is not None else _obs()
        fleet._obs = self.obs = obs
        self.fleet = fleet
        self.mirror = obs.metrics.enabled
        self.tracing = obs.tracer.enabled
        fleet.router.reset()
        self.guard = fleet._defense = (
            FleetGuard(fleet.guard_policy, faults=fleet.faults, obs=obs)
            if fleet.guard_policy is not None else None)
        self.scaler = Autoscaler(fleet.autoscale_policy) \
            if fleet.autoscale_policy is not None else None
        self.replicas = fleet.replicas = [
            Replica(i, m, ReplicaState.ACTIVE
                    if i < fleet.initial_replicas else ReplicaState.PARKED)
            for i, m in enumerate(fleet.machines)]
        for r in self.replicas:
            if r.state is ReplicaState.ACTIVE:
                fleet._start_incarnation(r, max_steps)
        self.max_steps = max_steps
        self.keep_requests = keep_requests
        self.death_events = fleet.faults.death_events() \
            if fleet.faults is not None else []
        self.death_i = 0
        self.pending: deque = deque()   # arrivals with no routable replica
        self.requests: list = []        # unique injected (order of arrival)
        self.routed_counts = {r.id: 0 for r in self.replicas}
        self.events_log: list = []
        self.clock = 0.0
        self.last_arrival = -1.0
        self.seen_rids: set = set()
        self.n_failovers = self.n_deaths = self.n_ups = self.n_downs = 0
        self.n_unroutable = 0
        self.peak_active = fleet.initial_replicas
        self.next_tick = (self.scaler.policy.interval_s
                          if self.scaler is not None else None)
        self.next_probe = (self.guard.policy.health.probe_interval_s
                           if self.guard is not None else None)
        self.last_goodput = 0
        self.stale_ticks = 0            # consecutive no-op autoscale ticks
        self.busy = False               # a replica is warming or can step
        self.arrivals = iter(trace)
        self.nxt = self.pull()

    def events(self) -> list:
        """Every event that can come due next, in dispatch order
        ``(time, priority, replica id)``; empty once the run is over
        (no work left, or pending arrivals that can never route)."""
        events = []
        if self.death_i < len(self.death_events):
            t, kind, rep = self.death_events[self.death_i]
            events.append((t, _EV_DEATH if kind == 0 else _EV_REVIVE, rep))
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
        self.busy = busy
        if self.nxt is not None:
            events.append((self.nxt.arrival_s, _EV_ARRIVAL, -1))
        if not (busy or self.nxt is not None or self.pending):
            return []
        if self.scaler is not None and self.next_tick is not None:
            events.append((self.next_tick, _EV_SCALE, -1))
        if self.guard is not None and (busy or self.nxt is not None):
            # probe rounds only while the fleet has (or expects) work:
            # probes observe progress, they must not manufacture it —
            # pending-only states still terminate
            events.append((self.next_probe, _EV_PROBE, -1))
        events.sort()
        return events

    def pull(self):
        req = next(self.arrivals, None)
        if req is None:
            return None
        if req.arrival_s < 0 or req.arrival_s < self.last_arrival:
            raise ServeConfigError(
                f"request {req.rid}: arrivals must be "
                f"time-ordered and non-negative "
                f"(got {req.arrival_s!r} after {self.last_arrival!r})")
        if req.prompt_tokens <= 0 or req.max_new_tokens <= 0:
            raise ServeConfigError(
                f"request {req.rid} has non-positive token counts")
        if req.rid in self.seen_rids:
            raise ServeConfigError(
                f"duplicate request id {req.rid} in fleet trace")
        self.seen_rids.add(req.rid)
        self.last_arrival = req.arrival_s
        if self.keep_requests:
            self.requests.append(req)
        return req

    def active(self) -> list:
        return [r for r in self.replicas if r.state is ReplicaState.ACTIVE]

    def route(self, req, failover=False) -> None:
        candidates = self.active()
        guard = self.guard
        if not candidates:
            self.pending.append(req)
            if guard is not None:
                guard.on_pending(req)
            return
        if guard is not None:
            # routers see observed (probe-snapshot) views only,
            # breaker-filtered; the view maps back to its replica
            views = guard.route_candidates(candidates, self.clock)
            target = self.fleet.router.route(req, views, self.clock).replica
        else:
            target = self.fleet.router.route(req, candidates, self.clock)
        self.push(target, req, "failover" if failover else "routed")
        if guard is not None:
            guard.on_dispatch(req, target.id, self.clock)
        if failover:
            self.n_failovers += 1

    def push(self, target, req, event) -> None:
        """Hand *req* to replica *target* at the fleet clock, counted
        and mirrored as a *event* route (the guard's hedges and retry
        moves come through here too)."""
        target.sim.sync_clock(self.clock)
        target.sim.push(req)
        target.n_routed += 1
        self.routed_counts[target.id] += 1
        if self.mirror:
            self.obs.inc("fleet_requests", event=event,
                         replica=str(target.id))

    def retire(self, r, state, kind) -> None:
        """Close *r*'s incarnation, if it has one, into its reports and
        leave the slot in *state*, marked as a *kind* event."""
        if r.sim is not None:
            r.reports.append(r.sim.finish())
            r.sim = None
        r.state = state
        self.mark(kind, r.id)

    def start(self, r, kind) -> None:
        self.fleet._start_incarnation(r, self.max_steps, now_s=self.clock)
        self.mark(kind, r.id)
        while self.pending and self.active():
            self.route(self.pending.popleft())

    def mark(self, kind, replica_id) -> None:
        self.events_log.append((self.clock, kind, replica_id))
        if self.tracing:
            self.obs.tracer.instant(kind, track="fleet", ts=self.clock,
                                    replica=replica_id)

    # -- one handler per event kind; a true return ends the run ---------
    def death(self, idx, events) -> None:
        self.death_i += 1
        r = self.replicas[idx]
        if r.state is ReplicaState.DEAD:
            return
        sim = r.sim                         # None: parked or warming
        moved = sim.evacuate() if sim is not None else []
        self.n_deaths += 1
        self.retire(r, ReplicaState.DEAD, "replica_death")
        if sim is None:
            return
        if self.mirror:
            self.obs.inc("fleet_faults", kind="replica_death")
        if self.guard is not None:
            # uncommitted hedge clones die with the replica; everything
            # else fails over
            moved = self.guard.on_death_evacuated(idx, moved, self.clock)
        for req in moved:
            self.route(req, failover=True)

    def revive(self, idx, events) -> None:
        self.death_i += 1
        r = self.replicas[idx]
        if r.state is ReplicaState.DEAD:
            self.start(r, "replica_revive")

    def warm(self, idx, events) -> None:
        self.start(self.replicas[idx], "replica_warm")

    def probe(self, idx, events) -> None:
        self.next_probe = self.clock \
            + self.guard.policy.health.probe_interval_s
        self.guard.probe_tick(self.clock, self.replicas, self.push)

    def scale(self, idx, events) -> bool:
        p = self.scaler.policy
        self.next_tick = self.clock + p.interval_s
        active = [r for r in self.replicas
                  if r.state in (ReplicaState.ACTIVE, ReplicaState.WARMING)]
        queue = len(self.pending) + sum(
            r.queue_depth for r in self.replicas if r.sim is not None)
        goodput = sum(r.goodput_tokens for r in self.replicas)
        tps = (goodput - self.last_goodput) / p.interval_s
        self.last_goodput = goodput
        gauges = FleetGauges(now_s=self.clock, active_replicas=len(active),
                             queue_depth=queue, goodput_tps=tps)
        if self.mirror:
            self.obs.set_gauge("fleet_active_replicas", len(active))
            self.obs.set_gauge("fleet_queue_depth", queue)
            self.obs.set_gauge("fleet_goodput_tps", tps)
        decision = self.scaler.decide(gauges, len(self.replicas))
        acted = False
        if decision > 0:
            parked = [r for r in self.replicas
                      if r.state is ReplicaState.PARKED]
            if parked:
                r = parked[0]
                r.state = ReplicaState.WARMING
                r.available_s = self.clock + p.warmup_s
                self.n_ups += 1
                self.peak_active = max(self.peak_active, len(active) + 1)
                self.mark("scale_up", r.id)
                acted = True
        elif decision < 0:
            actives = self.active()
            if len(actives) > 1:
                r = actives[-1]
                r.state = ReplicaState.DRAINING
                self.n_downs += 1
                self.mark("scale_down", r.id)
                acted = True
                if r.sim.next_time() is None:
                    # already idle: park without waiting for an advance
                    # event that will never come
                    self.retire(r, ReplicaState.PARKED, "replica_park")
        if not acted and not self.busy and self.nxt is None \
                and self.death_i >= len(self.death_events):
            # nothing but ticks left and this one changed nothing; the
            # deterministic scaler sees identical gauges forever, so a
            # bounded streak decides it
            self.stale_ticks += 1
            return self.stale_ticks > p.up_after + p.down_after + 2
        self.stale_ticks = 0
        return False

    def arrival(self, idx, events) -> None:
        self.route(self.nxt)
        self.nxt = self.pull()
        while self.nxt is not None and self.nxt.arrival_s <= self.clock:
            self.route(self.nxt)
            self.nxt = self.pull()

    def advance(self, idx, events) -> None:
        # run ahead: step this replica while it stays earliest.  Nothing
        # else comes due before the runner-up meanwhile: other replicas
        # change only through the other handlers, and a hedge withdrawal
        # can only delay one
        runner_up = events[1] if len(events) > 1 else None
        r, guard = self.replicas[idx], self.guard
        prev = _install_obs(self.obs)
        try:
            while True:
                r.sim.advance()
                if guard is not None:
                    # settle any hedge race this step decided before any
                    # other replica moves
                    guard.after_advance(r, self.clock, self.replicas)
                t = r.sim.next_time()
                if t is None:
                    if r.state is ReplicaState.DRAINING:
                        self.retire(r, ReplicaState.PARKED, "replica_park")
                    break
                if not _leads(t, idx, runner_up):
                    break
                self.clock = max(self.clock, t)
        finally:
            _install_obs(prev)


#: the handler of each event kind, indexed by its ``_EV_*`` priority
_HANDLERS = (_FleetRun.death, _FleetRun.revive, _FleetRun.warm,
             _FleetRun.probe, _FleetRun.scale, _FleetRun.arrival,
             _FleetRun.advance)
