"""Router-side fleet defenses: breakers, hedges, retry budgets.

This is the layer between the router and the replicas that lets the
fleet survive *gray* failures — replicas that are slow, flaky, or
unreachable-but-alive — using only the observed signals of
:mod:`repro.fleet.health`.  Four mechanisms, all deterministic:

* **Circuit breakers** (one per replica slot): closed → open after
  ``trip_after`` consecutive bad probe intervals (probe lost, or the
  interval saw deadline timeouts), open → half-open after ``open_s``
  of cool-down, half-open → closed on a good interval or back → open
  on a bad one.  Open breakers take the replica out of the router's
  candidate set; half-open admits at most ``half_open_probes`` trial
  requests per interval.  Every transition is logged, and the chaos
  harness asserts only legal edges ever occur.
* **Hedged requests**: a routed request still waiting for its first
  token after a quantile-based delay (``multiplier`` × the observed
  TTFT ``quantile``, floored at ``min_delay_s``) is re-issued to a
  second replica as a *clone* (synthetic rid ``-rid-1``, same arrival
  time and absolute deadline, the same client-cancel fate).  First
  first-token wins: the loser is withdrawn through the engine's
  evacuation path, so exactly one side ever completes — the
  no-duplicate-completion invariant of
  :func:`~repro.resilience.chaos.check_fleet_invariants`.
* **Retry budget**: one fleet-wide token bucket gates every hedge and
  every guard-initiated move, so defenses cannot storm a struggling
  fleet (death failovers are *not* gated — conservation outranks
  politeness).
* **Deadline propagation**: deadlines are absolute, clones inherit
  them verbatim, and a hedge only fires with at least
  ``min_headroom_s`` of budget left — re-issues never resurrect work
  the SLO already lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..serve.metrics import percentile
from ..serve.request import Request, RequestState
from .health import HealthMonitor, HealthPolicy

__all__ = ["BreakerPolicy", "HedgePolicy", "RetryBudgetPolicy",
           "GuardPolicy", "CircuitBreaker", "RetryBudget", "HedgeRecord",
           "FleetGuard", "GUARD_PRESETS", "make_guard_policy"]

#: the only edges the breaker state machine may take
LEGAL_BREAKER_TRANSITIONS = frozenset([
    ("closed", "open"), ("open", "half_open"),
    ("half_open", "closed"), ("half_open", "open")])

_BREAKER_CODE = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-replica circuit breaker knobs."""

    #: consecutive bad probe intervals before the breaker opens
    trip_after: int = 3
    #: seconds an open breaker waits before trying half-open
    open_s: float = 3.0
    #: trial requests admitted per half-open interval
    half_open_probes: int = 1

    def __post_init__(self):
        if self.trip_after < 1:
            raise ValueError("trip_after must be >= 1")
        if self.open_s <= 0:
            raise ValueError("open_s must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass(frozen=True)
class HedgePolicy:
    """When to re-issue a stalled request to a second replica."""

    #: observed-TTFT percentile the delay is derived from
    quantile: float = 95.0
    #: delay = multiplier × that percentile
    multiplier: float = 1.5
    #: delay floor (don't hedge faster than this)
    min_delay_s: float = 0.25
    #: delay used before enough TTFT samples exist
    initial_delay_s: float = 2.0
    #: TTFT samples needed before the quantile takes over
    min_ttft_samples: int = 8
    #: ring buffer of recent TTFT samples the quantile is computed over
    window: int = 64
    #: a hedge only fires with at least this much deadline budget left
    min_headroom_s: float = 0.05

    def __post_init__(self):
        if not 0 < self.quantile <= 100:
            raise ValueError("quantile must be in (0, 100]")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class RetryBudgetPolicy:
    """Fleet-wide token bucket over hedges + guard retries."""

    #: bucket capacity (burst allowance)
    capacity: float = 20.0
    #: sustained tokens per simulated second
    refill_per_s: float = 2.0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.refill_per_s < 0:
            raise ValueError("refill_per_s must be >= 0")


@dataclass(frozen=True)
class GuardPolicy:
    """The full defense configuration Session.fleet(guard=...) takes."""

    health: HealthPolicy = field(default_factory=HealthPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: None disables hedging (breakers/suspicion still defend routing)
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    budget: RetryBudgetPolicy = field(default_factory=RetryBudgetPolicy)
    #: move first-token-less work off suspected/open replicas
    retry_on_suspect: bool = True


GUARD_PRESETS = {
    "default": GuardPolicy(),
    # hedge-only: detection still runs, but nothing is moved and the
    # breaker is effectively never tripped by a single bad interval
    "hedge_only": GuardPolicy(retry_on_suspect=False,
                              breaker=BreakerPolicy(trip_after=1000)),
    # paranoid: accuse fast, trip fast, hedge early
    "paranoid": GuardPolicy(
        health=HealthPolicy(probe_interval_s=0.25, phi_threshold=2.0),
        breaker=BreakerPolicy(trip_after=2, open_s=1.5),
        hedge=HedgePolicy(quantile=90.0, multiplier=1.2,
                          min_delay_s=0.1, initial_delay_s=1.0),
        budget=RetryBudgetPolicy(capacity=50.0, refill_per_s=5.0)),
}


def make_guard_policy(policy) -> GuardPolicy | None:
    """Resolve ``None`` | preset name | :class:`GuardPolicy`."""
    if policy is None:
        return None
    if isinstance(policy, GuardPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return GUARD_PRESETS[policy]
        except KeyError:
            raise ValueError(
                f"unknown guard preset {policy!r}; available: "
                f"{sorted(GUARD_PRESETS)}") from None
    raise TypeError(
        f"guard must be None, a preset name or a GuardPolicy, "
        f"got {policy!r}")


class CircuitBreaker:
    """One replica's breaker.  State changes happen only inside
    :meth:`on_interval` (called once per probe round), so the machine
    is a pure function of the probe/metric history; ``transitions``
    logs every ``(time, from, to)`` edge for the legality test."""

    def __init__(self, policy: BreakerPolicy, rid: int):
        self.policy = policy
        self.rid = rid
        self.state = "closed"
        self.transitions: list = []
        self._bad_streak = 0
        self._opened_at = 0.0
        self._trials = 0

    def _to(self, state: str, now_s: float) -> None:
        self.transitions.append((now_s, self.state, state))
        self.state = state
        if state == "open":
            self._opened_at = now_s
            self._bad_streak = 0
        self._trials = 0

    def on_interval(self, now_s: float, bad: bool, delivered: bool) -> None:
        """Evaluate one probe interval: *bad* means the probe was lost
        or the replica timed requests out this interval; *delivered*
        means the health signal actually arrived (a half-open breaker
        needs positive evidence, not just absence of bad news)."""
        if self.state == "closed":
            self._bad_streak = self._bad_streak + 1 if bad else 0
            if self._bad_streak >= self.policy.trip_after:
                self._to("open", now_s)
        elif self.state == "open":
            if now_s - self._opened_at >= self.policy.open_s:
                self._to("half_open", now_s)
        else:                                  # half_open
            if bad:
                self._to("open", now_s)
            elif delivered:
                self._to("closed", now_s)
            else:
                self._trials = 0               # new trial allowance

    def allow(self) -> bool:
        """May the router send (more) work to this replica right now?"""
        if self.state == "open":
            return False
        if self.state == "half_open":
            return self._trials < self.policy.half_open_probes
        return True

    def note_route(self) -> None:
        """A request was routed here (half-open trials are counted)."""
        if self.state == "half_open":
            self._trials += 1


class RetryBudget:
    """Deterministic token bucket; every defense pays one token."""

    def __init__(self, policy: RetryBudgetPolicy):
        self.policy = policy
        self.tokens = float(policy.capacity)
        self.spent = 0
        self._last = 0.0

    def _level(self, now_s: float) -> float:
        """Tokens the bucket holds at *now_s*, without refilling it:
        reading the level must not split the refills that decide a
        later ``tokens >= 1`` test."""
        if now_s > self._last:
            return min(self.policy.capacity,
                       self.tokens + (now_s - self._last)
                       * self.policy.refill_per_s)
        return self.tokens

    def _refill(self, now_s: float) -> None:
        if now_s > self._last:
            self.tokens = self._level(now_s)
            self._last = now_s

    def available(self, now_s: float) -> bool:
        self._refill(now_s)
        return self.tokens >= 1.0

    def try_spend(self, now_s: float) -> bool:
        self._refill(now_s)
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        self.spent += 1
        return True


@dataclass
class HedgeRecord:
    """One hedge, from fire to resolution (``FleetReport.hedges``)."""

    rid: int
    clone_rid: int
    hedged_at_s: float
    from_replica: int
    to_replica: int
    #: "primary" | "hedge" | "none" (neither side won the race)
    winner: str | None = None
    #: terminal/withdrawn fate of the clone once known
    clone_state: str | None = None
    #: True only if both sides were counted FINISHED — the invariant
    #: :func:`~repro.resilience.chaos.check_fleet_invariants` rejects
    duplicate: bool = False


class _HedgePair:
    __slots__ = ("primary", "clone", "record", "committed", "double")

    def __init__(self, primary, clone, record):
        self.primary = primary
        self.clone = clone
        self.record = record
        self.committed: str | None = None
        self.double = False


class FleetGuard:
    """The defense layer one fleet run instantiates.

    Owns the :class:`~repro.fleet.health.HealthMonitor`, one
    :class:`CircuitBreaker` per slot, the fleet-wide
    :class:`RetryBudget`, and all hedge bookkeeping.  The fleet loop
    calls :meth:`route_candidates` when routing, :meth:`probe_tick` on
    the probe cadence, :meth:`after_advance` after each replica step,
    :meth:`on_death_evacuated` at deaths and :meth:`finalize` at the
    end; every method is a pure function of simulated time and seeded
    state, so defended runs replay bit-identically."""

    def __init__(self, policy: GuardPolicy, faults=None, obs=None):
        self.policy = policy
        self.monitor = HealthMonitor(policy.health, faults=faults)
        self.breakers: dict = {}
        self.budget = RetryBudget(policy.budget)
        self.hedge_records: list = []
        self.discounts: dict = {}       # state.value -> double-counts
        self.n_hedges = 0
        self.n_hedge_wins = 0
        self.n_guard_retries = 0
        self._pairs: dict = {}          # primary rid -> _HedgePair
        self._by_replica: dict = {}     # replica id -> set of primary rids
        self._outstanding: dict = {}    # rid -> [req, replica_id, routed_at]
        self._hedged: set = set()       # rids that already hedged once
        self._ttfts: list = []          # observed TTFT ring buffer
        # rid -> (n_timed_out, n_finished, n_sdc) at the last probe
        self._prev: dict = {}
        self._obs = obs if obs is not None and obs.metrics.enabled \
            else None

    # -- lifecycle hooks the fleet loop calls ----------------------------
    def breaker_for(self, rid: int) -> CircuitBreaker:
        if rid not in self.breakers:
            self.breakers[rid] = CircuitBreaker(self.policy.breaker, rid)
        return self.breakers[rid]

    def activate(self, rid: int, now_s: float) -> None:
        """A fresh incarnation started on slot *rid*."""
        self.monitor.activate(rid, now_s)
        self._prev[rid] = (0, 0, 0)
        self.breaker_for(rid)

    def _allowed(self, rid: int, now_s: float) -> bool:
        return self.breaker_for(rid).allow() \
            and not self.monitor.suspected(rid, now_s)

    def route_candidates(self, candidates, now_s: float) -> list:
        """Observed views of the routable candidates, breaker-filtered.
        If every candidate is suspect the full set is used — a wrong
        route beats an unroutable fleet (availability over precision);
        the no-lost-request invariant never depends on detection."""
        allowed = [r for r in candidates if self._allowed(r.id, now_s)]
        return self.monitor.observed(allowed if allowed else candidates,
                                     now_s)

    def on_dispatch(self, req, rid: int, now_s: float) -> None:
        """A request was pushed to slot *rid* through the router."""
        self.breaker_for(rid).note_route()
        if req.hedge_of is not None:
            pair = self._pairs.get(req.hedge_of)
            if pair is not None:
                self._track_pair(pair, old=pair.record.to_replica)
                pair.record.to_replica = rid
            return
        if req.terminal:
            return
        self._outstanding[req.rid] = [req, rid, now_s]

    def on_pending(self, req) -> None:
        """Routing found no active replica; the request is buffered."""
        self._outstanding.pop(req.rid, None)

    # -- the probe cadence ----------------------------------------------
    def probe_tick(self, now_s: float, replicas, dispatch) -> None:
        """One probe round: probe every slot, evaluate breakers, emit
        observability, then fire hedges and guard retries.  *dispatch*
        is the fleet's ``(target_replica, request, kind)`` push hook."""
        from .cluster import ReplicaState
        obs = self._obs
        for r in replicas:
            delivered = self.monitor.probe(r.id, r, now_s)
            br = self.breaker_for(r.id)
            if r.state in (ReplicaState.ACTIVE, ReplicaState.DRAINING):
                bad = not delivered or self._interval_bad(r)
                opens = len(br.transitions)
                br.on_interval(now_s, bad, delivered)
                if obs is not None:
                    for _, _, to in br.transitions[opens:]:
                        if to == "open":
                            obs.inc("fleet_breaker_opens",
                                    replica=str(r.id))
            if obs is not None:
                obs.set_gauge("fleet_breaker_state",
                              _BREAKER_CODE[br.state], replica=str(r.id))
                obs.observe("fleet_suspicion",
                            self.monitor.phi(r.id, now_s),
                            replica=str(r.id))
        self._purge(now_s)
        if self.policy.hedge is not None:
            self._fire_hedges(now_s, replicas, dispatch)
        if self.policy.retry_on_suspect:
            self._guard_retries(now_s, replicas, dispatch)
        if obs is not None:
            obs.set_gauge("fleet_retry_budget_tokens",
                          self.budget._level(now_s))

    def _interval_bad(self, replica) -> bool:
        """Did this replica time out work — or surface silent data
        corruption (a "bad core") — since the last probe round?"""
        m = replica.sim.live_metrics if replica.sim is not None else None
        if m is None:
            return False
        sdc = m.n_sdc_detected + m.n_sdc_silent
        prev_to, prev_fin, prev_sdc = self._prev.get(
            replica.id, (0, 0, 0))
        self._prev[replica.id] = (m.n_timed_out, m.n_finished, sdc)
        return m.n_timed_out > prev_to or sdc > prev_sdc

    def _purge(self, now_s: float) -> None:
        """Retire tracked requests that got a first token (sampling
        their TTFT for the hedge quantile) or reached a terminal."""
        hp = self.policy.hedge
        window = hp.window if hp is not None else 64
        for rid in [k for k, (req, _, _) in self._outstanding.items()
                    if req.first_token_s is not None or req.terminal]:
            req, _, _ = self._outstanding.pop(rid)
            if req.first_token_s is not None:
                self._ttfts.append(req.first_token_s - req.arrival_s)
        if len(self._ttfts) > 2 * window:
            del self._ttfts[:-window]

    # -- hedging ---------------------------------------------------------
    def hedge_delay_s(self) -> float:
        hp = self.policy.hedge
        if len(self._ttfts) < hp.min_ttft_samples:
            return hp.initial_delay_s
        q = percentile(self._ttfts[-hp.window:], hp.quantile)
        return max(hp.min_delay_s, hp.multiplier * q)

    def _pick_target(self, replicas, now_s: float, exclude: int):
        """Least-suspect, least-loaded *observed* allowed replica."""
        from .cluster import ReplicaState
        cands = [r for r in replicas
                 if r.state is ReplicaState.ACTIVE and r.id != exclude
                 and self._allowed(r.id, now_s)]
        if not cands:
            return None
        views = self.monitor.observed(cands, now_s)
        best = min(views, key=lambda v: (v.suspicion, v.kv_load,
                                         v.in_flight, v.id))
        return best.replica

    def _fire_hedges(self, now_s: float, replicas, dispatch) -> None:
        hp = self.policy.hedge
        delay = self.hedge_delay_s()
        for rid in sorted(self._outstanding):
            req, at, routed_at = self._outstanding[rid]
            if (req.first_token_s is not None or req.terminal
                    or rid in self._hedged
                    or now_s - routed_at < delay
                    or req.remaining_s(now_s) < hp.min_headroom_s):
                continue
            if not self.budget.available(now_s):
                break
            target = self._pick_target(replicas, now_s, exclude=at)
            if target is None:
                continue
            self.budget.try_spend(now_s)
            clone = Request(
                rid=-req.rid - 1, arrival_s=req.arrival_s,
                prompt_tokens=req.prompt_tokens,
                max_new_tokens=req.max_new_tokens, priority=req.priority,
                prompt_hash=req.prompt_hash, deadline_s=req.deadline_s,
                cancel_s=req.cancel_s, hedge_of=req.rid)
            record = HedgeRecord(rid=req.rid, clone_rid=clone.rid,
                                 hedged_at_s=now_s, from_replica=at,
                                 to_replica=target.id)
            pair = _HedgePair(req, clone, record)
            self._pairs[req.rid] = pair
            self._hedged.add(req.rid)
            self._track_pair(pair)
            self.hedge_records.append(record)
            self.n_hedges += 1
            dispatch(target, clone, "hedge")
            self.breaker_for(target.id).note_route()
            if self._obs is not None:
                self._obs.inc("fleet_hedges", event="fired")

    def _track_pair(self, pair, old: int | None = None) -> None:
        rec = pair.record
        if old is not None:
            ids = self._by_replica.get(old)
            if ids is not None:
                ids.discard(rec.rid)
        for rid in (rec.from_replica, rec.to_replica):
            self._by_replica.setdefault(rid, set()).add(rec.rid)

    # -- guard retries (moves off sick replicas) -------------------------
    def _guard_retries(self, now_s: float, replicas, dispatch) -> None:
        for rid in sorted(self._outstanding):
            req, at, _ = self._outstanding[rid]
            if (req.first_token_s is not None or req.terminal
                    or rid in self._hedged or self._allowed(at, now_s)):
                continue
            if not self.budget.available(now_s):
                break
            target = self._pick_target(replicas, now_s, exclude=at)
            if target is None:
                continue
            src = replicas[at]
            if src.sim is None:
                self._outstanding.pop(rid, None)
                continue
            moved = src.sim.withdraw(rid)
            if moved is None:
                self._outstanding.pop(rid, None)
                continue
            self.budget.try_spend(now_s)
            self.n_guard_retries += 1
            dispatch(target, moved, "guard_retry")
            self.breaker_for(target.id).note_route()
            self._outstanding[rid] = [moved, target.id, now_s]
            if self._obs is not None:
                self._obs.inc("fleet_retries", kind="guard")

    # -- hedge reconciliation -------------------------------------------
    def after_advance(self, replica, now_s: float, replicas) -> None:
        """Reconcile every open hedge pair with a side on *replica* —
        called after each of its steps, so a first token or terminal
        is acted on before any other replica moves."""
        ids = self._by_replica.get(replica.id)
        if not ids:
            return
        for rid in sorted(ids):
            pair = self._pairs.get(rid)
            if pair is not None:
                self._reconcile(pair, now_s, replicas)

    def _withdraw(self, req, replicas):
        if req.replica is None:
            return None
        r = replicas[req.replica]
        if r.sim is None:
            return None
        return r.sim.withdraw(req.rid)

    def _discount(self, state: RequestState) -> None:
        key = state.value
        self.discounts[key] = self.discounts.get(key, 0) + 1

    def _close(self, pair) -> None:
        self._pairs.pop(pair.record.rid, None)
        for ids in self._by_replica.values():
            ids.discard(pair.record.rid)

    def _mirror(self, pair) -> None:
        """The clone's fate is the request's fate: copy it onto the
        (withdrawn) primary object so reports show one coherent story."""
        p, c, rec = pair.primary, pair.clone, pair.record
        if pair.double:
            # defensive: the primary was also counted terminally; undo
            # the clone's contribution so conservation still balances
            self._discount(c.state)
            rec.duplicate = (c.state is RequestState.FINISHED
                             and p.state is RequestState.FINISHED)
        p.state = c.state
        p.first_token_s = c.first_token_s
        p.finish_s = c.finish_s
        p.generated = c.generated
        p.token_times = list(c.token_times)
        p.replica = c.replica
        rec.winner = "hedge"
        rec.clone_state = c.state.value
        if c.state is RequestState.FINISHED:
            self.n_hedge_wins += 1
            if self._obs is not None:
                self._obs.inc("fleet_hedges", event="win_hedge")

    def _reconcile(self, pair, now_s: float, replicas) -> None:
        p, c, rec = pair.primary, pair.clone, pair.record
        if pair.committed == "hedge":
            if c.terminal:
                self._mirror(pair)
                self._close(pair)
            return
        if p.first_token_s is not None \
                or p.state is RequestState.FINISHED:
            # primary won the race: cancel the clone
            w = self._withdraw(c, replicas)
            rec.winner = "primary"
            if w is not None or not c.terminal:
                rec.clone_state = "withdrawn"
            else:
                rec.clone_state = c.state.value
                rec.duplicate = c.state is RequestState.FINISHED
                self._discount(c.state)
            self._close(pair)
            if self._obs is not None:
                self._obs.inc("fleet_hedges", event="win_primary")
        elif c.first_token_s is not None \
                or c.state is RequestState.FINISHED:
            # the hedge won: the primary is withdrawn and the clone's
            # terminal (whenever it lands) becomes the rid's outcome
            w = self._withdraw(p, replicas)
            if w is None and p.terminal:
                pair.double = True
            pair.committed = "hedge"
            self._outstanding.pop(p.rid, None)
            if c.terminal:
                self._mirror(pair)
                self._close(pair)
        elif p.terminal:
            # primary lost to its SLO/client, not to the race: the
            # clone can't resurrect it (deadlines are absolute) — drop
            w = self._withdraw(c, replicas)
            rec.winner = "none"
            if w is not None or not c.terminal:
                rec.clone_state = "withdrawn"
            else:
                rec.clone_state = c.state.value
                self._discount(c.state)
            self._close(pair)
        elif c.terminal:
            # clone died on arrival (rejected/timed out) — primary
            # races on alone; the clone's terminal must not be counted
            # twice against one injected request
            rec.winner = "none"
            rec.clone_state = c.state.value
            self._discount(c.state)
            self._close(pair)

    # -- death / finalize ------------------------------------------------
    def on_death_evacuated(self, rid: int, moved, now_s: float) -> list:
        """Filter a dead replica's evacuees: uncommitted clones are
        dropped (their primary races on), committed clones and
        primaries are re-routed as normal failovers."""
        out = []
        for req in moved:
            if req.hedge_of is not None:
                pair = self._pairs.get(req.hedge_of)
                if pair is None or pair.committed != "hedge":
                    if pair is not None:
                        pair.record.winner = "none"
                        pair.record.clone_state = "withdrawn"
                        self._close(pair)
                    continue
            out.append(req)
        return out

    def finalize(self, now_s: float) -> None:
        """Close any pair still open at the end of the run (e.g. a
        committed clone that ended REJECTED in the pending buffer)."""
        for rid in sorted(self._pairs):
            pair = self._pairs[rid]
            p, c, rec = pair.primary, pair.clone, pair.record
            if pair.committed == "hedge":
                if c.terminal:
                    self._mirror(pair)
                else:                      # defensive: clone vanished
                    p.state = RequestState.REJECTED
                    rec.winner = "hedge"
                    rec.clone_state = "lost"
            elif c.terminal:
                rec.winner = rec.winner or "none"
                rec.clone_state = c.state.value
                self._discount(c.state)
            else:
                rec.winner = rec.winner or "none"
                rec.clone_state = rec.clone_state or "withdrawn"
        self._pairs.clear()
        self._by_replica.clear()

    # -- summary hooks ---------------------------------------------------
    @property
    def n_breaker_opens(self) -> int:
        return sum(1 for br in self.breakers.values()
                   for _, _, to in br.transitions if to == "open")

    def transitions(self) -> list:
        """Every breaker edge, for the legality test."""
        return [(br.rid, t, a, b) for br in self.breakers.values()
                for t, a, b in br.transitions]
