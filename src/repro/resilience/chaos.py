"""Chaos harness: sweep seeded fault plans, assert recovery invariants.

A chaos *trial* runs one simulator under one fault plan and checks the
invariants every correct run must satisfy regardless of what the plan
injected:

* **request conservation** — every submitted request ends in exactly one
  terminal state (finished / rejected / timed-out / cancelled / shed);
* **KV-pool leak freedom** — after the run the pool holds zero blocks
  and tracks zero requests;
* **token causality** — emission timestamps are monotone and match the
  generated count for finished requests;
* **no unhandled exceptions** — a `ParlooperError` escaping the run is
  itself a finding (the typed snapshot is kept for diagnosis).

Because plans and policies are pure functions of their seeds, a red
trial is reproduced by its `(traffic seed, fault seed)` pair alone —
the chaos sweep is a property-based test with replayable counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ParlooperError, ServeError
from ..obs.context import current as _obs

__all__ = ["ChaosOutcome", "check_invariants", "chaos_trial",
           "chaos_sweep", "check_fleet_invariants", "fleet_chaos_trial"]


@dataclass(frozen=True)
class ChaosOutcome:
    """One trial's verdict."""

    seed: int
    ok: bool
    violations: tuple
    #: summary of the completed run, None if it raised
    summary: object = None
    #: snapshot carried by a typed ServeError, if one escaped
    snapshot: dict | None = None


def check_invariants(sim, report) -> list:
    """Invariant violations of a completed run (empty list == healthy)."""
    errs = []
    s = report.summary
    if s.n_terminal != s.n_submitted:
        errs.append(
            f"request conservation violated: {s.n_terminal} terminal "
            f"(finished {s.n_finished} + rejected {s.n_rejected} + "
            f"timed-out {s.n_timed_out} + cancelled {s.n_cancelled} + "
            f"shed {s.n_shed}) != {s.n_submitted} submitted")
    stats = sim.pool.stats()
    if stats.used_blocks != 0 or sim.pool.holders():
        errs.append(
            f"kv pool leak: {stats.used_blocks} blocks still held by "
            f"rids {sim.pool.holders()[:8]} after the run drained")
    for r in report.requests:
        if r.token_times != sorted(r.token_times):
            errs.append(f"request {r.rid}: token timestamps not monotone")
        if r.finish_s is not None and r.token_times \
                and r.finish_s != r.token_times[-1]:
            errs.append(f"request {r.rid}: finish_s disagrees with its "
                        f"last token timestamp")
    errs.extend(_check_taint(sim.resilience is not None,
                             report.requests, report.summary))
    return errs


def _check_taint(defended: bool, requests, summary) -> list:
    """SDC invariant: with the ABFT defense on, no corrupted token may
    reach a terminal response — every injected event is detected and
    either corrected or recomputed, so nothing is ever tainted."""
    errs = []
    if defended:
        for r in requests:
            if r.tainted:
                errs.append(
                    f"request {r.rid}: tainted tokens under SDC defense "
                    f"(state {r.state.value})")
        if summary.n_sdc_silent:
            errs.append(
                f"{summary.n_sdc_silent} silent SDC events under "
                f"defense: every event must be detected")
        if summary.n_sdc_detected != (summary.n_sdc_corrected
                                      + summary.n_sdc_recomputed):
            errs.append(
                f"sdc accounting broken: {summary.n_sdc_detected} "
                f"detected != {summary.n_sdc_corrected} corrected + "
                f"{summary.n_sdc_recomputed} recomputed")
    return errs


def _trial(span: str, seed: int, run, check) -> ChaosOutcome:
    """Run ``run()`` inside a *span* and judge its report with
    ``check(report)``.  Never raises for simulator failures — a typed
    error becomes a violation with its snapshot attached."""
    obs = _obs()
    with obs.span(span, seed=seed):
        try:
            report = run()
        except ParlooperError as exc:
            outcome = ChaosOutcome(
                seed=seed, ok=False,
                violations=(f"unhandled {type(exc).__name__}: {exc}",),
                snapshot=(exc.snapshot if isinstance(exc, ServeError)
                          else None))
        else:
            violations = check(report)
            outcome = ChaosOutcome(seed=seed, ok=not violations,
                                   violations=tuple(violations),
                                   summary=report.summary)
    if obs.enabled:
        obs.inc("chaos_trials", verdict="ok" if outcome.ok else
                ("error" if outcome.summary is None else "violation"))
    return outcome


def chaos_trial(sim, requests, seed: int = 0) -> ChaosOutcome:
    """Run *sim* over *requests* and judge it. Never raises for
    simulator failures — a typed error becomes a violation with its
    snapshot attached."""
    return _trial("chaos_trial", seed, lambda: sim.run(requests),
                  lambda report: check_invariants(sim, report))


def check_fleet_invariants(fleet, report) -> list:
    """Invariant violations of a completed fleet run.

    On top of the single-node invariants (token causality, per-replica
    pool leak freedom) a fleet must conserve requests *across
    failover*: every injected request reaches exactly one terminal
    state somewhere, and every replica accounts for all work it was
    routed (``n_terminal + n_failed_over == n_submitted``).

    A *defended* fleet (``guard=`` set) is audited further:

    * **no duplicate completion** — no hedge pair may count both its
      primary and its clone as FINISHED;
    * **retries bounded by budget** — hedges + guard retries equal the
      tokens spent, and spending never exceeds what the token bucket
      could have issued over the makespan;
    * **breaker legality** — every logged breaker edge is one of
      closed→open, open→half-open, half-open→closed, half-open→open;
    * **no tainted terminals** — with the SDC defense on (resilience
      set), no request carrying silently corrupted tokens may reach a
      terminal state anywhere in the fleet."""
    errs = []
    s = report.summary
    if s.n_terminal != s.n_injected:
        errs.append(
            f"fleet request conservation violated: {s.n_terminal} "
            f"terminal != {s.n_injected} injected (failovers "
            f"{s.n_failovers}, unroutable {s.n_unroutable})")
    for rep in report.replica_reports:
        rs = rep.summary
        if rs.n_terminal + rs.n_failed_over != rs.n_submitted:
            errs.append(
                f"replica {rep.replica_id}: {rs.n_terminal} terminal + "
                f"{rs.n_failed_over} failed-over != {rs.n_submitted} "
                f"submitted")
    for r in fleet.replicas:
        if r.sim is None:
            continue
        stats = r.sim.pool.stats()
        if stats.used_blocks != 0 or r.sim.pool.holders():
            errs.append(
                f"replica {r.id}: kv pool leak, {stats.used_blocks} "
                f"blocks held by rids {r.sim.pool.holders()[:8]}")
    seen = set()
    for req in report.requests:
        if req.rid in seen:
            errs.append(f"request {req.rid} injected twice")
        seen.add(req.rid)
        if not req.terminal:
            errs.append(f"request {req.rid} ended non-terminal "
                        f"({req.state.value}) on replica {req.replica}")
        if req.token_times != sorted(req.token_times):
            errs.append(f"request {req.rid}: token timestamps not "
                        f"monotone across failover")
        if req.finish_s is not None and req.token_times \
                and req.finish_s < req.token_times[-1]:
            errs.append(f"request {req.rid}: finish_s precedes its last "
                        f"token timestamp")
    errs.extend(_check_taint(fleet.resilience is not None,
                             report.requests, report.summary))

    # -- defense-layer invariants (guarded fleets only) ----------------
    guard = getattr(fleet, "_defense", None)
    for rec in getattr(report, "hedges", ()):
        if rec.duplicate:
            errs.append(
                f"duplicate completion: request {rec.rid} finished on "
                f"replica {rec.from_replica} and its hedge clone "
                f"{rec.clone_rid} on replica {rec.to_replica}")
        if rec.winner is None or rec.clone_state is None:
            errs.append(
                f"hedge of request {rec.rid} never resolved "
                f"(winner={rec.winner!r}, clone={rec.clone_state!r})")
    if guard is not None:
        spent = guard.budget.spent
        if spent != s.n_hedges + s.n_guard_retries:
            errs.append(
                f"retry budget accounting broken: {spent} tokens spent "
                f"!= {s.n_hedges} hedges + {s.n_guard_retries} guard "
                f"retries")
        bp = guard.budget.policy
        ceiling = bp.capacity + bp.refill_per_s * s.makespan_s
        if spent > ceiling + 1e-9:
            errs.append(
                f"retry budget exceeded: {spent} tokens spent > "
                f"{ceiling:.1f} issuable (capacity {bp.capacity}, "
                f"refill {bp.refill_per_s}/s over {s.makespan_s:.1f} s)")
        from ..fleet.guard import LEGAL_BREAKER_TRANSITIONS
        for rid, t, frm, to in guard.transitions():
            if (frm, to) not in LEGAL_BREAKER_TRANSITIONS:
                errs.append(
                    f"illegal breaker transition on replica {rid}: "
                    f"{frm} -> {to} at t={t:.3f}")
    return errs


def fleet_chaos_trial(fleet, trace, seed: int = 0) -> ChaosOutcome:
    """Run *fleet* over *trace* and judge it — the fleet-level analogue
    of :func:`chaos_trial` (typed errors become violations)."""
    return _trial("fleet_chaos_trial", seed, lambda: fleet.run(trace),
                  lambda report: check_fleet_invariants(fleet, report))


def chaos_sweep(make_trial, seeds) -> list:
    """Run ``make_trial(seed) -> (sim, requests)`` for every seed.

    Returns one :class:`ChaosOutcome` per seed; the caller asserts
    ``all(o.ok for o in outcomes)`` and prints the violations of any
    red seed (which alone reproduces the failure)."""
    outcomes = []
    for seed in seeds:
        sim, requests = make_trial(seed)
        outcomes.append(chaos_trial(sim, requests, seed=seed))
    return outcomes
