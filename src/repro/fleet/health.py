"""Observed replica health: deterministic phi-accrual failure detection.

PR 6's fleet loop is omniscient — routers read true ``queue_depth`` /
``kv_load`` and the cluster sees a death the instant it happens.  Real
fleets act on *observed* signals that lag and lie.  This module is the
observation layer: a :class:`HealthMonitor` probes every replica on a
fixed simulated-time cadence, and everything downstream (routing,
circuit breakers, hedging in :mod:`repro.fleet.guard`) consumes only
what the probes saw.

* **Probes** succeed when the replica is up *and* its health signal got
  through: a ``partition`` gray fault (replica serves fine, probes are
  dropped) or a seeded ``p_probe_loss`` coin
  (:meth:`~repro.resilience.faults.FleetFaultPlan.probe_dropped`,
  counter-keyed on the probe index like every other fault decision)
  makes a healthy replica look sick — exactly the gray-failure shape.
* **Suspicion** is phi-accrual style (Hayashibara et al.): with
  successful-probe gaps modelled exponential with observed mean ``m``,
  ``phi(t) = -log10 P(gap > t) = t / (m ln 10)`` where ``t`` is the
  time since the last successful probe.  ``phi >= phi_threshold``
  (default 3.0: the silence had probability < 1e-3) marks the replica
  *suspected*.  No wall clock, no randomness outside the seeded drop
  coin — two runs replay identical suspicion trajectories.
* **Observed views** — :class:`ObservedReplica` snapshots of
  ``kv_load`` / ``queue_depth`` / ``in_flight`` taken at the last
  successful probe — are what routers get instead of live replicas, so
  routing decisions are functions of stale-but-honest data.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = ["HealthPolicy", "ObservedReplica", "HealthMonitor"]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the failure detector."""

    #: simulated seconds between probe rounds (every replica is probed
    #: each round; this is also the breaker/hedge evaluation cadence)
    probe_interval_s: float = 0.5
    #: successful-probe gaps kept for the running mean
    window: int = 32
    #: suspicion level that marks a replica suspected (3.0: silence
    #: with observed-model probability < 1e-3)
    phi_threshold: float = 3.0
    #: successful probes required before phi can accuse (a fresh
    #: incarnation is innocent until it has a gap history)
    min_samples: int = 2

    def __post_init__(self):
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")


class ObservedReplica:
    """What the router is allowed to see: the load signals captured at
    the replica's last *successful* probe, plus its current suspicion.
    Attribute-compatible with :class:`~repro.fleet.cluster.Replica` for
    every signal the stock routers read (``id``, ``kv_load``,
    ``queue_depth``, ``in_flight``), so any router runs unchanged on
    observed data; ``replica`` points back at the live object the fleet
    loop dispatches to."""

    __slots__ = ("id", "kv_load", "queue_depth", "in_flight", "suspicion",
                 "replica")

    def __init__(self, rid, kv_load, queue_depth, in_flight, suspicion,
                 replica):
        self.id = rid
        self.kv_load = kv_load
        self.queue_depth = queue_depth
        self.in_flight = in_flight
        self.suspicion = suspicion
        self.replica = replica

    def __repr__(self):
        return (f"ObservedReplica(id={self.id}, kv_load={self.kv_load:.3f},"
                f" queue={self.queue_depth}, in_flight={self.in_flight},"
                f" phi={self.suspicion:.2f})")


class HealthMonitor:
    """Deterministic phi-accrual failure detector over probe rounds.

    The fleet loop calls :meth:`probe` for every replica once per
    probe round; ``faults`` (a
    :class:`~repro.resilience.faults.FleetFaultPlan`) decides — from
    its seed and the per-replica probe counter — whether the probe is
    partitioned or dropped.  :meth:`activate` resets a replica's
    history when a fresh incarnation starts (revive / scale-up), so an
    old incarnation's silence cannot convict the new one."""

    def __init__(self, policy: HealthPolicy | None = None, faults=None):
        self.policy = policy if policy is not None else HealthPolicy()
        self.faults = faults
        self._last_ok: dict = {}     # rid -> time of last delivered probe
        self._gaps: dict = {}        # rid -> deque of delivered-probe gaps
        self._probe_i: dict = {}     # rid -> probes issued (fault counter)
        self._snap: dict = {}        # rid -> (kv_load, queue, in_flight)

    def activate(self, rid: int, now_s: float) -> None:
        """Fresh incarnation: wipe history, treat *now_s* as heard-from."""
        self._last_ok[rid] = now_s
        self._gaps[rid] = deque(maxlen=self.policy.window)
        self._snap[rid] = (0.0, 0, 0)
        # the probe counter survives incarnations on purpose: the
        # seeded drop decision for probe k must not replay for a new
        # incarnation's probe k
        self._probe_i.setdefault(rid, 0)

    def probe(self, rid: int, replica, now_s: float) -> bool:
        """One probe round for *rid*: returns whether the health signal
        was delivered.  ``replica`` is the live fleet replica (or
        ``None`` for a slot with no incarnation — probe always lost)."""
        i = self._probe_i.get(rid, 0)
        self._probe_i[rid] = i + 1
        up = replica is not None and getattr(replica, "sim", None) is not None
        if up and self.faults is not None:
            if self.faults.partitioned(rid, now_s) \
                    or self.faults.probe_dropped(rid, i):
                up = False
        if not up:
            return False
        return self.record(rid, now_s,
                           kv_load=replica.kv_load,
                           queue_depth=replica.queue_depth,
                           in_flight=replica.in_flight)

    def record(self, rid: int, now_s: float, kv_load: float = 0.0,
               queue_depth: int = 0, in_flight: int = 0) -> bool:
        """Feed one delivered health sample directly (tests use this)."""
        if rid not in self._last_ok:
            self.activate(rid, now_s)
        else:
            gap = now_s - self._last_ok[rid]
            if gap > 0:
                self._gaps[rid].append(gap)
            self._last_ok[rid] = now_s
        self._snap[rid] = (kv_load, queue_depth, in_flight)
        return True

    # -- suspicion -------------------------------------------------------
    def phi(self, rid: int, now_s: float) -> float:
        """Current suspicion level of *rid* (0.0 = just heard from)."""
        last = self._last_ok.get(rid)
        if last is None:
            return 0.0
        gaps = self._gaps.get(rid, ())
        if len(gaps) < self.policy.min_samples:
            # not enough history to accuse; fall back to the probe
            # cadence as the expected gap
            mean = self.policy.probe_interval_s
            if now_s - last <= mean * self.policy.min_samples:
                return 0.0
        else:
            mean = sum(gaps) / len(gaps)
        if mean <= 0:
            mean = self.policy.probe_interval_s
        return max(0.0, (now_s - last) / (mean * _LN10))

    def suspected(self, rid: int, now_s: float) -> bool:
        return self.phi(rid, now_s) >= self.policy.phi_threshold

    # -- observed views --------------------------------------------------
    def observed(self, replicas, now_s: float) -> list:
        """Probe-snapshot views of *replicas* (router candidates)."""
        out = []
        for r in replicas:
            kv, q, inf = self._snap.get(r.id, (0.0, 0, 0))
            out.append(ObservedReplica(r.id, kv, q, inf,
                                       self.phi(r.id, now_s), r))
        return out

    def n_probes(self, rid: int) -> int:
        return self._probe_i.get(rid, 0)
