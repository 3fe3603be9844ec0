"""Serving metrics: latency distributions, throughput, and pool telemetry.

Per-request latencies follow the serving-systems convention: **TTFT**
(arrival → first output token, includes queueing and prefill) and
**TPOT** (mean gap between subsequent output tokens).  Time-series
samples (queue depth, running batch size, KV occupancy/fragmentation)
are taken once per simulated step.  Everything is plain floats computed
deterministically, so two runs of the same seeded simulation produce
bit-identical summaries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .request import Request

__all__ = ["percentile", "ServeSummary", "ServeMetrics"]


def percentile(values, q: float) -> float:
    """Deterministic linear-interpolation percentile (q in [0, 100])."""
    if not values:
        return 0.0
    vals = sorted(values)
    if len(vals) == 1:
        return float(vals[0])
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return float(vals[lo] * (1.0 - frac) + vals[hi] * frac)


@dataclass(frozen=True)
class ServeSummary:
    """One simulation run, condensed."""

    n_finished: int
    n_rejected: int
    n_preemptions: int
    makespan_s: float
    generated_tokens: int
    tokens_per_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_p50_s: float
    tpot_p99_s: float
    e2e_p50_s: float
    e2e_p99_s: float
    mean_queue_depth: float
    mean_batch: float
    peak_kv_occupancy: float
    mean_kv_fragmentation: float
    # -- failure/recovery accounting (repro.resilience) ----------------
    n_submitted: int = 0
    n_timed_out: int = 0
    n_cancelled: int = 0
    n_shed: int = 0
    n_retries: int = 0
    n_degraded: int = 0
    n_step_failures: int = 0
    #: tokens of requests that finished within their deadline while the
    #: client was still there — the numerator of goodput
    goodput_tokens: int = 0
    goodput_tokens_per_s: float = 0.0
    # -- fleet accounting (repro.fleet) --------------------------------
    #: requests evacuated to another replica when this one died; they
    #: reach a terminal state elsewhere, so conservation per replica is
    #: ``n_terminal + n_failed_over == n_submitted``
    n_failed_over: int = 0
    # -- silent-data-corruption accounting (repro.resilience.sdc) ------
    n_sdc_detected: int = 0
    n_sdc_corrected: int = 0
    n_sdc_recomputed: int = 0
    #: corruption events that landed with no defense — tokens tainted
    n_sdc_silent: int = 0

    @property
    def n_terminal(self) -> int:
        """Requests in a terminal state — the request-conservation
        invariant demands this equals ``n_submitted`` (minus work that
        failed over to another replica)."""
        return (self.n_finished + self.n_rejected + self.n_timed_out
                + self.n_cancelled + self.n_shed)

    def slo_attainment(self, ttft_target_s: float,
                       tpot_target_s: float) -> bool:
        return (self.ttft_p99_s <= ttft_target_s
                and self.tpot_p99_s <= tpot_target_s)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ServeMetrics:
    """Accumulates per-request and per-step observations.

    ``obs`` is an :class:`~repro.obs.context.ObsContext`; when its
    metrics are enabled every ``on_*`` event is mirrored into labeled
    counters (``serve_requests{event=}``, ``recovery_actions{action=}``)
    and every :meth:`sample` into pressure gauges, so a
    :class:`~repro.Session` sees the serving funnel live.  The mirror is
    additive only — summaries stay bit-identical with obs off."""

    ttfts: list = field(default_factory=list)
    tpots: list = field(default_factory=list)
    e2es: list = field(default_factory=list)
    generated_tokens: int = 0
    n_finished: int = 0
    n_rejected: int = 0
    n_preemptions: int = 0
    n_submitted: int = 0
    n_timed_out: int = 0
    n_cancelled: int = 0
    n_shed: int = 0
    n_retries: int = 0
    n_degraded: int = 0
    n_step_failures: int = 0
    n_failed_over: int = 0
    n_sdc_detected: int = 0
    n_sdc_corrected: int = 0
    n_sdc_recomputed: int = 0
    n_sdc_silent: int = 0
    goodput_tokens: int = 0
    #: (time_s, queue_depth, batch_size, kv_occupancy, kv_fragmentation)
    samples: list = field(default_factory=list)
    #: observability context the events mirror into (None = no mirror)
    obs: object = field(default=None, repr=False, compare=False)
    #: simulated clock (kept current by the server loop) so mirrored
    #: trace events carry simulation time, not wall time
    now_s: float = field(default=0.0, repr=False, compare=False)
    #: fleet replica label stamped on every mirrored counter/gauge
    #: (None: single-node run, labels unchanged)
    replica: str | None = field(default=None, repr=False, compare=False)
    #: prefix for per-request trace tracks ("r3 " inside a fleet)
    track_prefix: str = field(default="", repr=False, compare=False)

    def _labels(self, **labels) -> dict:
        if self.replica is not None:
            labels["replica"] = self.replica
        return labels

    def _event(self, event: str) -> None:
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("serve_requests", **self._labels(event=event))

    def _recovery(self, action: str) -> None:
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("recovery_actions", **self._labels(action=action))

    def on_finish(self, req: Request) -> None:
        self.n_finished += 1
        self.generated_tokens += req.generated
        self._event("finished")
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("serve_tokens", req.generated, **self._labels())
        # goodput: only work the SLO and the client both still want
        slo_ok = req.deadline_s is None or req.finish_s <= req.deadline_s
        client_ok = req.cancel_s is None or req.finish_s <= req.cancel_s
        if slo_ok and client_ok:
            self.goodput_tokens += req.generated
        ttft = req.ttft_s()
        if ttft is not None:
            self.ttfts.append(ttft)
        tpot = req.tpot_s()
        if tpot is not None:
            self.tpots.append(tpot)
        self.e2es.append(req.finish_s - req.arrival_s)

    def on_reject(self, req: Request) -> None:
        self.n_rejected += 1
        self._event("rejected")

    def on_preempt(self, req: Request) -> None:
        self.n_preemptions += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("serve_preemptions", **self._labels())
            self.obs.tracer.instant(
                "preempt", track=f"{self.track_prefix}req {req.rid}",
                ts=self.now_s, preemptions=req.preemptions)

    def on_timeout(self, req: Request) -> None:
        self.n_timed_out += 1
        self._event("timed_out")
        self._recovery("timeout")

    def on_cancel(self, req: Request) -> None:
        self.n_cancelled += 1
        self._event("cancelled")
        self._recovery("cancel")

    def on_shed(self, req: Request) -> None:
        self.n_shed += 1
        self._event("shed")
        self._recovery("shed")

    def on_retry(self, req: Request) -> None:
        self.n_retries += 1
        self._recovery("retry")

    def on_degrade(self, req: Request) -> None:
        self.n_degraded += 1
        self._recovery("degrade")

    def on_step_failure(self) -> None:
        self.n_step_failures += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("fault_injections",
                         **self._labels(kind="step_failure"))

    def _sdc(self, outcome: str) -> None:
        if self.obs is not None and self.obs.enabled:
            self.obs.inc("sdc_events",
                         **self._labels(kernel="serve", outcome=outcome))

    def on_sdc_detected(self) -> None:
        self.n_sdc_detected += 1
        self._sdc("detected")

    def on_sdc_corrected(self) -> None:
        self.n_sdc_corrected += 1
        self._sdc("corrected")
        self._recovery("sdc_correct")

    def on_sdc_recomputed(self) -> None:
        self.n_sdc_recomputed += 1
        self._sdc("recomputed")
        self._recovery("sdc_recompute")

    def on_sdc_silent(self) -> None:
        """Corruption landed with no ABFT defense: tokens are tainted."""
        self.n_sdc_silent += 1
        self._sdc("silent")

    def on_failover(self, req: Request) -> None:
        """Request evacuated off a dying replica (terminal elsewhere)."""
        self.n_failed_over += 1
        self._event("failed_over")
        self._recovery("failover")

    def on_withdraw(self, req: Request) -> None:
        """Request pulled back by the fleet guard (hedge loser, or a
        retry off a suspected replica).  Counted like a failover so the
        per-replica conservation ``n_terminal + n_failed_over ==
        n_submitted`` still holds — the request's fate is decided on
        another replica (or already was, by the hedge winner)."""
        self.n_failed_over += 1
        self._event("withdrawn")
        self._recovery("withdraw")

    def set_gauge(self, name: str, value: float) -> None:
        """Mirror one more per-step gauge under this run's labels."""
        if self.obs is not None and self.obs.enabled:
            self.obs.set_gauge(name, value, **self._labels())

    def sample(self, now_s: float, queue_depth: int, batch_size: int,
               kv_occupancy: float, kv_fragmentation: float) -> None:
        self.samples.append((now_s, queue_depth, batch_size,
                             kv_occupancy, kv_fragmentation))
        if self.obs is not None and self.obs.enabled:
            labels = self._labels()
            self.obs.set_gauge("serve_queue_depth", queue_depth, **labels)
            self.obs.set_gauge("serve_batch_size", batch_size, **labels)
            self.obs.set_gauge("kv_occupancy", kv_occupancy, **labels)
            self.obs.set_gauge("kv_fragmentation", kv_fragmentation,
                               **labels)

    def summary(self, makespan_s: float) -> ServeSummary:
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
        return ServeSummary(
            n_finished=self.n_finished,
            n_rejected=self.n_rejected,
            n_preemptions=self.n_preemptions,
            makespan_s=makespan_s,
            generated_tokens=self.generated_tokens,
            tokens_per_s=(self.generated_tokens / makespan_s
                          if makespan_s > 0 else 0.0),
            ttft_p50_s=percentile(self.ttfts, 50),
            ttft_p99_s=percentile(self.ttfts, 99),
            tpot_p50_s=percentile(self.tpots, 50),
            tpot_p99_s=percentile(self.tpots, 99),
            e2e_p50_s=percentile(self.e2es, 50),
            e2e_p99_s=percentile(self.e2es, 99),
            mean_queue_depth=mean([s[1] for s in self.samples]),
            mean_batch=mean([s[2] for s in self.samples]),
            peak_kv_occupancy=max((s[3] for s in self.samples),
                                  default=0.0),
            mean_kv_fragmentation=mean([s[4] for s in self.samples]),
            n_submitted=self.n_submitted,
            n_timed_out=self.n_timed_out,
            n_cancelled=self.n_cancelled,
            n_shed=self.n_shed,
            n_retries=self.n_retries,
            n_degraded=self.n_degraded,
            n_step_failures=self.n_step_failures,
            n_failed_over=self.n_failed_over,
            n_sdc_detected=self.n_sdc_detected,
            n_sdc_corrected=self.n_sdc_corrected,
            n_sdc_recomputed=self.n_sdc_recomputed,
            n_sdc_silent=self.n_sdc_silent,
            goodput_tokens=self.goodput_tokens,
            goodput_tokens_per_s=(self.goodput_tokens / makespan_s
                                  if makespan_s > 0 else 0.0),
        )
