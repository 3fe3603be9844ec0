"""Serving requests and the synthetic traffic that generates them.

A :class:`Request` is one user's generation job: a prompt of
``prompt_tokens`` positions and up to ``max_new_tokens`` of output.  The
:class:`TrafficGenerator` produces a seeded, reproducible open-loop
arrival process (Poisson arrivals, long-tailed prompt lengths, geometric
output lengths) so two simulation runs with the same seed see the exact
same traffic — the determinism contract the whole `repro.serve`
subsystem is built on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RequestState", "Request", "TrafficGenerator"]


class RequestState(enum.Enum):
    QUEUED = "queued"        # admitted, waiting for first prefill chunk
    PREFILL = "prefill"      # prompt (re)processing in flight
    DECODE = "decode"        # auto-regressive generation
    PREEMPTED = "preempted"  # KV evicted; must re-prefill when rescheduled
    FINISHED = "finished"
    REJECTED = "rejected"    # refused at admission (SLO protection)
    TIMED_OUT = "timed-out"  # deadline passed; work cancelled
    CANCELLED = "cancelled"  # client hung up (fault-injected)
    SHED = "shed"            # dropped by overload/watchdog recovery


@dataclass(eq=False)
class Request:
    """One generation request plus its runtime bookkeeping.

    Identity semantics (``eq=False``): the server tracks requests by
    object, and two distinct requests never compare equal."""

    rid: int
    arrival_s: float
    prompt_tokens: int
    max_new_tokens: int
    #: smaller is more important; ties broken by arrival order
    priority: int = 0
    #: stable hash of the prompt prefix (None: no shared prefix) — what
    #: prefix-affinity routing keys on so same-prefix requests land on
    #: the replica whose KV cache already holds their prefix
    prompt_hash: int | None = None

    state: RequestState = RequestState.QUEUED
    #: KV positions currently materialised in the pool (chunked prefill
    #: grows this in pieces; preemption resets it to zero)
    cached: int = 0
    #: output tokens emitted so far
    generated: int = 0
    first_token_s: float | None = None
    finish_s: float | None = None
    #: times this request lost its KV blocks to a preemption
    preemptions: int = 0
    #: per-output-token emission timestamps (drives TPOT accounting)
    token_times: list = field(default_factory=list)
    #: absolute end-to-end deadline; tokens finished later count zero
    #: toward goodput, and the hardened server timeout-cancels at it
    deadline_s: float | None = None
    #: absolute time the client gives up (fault-injected); work finished
    #: later is wasted even if the server never notices
    cancel_s: float | None = None
    #: admission retries consumed so far (exponential backoff)
    attempts: int = 0
    #: True once degraded mode clamped this request's output budget
    degraded: bool = False
    #: fleet replica currently serving this request (stamped at routing)
    replica: int | None = None
    #: times this request was evacuated off a dying replica
    failovers: int = 0
    #: rid of the primary this request is a hedge clone of (None: not a
    #: hedge).  Clones carry the primary's absolute deadline/cancel
    #: times so the remaining budget propagates across the re-issue.
    hedge_of: int | None = None
    #: True once an undefended silent-data-corruption event touched this
    #: request's tokens — the chaos invariant demands no tainted request
    #: reaches a terminal FINISHED state when SDC defense is on
    tainted: bool = False

    @property
    def total_tokens(self) -> int:
        """KV footprint of this request when fully generated."""
        return self.prompt_tokens + self.max_new_tokens

    @property
    def done(self) -> bool:
        return self.generated >= self.max_new_tokens

    @property
    def terminal(self) -> bool:
        """No further server action will touch this request."""
        return self.state in (RequestState.FINISHED, RequestState.REJECTED,
                              RequestState.TIMED_OUT,
                              RequestState.CANCELLED, RequestState.SHED)

    @property
    def prefill_target(self) -> int:
        """Positions that must be cached before decode can (re)start:
        the prompt, plus all-but-the-last generated token after a
        preemption (the last one is consumed by the next decode step)."""
        return self.prompt_tokens + max(0, self.generated - 1)

    @property
    def prefill_remaining(self) -> int:
        return max(0, self.prefill_target - self.cached)

    @property
    def decode_ready(self) -> bool:
        # prefill_remaining == 0, spelled out: the batcher asks this of
        # every running request on every step
        return self.generated >= 1 \
            and self.cached >= self.prompt_tokens + self.generated - 1

    def ttft_s(self) -> float | None:
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    def remaining_s(self, now_s: float) -> float:
        """Deadline budget left at *now_s*.  Deadlines are absolute, so
        the budget shrinks across re-routes and hedges for free; a
        request with no deadline has infinite budget."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - now_s

    def tpot_s(self) -> float | None:
        """Mean time per output token after the first."""
        if self.finish_s is None or self.first_token_s is None \
                or self.generated < 2:
            return None
        return (self.finish_s - self.first_token_s) / (self.generated - 1)


@dataclass(frozen=True)
class TrafficGenerator:
    """Seeded synthetic open-loop traffic.

    * arrivals: Poisson process at ``rate_rps`` requests/second
      (exponential inter-arrival gaps);
    * prompt lengths: lognormal (most prompts short, a heavy tail of
      long ones), clipped to ``[min_prompt, max_prompt]``;
    * output lengths: geometric around ``mean_new_tokens`` — the "model
      decides when to stop" shape — clipped to ``max_new_tokens``.
    """

    rate_rps: float
    seed: int = 0
    min_prompt: int = 16
    max_prompt: int = 2048
    mean_prompt: int = 512
    mean_new_tokens: int = 64
    max_new_tokens: int = 512

    def generate(self, n_requests: int) -> list:
        """The first *n_requests* of the trace, arrival-sorted."""
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        # one independent stream per attribute so a longer trace is a
        # strict extension of a shorter one under the same seed
        r_arr = np.random.default_rng((self.seed, 1))
        r_len = np.random.default_rng((self.seed, 2))
        r_out = np.random.default_rng((self.seed, 3))
        gaps = r_arr.exponential(1.0 / self.rate_rps, size=n_requests)
        arrivals = np.cumsum(gaps)
        # lognormal with median = mean_prompt/2 and sigma=0.8 gives a
        # mean near mean_prompt once the heavy tail is clipped
        prompts = r_len.lognormal(np.log(self.mean_prompt / 2.0), 0.8,
                                  size=n_requests)
        prompts = np.clip(prompts, self.min_prompt,
                          self.max_prompt).astype(int)
        outs = r_out.geometric(1.0 / self.mean_new_tokens, size=n_requests)
        outs = np.clip(outs, 1, self.max_new_tokens).astype(int)
        return [Request(rid=i, arrival_s=float(arrivals[i]),
                        prompt_tokens=int(prompts[i]),
                        max_new_tokens=int(outs[i]))
                for i in range(n_requests)]

    def generate_until(self, horizon_s: float) -> list:
        """All requests arriving before *horizon_s* (same trace prefix
        as :meth:`generate` under the same seed)."""
        n = max(16, int(self.rate_rps * horizon_s * 2) + 16)
        while True:
            reqs = self.generate(n)
            if reqs[-1].arrival_s >= horizon_s:
                return [r for r in reqs if r.arrival_s < horizon_s]
            n *= 2
