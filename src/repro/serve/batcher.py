"""Batch composition policies: continuous batching vs the static baseline.

A batcher decides what one serving step runs.  :class:`ContinuousBatcher`
is the vLLM/Orca-style policy: every decode-ready sequence gets its next
token each step, and whatever per-step token budget remains is filled
with *chunks* of waiting prompts, so new requests join (and finished ones
leave) the batch at step granularity.  :class:`StaticBatcher` is the
classic request-level baseline: a batch is formed once, prefilled whole,
and decoded until every member finishes; nobody joins mid-flight, and
the batch drains as sequences complete — both of which cost sustained
throughput and tail TTFT.

Batchers are pure policy: they read request state and budgets, and never
touch the KV pool (the server owns allocation and preemption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepPlan", "ContinuousBatcher", "StaticBatcher", "BATCHERS"]


@dataclass
class StepPlan:
    """What one serving step executes."""

    #: (request, chunk_tokens) prompt pieces to prefill
    prefill: list = field(default_factory=list)
    #: requests consuming/emitting one token each
    decode: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode

    @property
    def step_tokens(self) -> int:
        return sum(t for _, t in self.prefill) + len(self.decode)


@dataclass(frozen=True)
class ContinuousBatcher:
    """Token-budgeted continuous batching with chunked prefill."""

    name: str = "continuous"
    #: per-step forward-pass token budget (decode tokens count 1 each)
    token_budget: int = 512
    #: concurrent-sequence cap (batch dimension of the ragged GEMMs)
    max_batch: int = 64
    #: a new request reserves only its next blocks, not its worst case
    reserve_full: bool = False

    def plan(self, running, waiting, token_budget: int | None = None
             ) -> StepPlan:
        """*token_budget* overrides the configured budget for this step
        — degraded mode shrinks steps without rebuilding the batcher."""
        plan = StepPlan()
        decode, max_batch = plan.decode, self.max_batch
        for req in running:
            if len(decode) < max_batch and req.decode_ready:
                decode.append(req)
        budget = (token_budget if token_budget is not None
                  else self.token_budget) - len(decode)
        slots = max_batch - len(decode)
        for req in waiting:
            if budget <= 0 or slots <= 0:
                break
            chunk = min(req.prefill_remaining, budget)
            if chunk <= 0:
                continue
            plan.prefill.append((req, chunk))
            budget -= chunk
            slots -= 1
        return plan


@dataclass(frozen=True)
class StaticBatcher:
    """Request-level batching: form a batch, run it to completion."""

    name: str = "static"
    max_batch: int = 16
    #: classic static serving reserves the worst-case KV footprint
    #: (prompt + max_new) up front
    reserve_full: bool = True

    def plan(self, running, waiting, token_budget: int | None = None
             ) -> StepPlan:
        plan = StepPlan()
        if running:
            # batch in flight: decode only, no joins
            plan.decode.extend(r for r in running if r.decode_ready)
            # members still prefilling (their admission chunk was
            # deferred) get pushed before more decode happens
            return plan
        for req in waiting[:self.max_batch]:
            plan.prefill.append((req, req.prefill_remaining))
        return plan


BATCHERS = {
    "continuous": ContinuousBatcher(),
    "static": StaticBatcher(),
}
