"""Logical loop declarations.

A :class:`LoopSpecs` declares one *logical* loop: its bounds, its innermost
step, and an optional list of blocking steps that the loop_spec_string may
consume if the loop's mnemonic appears more than once (Listing 1, lines
6-8: ``LoopSpecs(0, Kb, k_step, {l1_k_step, l0_k_step})``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError

__all__ = ["LoopSpecs"]


@dataclass(frozen=True)
class LoopSpecs:
    """Declaration of one logical loop.

    Parameters
    ----------
    start, bound, step:
        The logical iteration space ``for i = start; i < bound; i += step``.
    block_steps:
        Optional blocking/tiling steps, ordered outermost-first.  When the
        loop's mnemonic appears *t* times in the ``loop_spec_string`` the
        first ``t - 1`` entries are consumed as the steps of the outer
        occurrences; the innermost occurrence always uses ``step``.  The POC
        requires perfect nesting: each entry must divide its predecessor
        and be divisible by the next (ultimately by ``step``) — §II-B
        RULE 1.
    """

    start: int
    bound: int
    step: int
    block_steps: tuple = ()

    def __init__(self, start: int, bound: int, step: int = 1,
                 block_steps=()):
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "bound", int(bound))
        object.__setattr__(self, "step", int(step))
        object.__setattr__(self, "block_steps",
                           tuple(int(b) for b in block_steps))
        self._validate()

    def _validate(self) -> None:
        if self.step <= 0:
            raise SpecError(f"loop step must be positive, got {self.step}")
        if self.bound <= self.start:
            raise SpecError(
                f"loop bound {self.bound} must exceed start {self.start}")
        chain = list(self.block_steps) + [self.step]
        for outer, inner in zip(chain, chain[1:]):
            if outer <= 0:
                raise SpecError(f"blocking step must be positive, got {outer}")
            if outer % inner != 0:
                raise SpecError(
                    f"imperfect blocking: {outer} is not a multiple of "
                    f"{inner} (POC requires perfectly nested tilings)")

    @property
    def trip_count(self) -> int:
        """Logical trip count at the innermost step."""
        span = self.bound - self.start
        return -(-span // self.step)

    def steps_for(self, occurrences: int) -> list:
        """Steps for each occurrence (outermost first) of this loop.

        With *occurrences* = t, returns ``[block_steps[0], ...,
        block_steps[t-2], step]``.  Raises :class:`SpecError` when the
        declaration does not carry enough blocking steps.
        """
        if occurrences <= 0:
            raise SpecError("loop must occur at least once in the spec string")
        if occurrences == 1:
            return [self.step]
        needed = occurrences - 1
        if needed > len(self.block_steps):
            raise SpecError(
                f"spec string blocks this loop {needed} time(s) but only "
                f"{len(self.block_steps)} blocking step(s) were declared")
        return list(self.block_steps[:needed]) + [self.step]
