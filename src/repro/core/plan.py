"""Loop-nest plan: the IR between parsing and code generation.

A :class:`LoopNestPlan` resolves each spec-string token against its
:class:`~repro.core.loop_spec.LoopSpecs` declaration: which concrete step
each occurrence uses, which occurrence carries the innermost (logical)
index, where parallelism and barriers sit.  The code generator walks this
plan; the performance model walks the same plan symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.context import current as _obs
from .errors import SpecError
from .loop_spec import LoopSpecs
from .parser import ParsedSpec, parse_spec_string

__all__ = ["LoopLevel", "LoopNestPlan", "build_plan", "plan_key"]


@dataclass(frozen=True)
class LoopLevel:
    """One concrete loop level of the generated nest."""

    position: int          # nesting depth
    loop_index: int        # logical loop number (0 = 'a')
    char: str
    occurrence: int        # 0 = outermost occurrence of this logical loop
    step: int              # concrete step at this level
    outer_step: int        # step of the previous occurrence (span of this one)
    is_innermost_occ: bool  # True when this level's var is the logical index
    parallel: bool = False
    grid_axis: str | None = None
    grid_ways: int = 0
    barrier_after: bool = False

    @property
    def var(self) -> str:
        """Generated variable name, e.g. ``b1`` (matches Listing 2/3)."""
        return f"{self.char}{self.occurrence}"


@dataclass(frozen=True)
class LoopNestPlan:
    """Fully-resolved loop nest for one (specs, spec_string) pair."""

    specs: tuple                 # tuple[LoopSpecs]
    parsed: ParsedSpec
    levels: tuple                # tuple[LoopLevel]
    spec_string: str
    #: read-only spec-feature rows of this plan by ``num_threads``,
    #: filled by :func:`repro.tuner.features.spec_features`; a plan the
    #: nest cache memoizes keeps them as long as the cache keeps it
    feature_rows: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    @property
    def num_loops(self) -> int:
        return len(self.specs)

    @property
    def par_mode(self) -> int:
        return self.parsed.par_mode

    @property
    def grid_shape(self) -> tuple:
        """(R, C, D) thread grid for PAR-MODE 2 (missing axes = 1)."""
        shape = self.parsed.grid_shape
        return (shape.get("R", 1), shape.get("C", 1), shape.get("D", 1))

    @property
    def has_barriers(self) -> bool:
        return any(lv.barrier_after for lv in self.levels)

    def body_calls_total(self) -> int:
        """Total body_func invocations for one traversal of the nest."""
        total = 1
        for spec, char in zip(self.specs,
                              [chr(ord("a") + i) for i in range(len(self.specs))]):
            innermost = min(lv.step for lv in self.levels if lv.char == char)
            total *= -(-(spec.bound - spec.start) // innermost)
        return total

    def cache_key(self) -> tuple:
        return plan_key(self.specs, self.spec_string)


def plan_key(specs, spec_string: str) -> tuple:
    """The JIT cache's key of one (declarations, spec string) pair."""
    return (spec_string,
            tuple((s.start, s.bound, s.step, s.block_steps) for s in specs))


def build_plan(specs, spec_string: str) -> LoopNestPlan:
    """Resolve a spec string against loop declarations into a nest plan."""
    with _obs().span("plan", spec=spec_string):
        return _build_plan(specs, spec_string)


def _build_plan(specs, spec_string: str) -> LoopNestPlan:
    specs = tuple(specs)
    for s in specs:
        if not isinstance(s, LoopSpecs):
            raise SpecError(f"expected LoopSpecs, got {type(s).__name__}")
    parsed = parse_spec_string(spec_string, len(specs))

    # per logical loop: resolve the step of each occurrence
    occ_counter: dict[str, int] = {}
    steps_of: dict[str, list] = {}
    for char in parsed.loop_chars:
        occs = parsed.occurrences(char)
        spec = specs[ord(char) - ord("a")]
        try:
            steps = spec.steps_for(len(occs))
        except SpecError as exc:
            # re-point the declaration error at the over-blocked mnemonic
            raise SpecError(f"loop {char!r}: {exc.args[0]}",
                            spec=spec_string, span=occs[-1].span) from exc
        span = spec.bound - spec.start
        if span % steps[0] != 0:
            raise SpecError(
                f"loop {char!r}: span {span} is not a multiple of its "
                f"outermost step {steps[0]} (POC requires perfect nesting)",
                spec=spec_string, span=occs[0].span)
        steps_of[char] = steps

    levels = []
    for tok in parsed.tokens:
        k = occ_counter.get(tok.char, 0)
        occ_counter[tok.char] = k + 1
        steps = steps_of[tok.char]
        spec = specs[tok.index]
        outer_step = (spec.bound - spec.start) if k == 0 else steps[k - 1]
        levels.append(LoopLevel(
            position=tok.position,
            loop_index=tok.index,
            char=tok.char,
            occurrence=k,
            step=steps[k],
            outer_step=outer_step,
            is_innermost_occ=(k == len(steps) - 1),
            parallel=tok.parallel,
            grid_axis=tok.grid_axis,
            grid_ways=tok.grid_ways,
            barrier_after=tok.barrier_after,
        ))

    plan = LoopNestPlan(specs, parsed, tuple(levels), spec_string)

    # PAR-MODE 2 sanity: ways must not exceed the loop's trip count at
    # that level, or some grid coordinates would idle with zero work —
    # allowed by OpenMP but almost certainly a spec mistake.
    for lv, tok in zip(levels, parsed.tokens):
        if lv.grid_axis:
            trips = lv.outer_step // lv.step
            if lv.grid_ways > trips:
                raise SpecError(
                    f"loop {lv.char!r} parallelized {lv.grid_ways}-ways but "
                    f"has only {trips} iterations at that level",
                    spec=spec_string, span=tok.span)
    return plan
