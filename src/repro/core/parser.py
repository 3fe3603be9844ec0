"""loop_spec_string grammar (§II-B RULE 1 and RULE 2).

Grammar, informally::

    spec       := token+ [ '@' directives ]
    token      := LETTER [ grid ] [ '|' ]
    grid       := '{' ('R'|'C'|'D') ':' INT '}'
    LETTER     := 'a'..'z' (sequential) | 'A'..'Z' (parallelized)

* The order of letters is the nesting order; repeated letters block the
  loop again at that level (RULE 1).
* Upper-case letters parallelize that occurrence (RULE 2).  Adjacent
  upper-case letters *without* grid annotations form an OpenMP
  ``collapse`` group (PAR-MODE 1).  Letters annotated ``{R:n}`` /
  ``{C:n}`` / ``{D:n}`` select explicit 1D/2D/3D thread-grid
  decomposition (PAR-MODE 2).
* ``|`` requests a barrier at the end of that loop level.
* Everything after ``@`` is passed through as OpenMP-style directives;
  ``schedule(dynamic[, chunk])`` and ``schedule(static[, chunk])`` are
  interpreted, anything else is recorded verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..obs.context import current as _obs
from .errors import SpecError

__all__ = ["LoopToken", "ParsedSpec", "parse_spec_string", "GRID_AXES"]

GRID_AXES = ("R", "C", "D")

_GRID_RE = re.compile(r"\{\s*([RCD])\s*:\s*(\d+)\s*\}")
_SCHEDULE_RE = re.compile(
    r"schedule\s*\(\s*(static|dynamic|guided)\s*(?:,\s*(\d+)\s*)?\)")


@dataclass(frozen=True)
class LoopToken:
    """One occurrence of a logical loop in the spec string."""

    char: str                  # lower-case mnemonic ('a', 'b', ...)
    position: int              # nesting depth of this occurrence
    parallel: bool = False
    grid_axis: str | None = None   # 'R' | 'C' | 'D' for PAR-MODE 2
    grid_ways: int = 0
    barrier_after: bool = False
    #: half-open character range of this token (letter + grid annotation)
    #: in the *original* spec string — diagnostics point back into it
    span: tuple = (0, 1)

    @property
    def index(self) -> int:
        """Logical loop number: 'a' -> 0, 'b' -> 1, ..."""
        return ord(self.char) - ord("a")


@dataclass(frozen=True)
class ParsedSpec:
    """Result of parsing a loop_spec_string."""

    tokens: tuple
    directives: str = ""
    schedule: str = "static"
    chunk: int = 0              # 0 = runtime default
    #: the original spec string (diagnostic spans index into it)
    spec: str = ""

    @property
    def par_mode(self) -> int:
        """1 = OpenMP-style (collapse), 2 = explicit thread grid, 0 = serial."""
        if any(t.grid_axis for t in self.tokens):
            return 2
        if any(t.parallel for t in self.tokens):
            return 1
        return 0

    def occurrences(self, char: str) -> list:
        return [t for t in self.tokens if t.char == char]

    @property
    def loop_chars(self) -> list:
        """Distinct loop mnemonics, in order of first appearance."""
        seen: list[str] = []
        for t in self.tokens:
            if t.char not in seen:
                seen.append(t.char)
        return seen

    @property
    def grid_shape(self) -> dict:
        """{'R': ways, ...} for PAR-MODE 2 strings."""
        shape: dict[str, int] = {}
        for t in self.tokens:
            if t.grid_axis:
                if t.grid_axis in shape:
                    raise SpecError(
                        f"grid axis {t.grid_axis} used by more than one loop",
                        spec=self.spec, span=t.span)
                shape[t.grid_axis] = t.grid_ways
        return shape

    def collapse_groups(self) -> list:
        """Maximal runs of adjacent PAR-MODE-1 parallel tokens.

        Returns a list of lists of nesting positions.  "If the user intends
        to parallelize multiple loops, the corresponding capitalized
        characters should appear consecutively ... parallelization using
        collapse semantics" (§II-B).
        """
        groups: list[list[int]] = []
        run: list[int] = []
        for t in self.tokens:
            if t.parallel and not t.grid_axis:
                run.append(t.position)
            else:
                if run:
                    groups.append(run)
                run = []
        if run:
            groups.append(run)
        return groups


def parse_spec_string(spec: str, num_loops: int) -> ParsedSpec:
    """Parse and validate a loop_spec_string for *num_loops* logical loops.

    Grammar violations raise :class:`SpecError` carrying the offending
    character ``span`` whenever the construct can be located, so the
    message renders a caret under it.
    """
    with _obs().span("parser"):
        return _parse_spec_string(spec, num_loops)


def _parse_spec_string(spec: str, num_loops: int) -> ParsedSpec:
    if not isinstance(spec, str) or not spec.strip():
        raise SpecError("loop_spec_string must be a non-empty string")
    if num_loops < 1 or num_loops > 26:
        raise SpecError(f"number of logical loops must be 1..26, got {num_loops}")

    at = spec.find("@")
    body_end = at if at >= 0 else len(spec)
    directives = spec[at + 1:].strip() if at >= 0 else ""
    if not spec[:body_end].strip():
        raise SpecError(f"no loop characters before '@' in {spec!r}",
                        spec=spec, span=(0, max(1, at)))

    schedule, chunk = "static", 0
    if directives:
        m = _SCHEDULE_RE.search(directives)
        if m:
            schedule = m.group(1)
            chunk = int(m.group(2)) if m.group(2) else 0
            if schedule == "guided":
                # guided degenerates to dynamic in this runtime
                schedule = "dynamic"

    tokens: list[LoopToken] = []
    i = 0
    position = 0
    max_char = chr(ord("a") + num_loops - 1)
    while i < body_end:
        ch = spec[i]
        if ch.isspace():
            i += 1
            continue
        if not ch.isalpha():
            raise SpecError(
                f"unexpected character {ch!r} at position {i} in {spec!r}",
                spec=spec, span=(i, i + 1))
        lower = ch.lower()
        if lower > max_char:
            raise SpecError(
                f"loop mnemonic {ch!r} exceeds the {num_loops} declared "
                f"loops (valid range: 'a'..'{max_char}')",
                spec=spec, span=(i, i + 1))
        parallel = ch.isupper()
        start = i
        i += 1
        grid_axis, grid_ways = None, 0
        if i < body_end and spec[i] == "{":
            m = _GRID_RE.match(spec, i, body_end)
            if not m:
                close = spec.find("}", i, body_end)
                raise SpecError(
                    f"malformed grid annotation at position {i} in {spec!r} "
                    "(expected '{R:<ways>}', '{C:<ways>}' or '{D:<ways>}')",
                    spec=spec, span=(i, close + 1 if close >= 0 else i + 1))
            if not parallel:
                raise SpecError(
                    f"grid annotation on lower-case loop {ch!r}: explicit "
                    "decompositions require an upper-case (parallel) loop",
                    spec=spec, span=(start, m.end()))
            grid_axis = m.group(1)
            grid_ways = int(m.group(2))
            if grid_ways <= 0:
                raise SpecError(f"grid ways must be positive in {spec!r}",
                                spec=spec, span=m.span(2))
            i = m.end()
        barrier = False
        if i < body_end and spec[i] == "|":
            barrier = True
            i += 1
        tokens.append(LoopToken(lower, position, parallel, grid_axis,
                                grid_ways, barrier, span=(start, i)))
        position += 1

    parsed = ParsedSpec(tuple(tokens), directives, schedule, chunk, spec)

    # every declared loop must appear at least once
    present = {t.char for t in tokens}
    for li in range(num_loops):
        ch = chr(ord("a") + li)
        if ch not in present:
            raise SpecError(
                f"logical loop {ch!r} is declared but missing from {spec!r}",
                spec=spec, span=(0, body_end))

    # PAR-MODE consistency: either all parallel loops carry grids or none do
    par = [t for t in tokens if t.parallel]
    gridded = [t for t in par if t.grid_axis]
    if gridded and len(gridded) != len(par):
        bare = next(t for t in par if not t.grid_axis)
        raise SpecError(
            "mixing OpenMP-style and explicit-grid parallel loops in one "
            f"spec string is not supported: {spec!r}",
            spec=spec, span=bare.span)
    if gridded:
        axes = [t.grid_axis for t in gridded]
        # grid axes must be used in R (, C (, D)) order
        expected = list(GRID_AXES[:len(axes)])
        if sorted(axes) != sorted(expected):
            raise SpecError(
                f"grid axes {axes} must be exactly {expected} for a "
                f"{len(axes)}D decomposition",
                spec=spec, span=gridded[0].span)
        parsed.grid_shape  # raises on duplicate axes
        if len(gridded) > 3:
            raise SpecError("at most 3D thread decompositions are supported",
                            spec=spec, span=gridded[3].span)

    # PAR-MODE 1 requires one contiguous run of capitalized characters:
    # "If the user intends to parallelize multiple loops, the
    # corresponding capitalized characters should appear consecutively"
    # (§II-B) — nested worksharing regions are not closely nested in
    # OpenMP and would under-cover the iteration space.
    if not gridded and len(parsed.collapse_groups()) > 1:
        second = parsed.collapse_groups()[1][0]
        raise SpecError(
            f"capitalized loops must be consecutive in {spec!r} (nested "
            "worksharing regions are not supported); use a grid "
            "decomposition for multi-level parallelism",
            spec=spec, span=tokens[second].span)

    # a loop may be parallelized at most once (its iterations are
    # distributed once; re-parallelizing a blocked occurrence of the same
    # loop would double-assign work)
    par_chars = [t.char for t in par]
    dup = {c for c in par_chars if par_chars.count(c) > 1}
    if dup:
        worst = sorted(dup)[0]
        second = [t for t in par if t.char == worst][1]
        raise SpecError(
            f"loop(s) {sorted(dup)} parallelized more than once in {spec!r}",
            spec=spec, span=second.span)

    return parsed
