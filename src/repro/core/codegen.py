"""JIT code generation for PARLOOPER loop nests.

Given a :class:`~repro.core.plan.LoopNestPlan`, emit the Python source of a
per-thread nest function, compile it, and return the callable.  This is the
reproduction of the paper's "custom loop generator [that] emits a C++
function for the target loop instantiation" which is then "compiled
Just-In-Time" (§II-B); the emitted code mirrors Listings 2 and 3, with all
loop bounds and steps baked in as literals.

The generated function has the signature::

    def nest(tid, nthreads, body_func, init_func, term_func, ctx): ...

and is executed once per thread by :mod:`repro.core.runtime` — the moral
equivalent of the body of ``#pragma omp parallel``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError
from .plan import LoopLevel, LoopNestPlan

__all__ = ["GeneratedNest", "generate_source", "compile_nest",
           "compile_source"]

_INDENT = "    "


@dataclass(frozen=True)
class GeneratedNest:
    """A compiled loop nest plus its source (kept for inspection/tests)."""

    func: object
    source: str
    plan: LoopNestPlan


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1

    def emit(self, line: str = "") -> None:
        self.lines.append(_INDENT * self.depth + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines)


def _level_range(level: LoopLevel, plan: LoopNestPlan) -> tuple:
    """(lo_expr, hi_expr, trips) of a level; trips is always a constant."""
    spec = plan.specs[level.loop_index]
    if level.occurrence == 0:
        lo = str(spec.start)
        hi = str(spec.bound)
        trips = (spec.bound - spec.start) // level.step
    else:
        parent = f"{level.char}{level.occurrence - 1}"
        lo = parent
        hi = f"{parent} + {level.outer_step}"
        trips = level.outer_step // level.step
    return lo, hi, trips


def _emit_body(em: _Emitter, plan: LoopNestPlan) -> None:
    """Innermost: load logical indices and call body_func (Listing 2 l.15)."""
    for li in range(plan.num_loops):
        char = chr(ord("a") + li)
        last_occ = max(lv.occurrence for lv in plan.levels if lv.char == char)
        em.emit(f"ind[{li}] = {char}{last_occ}")
    em.emit("body_func(ind)")


def _emit_serial_level(em: _Emitter, level: LoopLevel, plan: LoopNestPlan,
                       rest: list) -> None:
    lo, hi, _ = _level_range(level, plan)
    em.emit(f"for {level.var} in range({lo}, {hi}, {level.step}):")
    em.depth += 1
    _emit_levels(em, plan, rest)
    em.depth -= 1
    if level.barrier_after:
        em.emit("ctx.barrier()")


def _emit_grid_level(em: _Emitter, level: LoopLevel, plan: LoopNestPlan,
                     rest: list) -> None:
    """PAR-MODE 2: block-partition this level's range along a grid axis."""
    lo, hi, trips = _level_range(level, plan)
    coord = {"R": "_rid", "C": "_cid", "D": "_did"}[level.grid_axis]
    p = level.position
    em.emit(f"# parallelize {level.grid_ways}-ways along grid axis "
            f"{level.grid_axis} (block distribution)")
    em.emit(f"_chunk{p} = {-(-trips // level.grid_ways)}")
    em.emit(f"_s{p} = min({coord} * _chunk{p}, {trips})")
    em.emit(f"_e{p} = min(({coord} + 1) * _chunk{p}, {trips})")
    em.emit(f"for {level.var} in range(({lo}) + _s{p} * {level.step}, "
            f"({lo}) + _e{p} * {level.step}, {level.step}):")
    em.depth += 1
    _emit_levels(em, plan, rest)
    em.depth -= 1
    if level.barrier_after:
        em.emit("ctx.barrier()")


def _emit_collapse_group(em: _Emitter, group: list, plan: LoopNestPlan,
                         rest: list) -> None:
    """PAR-MODE 1: OpenMP-style ``for collapse(n) [schedule(...)] nowait``."""
    infos = [(lv, *_level_range(lv, plan)) for lv in group]
    trips = [t for (_lv, _lo, _hi, t) in infos]
    total = 1
    for t in trips:
        total *= t
    p = group[0].position
    sched = plan.parsed.schedule
    chunk = plan.parsed.chunk

    em.emit(f"# omp for collapse({len(group)}) schedule({sched}"
            f"{', ' + str(chunk) if chunk else ''}) nowait")
    em.emit(f"_total{p} = {total}")

    def emit_decode_and_inner():
        # decode the flat index into the group's loop variables
        div = total
        for (lv, lo, _hi, t) in infos:
            div //= t
            em.emit(f"{lv.var} = ({lo}) + ((_flat{p} // {div}) % {t}) "
                    f"* {lv.step}")
        _emit_levels(em, plan, rest)

    if sched == "dynamic":
        epoch_vars = _in_scope_vars(plan, p)
        epoch = ", ".join(epoch_vars)
        epoch_expr = f"({epoch},)" if epoch_vars else "()"
        em.emit(f"_epoch{p} = {epoch_expr}")
        em.emit("while True:")
        em.depth += 1
        em.emit(f"_nc{p} = ctx.next_chunk({p}, _epoch{p}, _total{p}, "
                f"{chunk if chunk else 1})")
        em.emit(f"if _nc{p} is None:")
        em.emit(f"{_INDENT}break")
        em.emit(f"for _flat{p} in range(_nc{p}[0], _nc{p}[1]):")
        em.depth += 1
        emit_decode_and_inner()
        em.depth -= 2
    elif chunk:
        # static with explicit chunk: round-robin chunks over threads
        em.emit(f"for _s{p} in range(tid * {chunk}, _total{p}, "
                f"nthreads * {chunk}):")
        em.depth += 1
        em.emit(f"for _flat{p} in range(_s{p}, "
                f"min(_s{p} + {chunk}, _total{p})):")
        em.depth += 1
        emit_decode_and_inner()
        em.depth -= 2
    else:
        # static default: near-equal contiguous chunks
        em.emit(f"_base{p}, _rem{p} = divmod(_total{p}, nthreads)")
        em.emit(f"_lo{p} = tid * _base{p} + "
                f"(tid if tid < _rem{p} else _rem{p})")
        em.emit(f"_hi{p} = _lo{p} + _base{p} + (1 if tid < _rem{p} else 0)")
        em.emit(f"for _flat{p} in range(_lo{p}, _hi{p}):")
        em.depth += 1
        emit_decode_and_inner()
        em.depth -= 1

    for lv in group:
        if lv.barrier_after:
            em.emit("ctx.barrier()")


def _in_scope_vars(plan: LoopNestPlan, position: int) -> list:
    """Variables of loop levels enclosing *position* (for dynamic epochs)."""
    return [lv.var for lv in plan.levels if lv.position < position]


def _emit_levels(em: _Emitter, plan: LoopNestPlan, levels: list) -> None:
    if not levels:
        _emit_body(em, plan)
        return
    level = levels[0]
    if level.grid_axis:
        _emit_grid_level(em, level, plan, levels[1:])
    elif level.parallel:
        # gather the maximal adjacent run of PAR-MODE-1 parallel levels
        group = [level]
        rest = levels[1:]
        while rest and rest[0].parallel and not rest[0].grid_axis:
            group.append(rest[0])
            rest = rest[1:]
        _emit_collapse_group(em, group, plan, rest)
    else:
        _emit_serial_level(em, level, plan, levels[1:])


def generate_source(plan: LoopNestPlan, func_name: str = "parlooper_nest"
                    ) -> str:
    """Emit the Python source of the per-thread nest function."""
    em = _Emitter()
    em.depth = 0
    em.emit(f"def {func_name}(tid, nthreads, body_func, init_func, "
            "term_func, ctx):")
    em.depth = 1
    em.emit(f'"""Generated by PARLOOPER for spec '
            f'{plan.spec_string!r}."""')
    if plan.par_mode == 2:
        R, C, D = plan.grid_shape
        em.emit(f"_R, _C, _D = {R}, {C}, {D}")
        em.emit("_rid = tid // (_C * _D)")
        em.emit("_cid = (tid // _D) % _C")
        em.emit("_did = tid % _D")
    em.emit("if init_func is not None:")
    em.emit(f"{_INDENT}init_func()")
    em.emit(f"ind = [0] * {plan.num_loops}")
    _emit_levels(em, plan, list(plan.levels))
    em.emit("if term_func is not None:")
    em.emit(f"{_INDENT}term_func()")
    em.emit(f"return None")
    return em.source()


def compile_nest(plan: LoopNestPlan, func_name: str = "parlooper_nest"
                 ) -> GeneratedNest:
    """Compile the generated source into a callable (the JIT step)."""
    return compile_source(generate_source(plan, func_name), plan, func_name)


def compile_source(source: str, plan: LoopNestPlan,
                   func_name: str = "parlooper_nest") -> GeneratedNest:
    """Compile already-generated nest source (e.g. from a persisted
    :class:`~repro.core.cache.NestCache`) into a callable."""
    namespace: dict = {}
    try:
        code = compile(source, f"<parlooper:{plan.spec_string}>", "exec")
        exec(code, namespace)  # noqa: S102 - this *is* the JIT
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise SpecError(
            f"internal codegen error for {plan.spec_string!r}: {exc}\n"
            f"{source}") from exc
    func = namespace[func_name]
    # the generated nest bakes its PAR-MODE-2 decomposition in as literals;
    # stamp it on the callable so the runtime can reject a caller whose
    # nthreads/grid combination contradicts what the code will execute
    func._parlooper_grid = plan.grid_shape
    return GeneratedNest(func, source, plan)
