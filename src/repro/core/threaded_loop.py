"""ThreadedLoop — the user-facing PARLOOPER API (Listing 1).

Usage mirrors the paper's C++ POC::

    gemm_loop = ThreadedLoop(
        [LoopSpecs(0, Kb, k_step, [l1_k_step, l0_k_step]),
         LoopSpecs(0, Mb, m_step, [l1_m_step, l0_m_step]),
         LoopSpecs(0, Nb, n_step, [l1_n_step, l0_n_step])],
        loop_spec_str)

    gemm_loop(lambda ind: ..., init_func, term_func)

The constructor parses the spec string, builds the nest plan, and JITs
the loop nest, or cache-hits the plan and the nest of a string it has
seen; ``__call__`` runs it.  With zero lines of user-code change, a
different ``loop_spec_str`` instantiates a different loop order /
blocking / parallelization.
"""

from __future__ import annotations

import os

from ..obs.context import current as _obs
from .cache import NestCache, global_nest_cache
from .codegen import GeneratedNest
from .errors import ExecutionError, SpecError
from .loop_spec import LoopSpecs
from .plan import LoopNestPlan
from .runtime import run_nest

__all__ = ["ThreadedLoop", "default_num_threads"]


def default_num_threads() -> int:
    """OMP_NUM_THREADS if set, else the machine's CPU count."""
    env = os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


class ThreadedLoop:
    """A declared logical loop nest with a runtime-selected instantiation.

    Parameters
    ----------
    specs:
        One :class:`LoopSpecs` per logical loop, in mnemonic order
        ('a' = first, 'b' = second, ...).
    spec_string:
        The ``loop_spec_string`` runtime knob (RULE 1 / RULE 2 grammar).
    num_threads:
        Logical thread count.  Defaults to the PAR-MODE-2 grid size when
        the string declares one, else ``OMP_NUM_THREADS``/CPU count for
        parallel strings, else 1.
    execution:
        ``"serial"`` (deterministic emulation, default) or ``"threads"``.
    cache:
        Nest cache to use; defaults to the process-global cache.
    """

    def __init__(self, specs, spec_string: str,
                 num_threads: int | None = None,
                 execution: str = "serial",
                 cache: NestCache | None = None):
        if isinstance(specs, LoopSpecs):
            specs = [specs]
        self.specs = tuple(specs)
        self.spec_string = spec_string
        with _obs().span("compile", spec=spec_string):
            self.execution = execution
            self._cache = cache if cache is not None \
                else global_nest_cache()
            self.plan: LoopNestPlan = self._cache.plan(self.specs,
                                                       spec_string)
            self._nest: GeneratedNest = self._cache.get(self.plan)

        grid = self.plan.grid_shape
        grid_threads = grid[0] * grid[1] * grid[2]
        if num_threads is None:
            if self.plan.par_mode == 2:
                num_threads = grid_threads
            elif self.plan.par_mode == 1:
                num_threads = default_num_threads()
            else:
                num_threads = 1
        if self.plan.par_mode == 0:
            # no parallel loops: raw OpenMP would execute the nest
            # redundantly on every thread of the parallel region; that is
            # never the intent, so a serial spec runs single-threaded
            num_threads = 1
        if self.plan.par_mode == 2 and num_threads != grid_threads:
            raise SpecError(
                f"spec {spec_string!r} declares a "
                f"{grid[0]}x{grid[1]}x{grid[2]} thread grid "
                f"({grid_threads} threads) but num_threads={num_threads}")
        if self.plan.has_barriers and execution == "serial" \
                and num_threads > 1:
            # serial emulation runs threads to completion in tid order, so
            # a barrier cannot provide its synchronisation guarantee
            raise SpecError(
                f"spec {spec_string!r} requests barriers; use "
                "execution='threads' (serial emulation cannot interleave)")
        self.num_threads = int(num_threads)

    # -- introspection ---------------------------------------------------
    @property
    def generated_source(self) -> str:
        """Python source of the JITed nest (Listing 2/3 analogue)."""
        return self._nest.source

    @property
    def par_mode(self) -> int:
        return self.plan.par_mode

    def body_calls_total(self) -> int:
        return self.plan.body_calls_total()

    # -- execution ---------------------------------------------------------
    def __call__(self, body_func, init_func=None, term_func=None) -> None:
        """Run the instantiated nest: ``body_func(ind)`` per logical point.

        ``ind`` is the logical-index array, alphabetical order (§II-C):
        ``ind[0]`` is loop 'a''s current index, ``ind[1]`` loop 'b''s, ...
        ``init_func``/``term_func`` run once per thread before/after the
        nest, inside the parallel region (Listing 3).
        """
        if not callable(body_func):
            raise ExecutionError("body_func must be callable")
        run_nest(self._nest.func, self.num_threads, body_func, init_func,
                 term_func, grid=self.plan.grid_shape,
                 execution=self.execution)

    def with_spec(self, spec_string: str, **kwargs) -> "ThreadedLoop":
        """Same logical loops, different instantiation knob.

        This is the auto-tuning entry point: zero user-code change, only
        the knob varies (§II-D).
        """
        opts = dict(num_threads=None, execution=self.execution,
                    cache=self._cache)
        opts.update(kwargs)
        return ThreadedLoop(self.specs, spec_string, **opts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ThreadedLoop {self.spec_string!r} loops={len(self.specs)} "
                f"threads={self.num_threads} mode={self.par_mode}>")
