"""Execution runtime for generated loop nests.

PARLOOPER's POC uses OpenMP; this runtime provides two equivalent modes:

* ``execution="serial"`` (default): each logical thread's traversal is run
  to completion in tid order on the calling thread.  Deterministic and
  fast under the GIL; barriers are no-ops (each thread already sees every
  earlier thread's writes).
* ``execution="threads"``: real ``threading.Thread`` workers with a
  ``threading.Barrier`` honouring ``|`` barrier requests.  NumPy releases
  the GIL inside kernels so TPP-heavy bodies genuinely overlap.

The paper notes the generator "can be extended to support other runtimes
(e.g. TBB or pthreads)" — adding a mode here is the analogous extension
point.
"""

from __future__ import annotations

import threading

from ..obs.context import current as _obs
from .errors import ExecutionError, SpecError

__all__ = ["NestContext", "run_nest", "EXECUTION_MODES"]

EXECUTION_MODES = ("serial", "threads")


class NestContext:
    """Shared per-invocation state: barriers and dynamic-schedule counters."""

    def __init__(self, num_threads: int, grid=(1, 1, 1), use_real_barrier=False):
        self.num_threads = num_threads
        self.grid = grid
        self._lock = threading.Lock()
        self._counters: dict = {}
        if use_real_barrier and num_threads > 1:
            self._barrier = threading.Barrier(num_threads)
        else:
            self._barrier = None

    def barrier(self) -> None:
        """End-of-level barrier (the ``|`` spec character)."""
        if self._barrier is not None:
            self._barrier.wait()

    def next_chunk(self, group_id: int, epoch: tuple, total: int,
                   chunk: int):
        """Grab the next dynamic-schedule chunk of a worksharing region.

        Each (group_id, epoch) pair is an independent region: *epoch* is
        the tuple of enclosing loop indices, so re-encounters of an inner
        ``omp for`` get fresh iteration counters (OpenMP semantics with
        ``nowait``: threads may be in different epochs concurrently).
        """
        key = (group_id, epoch)
        with self._lock:
            start = self._counters.get(key, 0)
            if start >= total:
                return None
            end = min(start + chunk, total)
            self._counters[key] = end
            return (start, end)


class _InlineContext:
    """Lock- and barrier-free :class:`NestContext` stand-in for the
    single-threaded fast path.  With one thread there is no contention
    to guard against and a barrier is trivially satisfied, so the
    per-invocation ``Lock`` allocation and ``with`` overhead in
    ``next_chunk`` — measurable across a tuner screening sweep's many
    tiny nests — can be skipped.  Must be constructed fresh per
    invocation: the dynamic-schedule counters are per-run state.
    """

    __slots__ = ("num_threads", "grid", "_counters")

    def __init__(self, num_threads: int, grid=(1, 1, 1)):
        self.num_threads = num_threads
        self.grid = grid
        self._counters: dict = {}

    def barrier(self) -> None:
        pass

    def next_chunk(self, group_id: int, epoch: tuple, total: int,
                   chunk: int):
        key = (group_id, epoch)
        start = self._counters.get(key, 0)
        if start >= total:
            return None
        end = min(start + chunk, total)
        self._counters[key] = end
        return (start, end)


def run_nest(nest_func, num_threads: int, body_func, init_func=None,
             term_func=None, grid=(1, 1, 1), execution: str = "serial"
             ) -> None:
    """Execute a compiled nest function across *num_threads* logical
    threads."""
    with _obs().span("runtime", num_threads=num_threads,
                     execution=execution):
        _run_nest(nest_func, num_threads, body_func, init_func,
                  term_func, grid, execution)


def _run_nest(nest_func, num_threads: int, body_func, init_func,
              term_func, grid, execution: str) -> None:
    if execution not in EXECUTION_MODES:
        raise ExecutionError(
            f"unknown execution mode {execution!r}; expected one of "
            f"{EXECUTION_MODES}")
    if num_threads <= 0:
        raise ExecutionError(
            f"num_threads must be positive, got {num_threads}")

    gr, gc, gd = grid
    # a nest generated for an explicit {R:n}/{C:n}/{D:n} decomposition has
    # its grid baked in as literals — a caller passing the default
    # grid=(1,1,1) with a mismatched num_threads would silently under- or
    # over-cover the iteration space (extra tids decode to empty ranges)
    declared = getattr(nest_func, "_parlooper_grid", None)
    if declared is not None and tuple(declared) != (1, 1, 1):
        dr, dc, dd = declared
        need = dr * dc * dd
        if (gr, gc, gd) == (1, 1, 1):
            if num_threads != need:
                raise SpecError(
                    f"nest was generated for a {dr}x{dc}x{dd} thread grid "
                    f"({need} threads) but run_nest got "
                    f"num_threads={num_threads} with the default "
                    "grid=(1, 1, 1)")
            gr, gc, gd = dr, dc, dd   # adopt the declared decomposition
        elif (gr, gc, gd) != (dr, dc, dd):
            raise SpecError(
                f"nest was generated for a {dr}x{dc}x{dd} thread grid but "
                f"run_nest got grid={grid}")
    if gr * gc * gd != num_threads and (gr, gc, gd) != (1, 1, 1):
        raise ExecutionError(
            f"thread grid {(gr, gc, gd)} requires {gr * gc * gd} threads "
            f"but {num_threads} were provided")

    if num_threads == 1:
        # single logical thread: no interleaving possible in either mode,
        # so run inline without thread/barrier machinery
        ctx = _InlineContext(1, (gr, gc, gd))
        nest_func(0, 1, body_func, init_func, term_func, ctx)
        return

    if execution == "serial":
        ctx = NestContext(num_threads, (gr, gc, gd), use_real_barrier=False)
        for tid in range(num_threads):
            nest_func(tid, num_threads, body_func, init_func, term_func, ctx)
        return

    ctx = NestContext(num_threads, (gr, gc, gd), use_real_barrier=True)
    errors: list = []
    err_lock = threading.Lock()

    def worker(tid: int) -> None:
        try:
            nest_func(tid, num_threads, body_func, init_func, term_func, ctx)
        except Exception as exc:  # noqa: BLE001 - propagated below
            with err_lock:
                errors.append((tid, exc))
            # release any threads waiting on the barrier
            if ctx._barrier is not None:
                ctx._barrier.abort()

    threads = [threading.Thread(target=worker, args=(tid,), daemon=True)
               for tid in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        # aborting the barrier makes bystander threads die with
        # BrokenBarrierError; whichever thread *reported* first is a race
        # artifact — name the first genuine failure as the root cause and
        # attach every per-thread failure for diagnosis
        errors.sort(key=lambda pair: pair[0])
        roots = [(tid, exc) for tid, exc in errors
                 if not isinstance(exc, threading.BrokenBarrierError)]
        tid, exc = (roots or errors)[0]
        raise ExecutionError(
            f"thread {tid} failed inside the generated nest: {exc}",
            failures=tuple(errors)) from exc
