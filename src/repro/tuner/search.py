"""Offline candidate search (Fig 1 Box B2 -> Arrow 1).

Candidates are benchmarked by an *evaluator* — the lightweight perf model
(cheap, cross-architecture, §II-E) or the full engine — and ranked; the
best spec string becomes the runtime knob.  Zero lines of user kernel code
change across candidates.

Throughput knobs (all ranking-preserving — results are identical to the
plain serial sweep, only faster):

* ``trace_cache=`` on the evaluators memoizes trace capture and switches
  the perfmodel to its vectorized reuse-distance replay;
* ``search(..., workers=N)`` fans candidate evaluation out over forked
  worker processes in deterministic chunks.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass

from ..core.errors import ExecutionError, SpecError
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from ..simulator.engine import simulate
from ..simulator.perfmodel import predict
from .generator import Candidate

__all__ = ["TuneOutcome", "SearchResult", "SearchFailure", "RacyCandidate",
           "search", "perfmodel_evaluator", "engine_evaluator",
           "race_verifier"]


@dataclass(frozen=True)
class TuneOutcome:
    """One evaluated candidate."""

    candidate: Candidate
    score: float              # higher is better (GFLOPS)
    seconds: float            # predicted/simulated kernel time
    valid: bool = True
    error: str = ""
    #: ``repr`` + formatted traceback of the failure.  Captured at raise
    #: time because outcomes are the only thing that survives the fork
    #: pool — the exception object itself dies with the worker.
    traceback: str = ""


@dataclass(frozen=True)
class SearchFailure:
    """Why one candidate was skipped."""

    candidate: Candidate
    error: str
    #: full formatted traceback (ending in ``repr(exc)``-style text) from
    #: the raising process, fork-safe
    traceback: str = ""


@dataclass(frozen=True)
class RacyCandidate:
    """A candidate excluded by verification, with its race diagnostics."""

    candidate: Candidate
    reports: tuple            # tuple[repro.verify.races.RaceReport]

    def describe(self) -> str:
        return f"{self.candidate.label()}: " + \
            "; ".join(str(r) for r in self.reports)


@dataclass(frozen=True)
class SearchResult:
    """Ranked tuning outcomes plus the cost of the search itself."""

    outcomes: tuple           # sorted by score, best first
    evaluated: int
    skipped: int
    wall_seconds: float
    #: one :class:`SearchFailure` per skipped candidate
    failures: tuple = ()
    #: candidates excluded by ``verify=`` (one :class:`RacyCandidate` each)
    racy: tuple = ()

    @property
    def best(self) -> TuneOutcome:
        if not self.outcomes:
            raise ValueError("search produced no valid outcomes")
        return self.outcomes[0]

    def top(self, k: int) -> tuple:
        return self.outcomes[:k]


def race_verifier(base_specs, sim_body, num_threads: int | None = None):
    """A ``verify=``-compatible callable: candidate -> race reports.

    Builds each candidate's loop and runs
    :func:`repro.verify.races.detect_races` over the kernel's simulator
    description — the same traces the evaluators replay for performance,
    consumed here for correctness.
    """
    from ..verify.races import detect_races  # deferred: avoids an import
    # cycle (repro.verify.fuzz uses tuner.constraints)

    def verifier(candidate: Candidate) -> list:
        loop = candidate.build_loop(base_specs, num_threads=num_threads,
                                    execution="threads")
        return detect_races(loop, sim_body)
    return verifier


def perfmodel_evaluator(base_specs, sim_body, machine: MachineModel,
                        num_threads: int | None = None,
                        sample_threads: int | None = 4,
                        total_flops: float | None = None,
                        trace_cache=None):
    """Evaluator using the Box-B3 model — the paper's cheap tuning path.

    Pass ``total_flops`` (the instantiation-independent kernel flop
    count) whenever sampling, so starved schedules are not over-credited.
    A shared ``trace_cache`` (:class:`~repro.simulator.memo.TraceCache`)
    makes sweeps trace each iteration order once and replay it through
    the vectorized reuse-distance simulator; scores are bit-identical.
    """
    def evaluate(candidate: Candidate) -> TuneOutcome:
        loop = candidate.build_loop(base_specs, num_threads=num_threads)
        pred = predict(loop, sim_body, machine,
                       sample_threads=sample_threads,
                       total_flops=total_flops,
                       trace_cache=trace_cache)
        return TuneOutcome(candidate, pred.score, pred.seconds)
    evaluate.verifier = race_verifier(base_specs, sim_body, num_threads)
    return evaluate


def engine_evaluator(base_specs, sim_body, machine: MachineModel,
                     num_threads: int | None = None, trace_cache=None):
    """Evaluator using the full engine — the 'benchmark offline' path."""
    def evaluate(candidate: Candidate) -> TuneOutcome:
        loop = candidate.build_loop(base_specs, num_threads=num_threads)
        res = simulate(loop, sim_body, machine, trace_cache=trace_cache)
        return TuneOutcome(candidate, res.gflops, res.seconds)
    evaluate.verifier = race_verifier(base_specs, sim_body, num_threads)
    return evaluate


def search(candidates, evaluator, top_k: int | None = None,
           workers: int | None = None, verify=False) -> SearchResult:
    """Evaluate candidates, skipping ones invalid for these loop bounds
    (imperfect blocking chains etc.) or whose evaluation fails at
    runtime, and rank by score.  A poisoned candidate is recorded as an
    invalid outcome — it never aborts the rest of the search; skipped
    candidates are reported in ``result.failures``.

    ``verify=True`` runs the race detector over every candidate before
    any evaluation, using the ``.verifier`` the stock evaluators carry
    (:func:`race_verifier` under the hood); racy candidates are excluded
    from the ranking and surfaced in ``result.racy`` with their
    :class:`~repro.verify.races.RaceReport` diagnostics — an auto-tuner
    must never recommend a spec that wins by corrupting C.  Pass a
    callable (candidate -> reports) to verify with custom logic.

    ``workers=N`` evaluates chunks of candidates in N forked processes;
    chunking is deterministic and results are merged in candidate order,
    so the ranking is identical to ``workers=1`` for any evaluator.  (On
    platforms without ``fork`` the search silently runs serially.)
    """
    with _obs().span("search"):
        return _search(candidates, evaluator, top_k, workers, verify)


def _split_racy(candidates, evaluator, verify) -> tuple:
    """The ``verify=`` pre-pass: ``(clean, racy)``, racy candidates as
    :class:`RacyCandidate`\\ s.  ``verify=True`` uses the ``.verifier``
    *evaluator* carries, a callable is the verifier itself, and anything
    else skips the pass."""
    if verify is True:
        verifier = getattr(evaluator, "verifier", None)
        if verifier is None:
            raise ValueError(
                "verify=True requires an evaluator carrying a .verifier "
                "(perfmodel_evaluator/engine_evaluator) or an explicit "
                "verify=<callable>")
    elif callable(verify):
        verifier = verify
    else:
        return list(candidates), []
    clean: list = []
    racy: list = []
    for cand in candidates:
        try:
            reports = verifier(cand)
        except (SpecError, ExecutionError):
            # invalid for these bounds — let the evaluator record it
            clean.append(cand)
            continue
        if reports:
            racy.append(RacyCandidate(cand, tuple(reports)))
        else:
            clean.append(cand)
    return clean, racy


def _search(candidates, evaluator, top_k, workers, verify) -> SearchResult:
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    candidates, racy = _split_racy(candidates, evaluator, verify)
    outcomes = _evaluate(candidates, evaluator, workers)
    failures = tuple(SearchFailure(o.candidate, o.error, o.traceback)
                     for o in outcomes if not o.valid)
    wall = time.perf_counter() - t0
    ranked = tuple(sorted((o for o in outcomes if o.valid),
                          key=lambda o: o.score, reverse=True))
    if top_k is not None:
        ranked = ranked[:top_k]
    evaluated = len(outcomes) - len(failures)
    obs = _obs()
    if obs.enabled:
        for kind, n in (("evaluated", evaluated), ("skipped", len(failures)),
                        ("racy", len(racy))):
            if n:
                obs.inc("tuner_candidates", n, kind=kind)
    return SearchResult(ranked, evaluated=evaluated, skipped=len(failures),
                        wall_seconds=wall, failures=failures,
                        racy=tuple(racy))


def _safe_eval(evaluator, candidate: Candidate) -> TuneOutcome:
    with _obs().span("candidate", label=candidate.label()):
        try:
            return evaluator(candidate)
        except (SpecError, ExecutionError) as exc:
            tb = f"{traceback.format_exc()}\n{exc!r}"
            return TuneOutcome(candidate, float("-inf"), float("inf"),
                               valid=False, error=str(exc), traceback=tb)


def _evaluate(candidates, evaluator, workers) -> list:
    if workers is not None and workers > 1 and len(candidates) > 1:
        parallel = _evaluate_parallel(candidates, evaluator, workers)
        if parallel is not None:
            return parallel
    return [_safe_eval(evaluator, c) for c in candidates]


# Evaluators are closures over loops/bodies/machines and cannot be
# pickled, so the parallel path is fork-only: workers inherit the work
# via this module-level slot and are sent plain index ranges.
_FORK_WORK: dict = {}


def _fork_eval_range(bounds) -> list:
    lo, hi = bounds
    candidates = _FORK_WORK["candidates"]
    evaluator = _FORK_WORK["evaluator"]
    return [_safe_eval(evaluator, candidates[i]) for i in range(lo, hi)]


def _evaluate_parallel(candidates, evaluator, workers):
    """Chunked fork-pool evaluation; None when fork is unavailable.

    Chunks are fixed index ranges and results are concatenated in order,
    so the outcome list is identical to the serial sweep regardless of
    scheduling.  Caches populated inside workers (trace/eval caches) die
    with them — warm the parent first if cache persistence matters.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    n = len(candidates)
    workers = min(int(workers), n)
    chunk = max(1, math.ceil(n / (workers * 4)))
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    _FORK_WORK["candidates"] = candidates
    _FORK_WORK["evaluator"] = evaluator
    try:
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(_fork_eval_range, bounds)
    finally:
        _FORK_WORK.clear()
    return [out for part in parts for out in part]
