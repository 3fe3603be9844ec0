"""Offline candidate search (Fig 1 Box B2 -> Arrow 1).

Candidates are benchmarked by an *evaluator* — the lightweight perf model
(cheap, cross-architecture, §II-E) or the full engine — and ranked; the
best spec string becomes the runtime knob.  Zero lines of user kernel code
change across candidates.

Each evaluator captures traces through one
:class:`~repro.simulator.memo.TraceCache` (``trace_cache=``, or a
private one made when the evaluator is built), so the candidates of a
sweep share capture; pass one cache to several evaluators to share it
across machines too.

Every ranking path — :func:`search`, :func:`~repro.tuner.guided.
guided_search` and :func:`~repro.tuner.tune.tune` — reports one
:class:`TuneReport`.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from ..core.errors import ExecutionError, SpecError
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from ..simulator.engine import simulate
from ..simulator.memo import TraceCache
from ..simulator.perfmodel import predict
from .generator import Candidate

__all__ = ["TuneOutcome", "TuneReport", "SearchFailure", "RacyCandidate",
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
    #: formatted traceback + ``repr`` of the failure, captured at raise
    #: time so the report keeps its diagnostics
    traceback: str = ""


@dataclass(frozen=True)
class SearchFailure:
    """Why one candidate was skipped."""

    candidate: Candidate
    error: str
    #: full formatted traceback (ending in ``repr(exc)``-style text)
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
class TuneReport:
    """Everything one ranking run did, with its budget split."""

    strategy: str             # "exhaustive" | "guided"
    outcomes: tuple           # valid outcomes, sorted by score, best first
    n_candidates: int         # enumerated pool size
    #: cheap scorings (learned model for "guided", 0 for "exhaustive")
    n_model_evals: int
    #: exact evaluator invocations ("exhaustive": those that produced a
    #: valid score)
    n_exact_evals: int
    #: candidates the model dropped without an exact evaluation
    n_pruned: int
    #: candidates skipped as invalid for these bounds (build/eval errors)
    n_skipped: int
    #: candidates excluded by race verification
    n_racy: int
    wall_seconds: float
    failures: tuple = ()      # SearchFailure per skipped candidate
    racy: tuple = ()          # RacyCandidate per excluded candidate
    #: guided edit-neighborhood rounds run (0 for "exhaustive")
    rounds: int = 0
    #: rows the guided bootstrap trained the model on (0 for
    #: "exhaustive" or when a fitted model was supplied)
    trained_rows: int = 0

    @property
    def best(self) -> TuneOutcome:
        if not self.outcomes:
            raise ValueError("tuning produced no valid outcomes")
        return self.outcomes[0]

    @property
    def best_spec(self) -> str:
        return self.best.candidate.spec_string

    def top(self, k: int) -> tuple:
        return self.outcomes[:k]

    def summary(self) -> str:
        head = (f"{self.strategy}: {self.n_candidates} candidates, "
                f"{self.n_model_evals} model / {self.n_exact_evals} exact "
                f"evals, {self.n_pruned} pruned, {self.n_skipped} skipped, "
                f"{self.n_racy} racy, {self.wall_seconds:.2f}s")
        if self.outcomes:
            head += (f"\nbest: {self.best.candidate.label()} @ "
                     f"{self.best.score:.1f}")
        return head


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
    The sweep traces each iteration order once through ``trace_cache``
    (:class:`~repro.simulator.memo.TraceCache`; one private cache when
    None) and replays it through the vectorized reuse-distance
    simulator.
    """
    if trace_cache is None:
        trace_cache = TraceCache()

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
    """Evaluator using the full engine — the 'benchmark offline' path.
    Candidates share capture through ``trace_cache`` (one private
    :class:`~repro.simulator.memo.TraceCache` when None)."""
    if trace_cache is None:
        trace_cache = TraceCache()

    def evaluate(candidate: Candidate) -> TuneOutcome:
        loop = candidate.build_loop(base_specs, num_threads=num_threads)
        res = simulate(loop, sim_body, machine, trace_cache=trace_cache)
        return TuneOutcome(candidate, res.gflops, res.seconds)
    evaluate.verifier = race_verifier(base_specs, sim_body, num_threads)
    return evaluate


def search(candidates, evaluator, top_k: int | None = None,
           verify=False) -> TuneReport:
    """Evaluate candidates, skipping ones invalid for these loop bounds
    (imperfect blocking chains etc.) or whose evaluation fails at
    runtime, and rank by score.  A poisoned candidate is recorded as an
    invalid outcome — it never aborts the rest of the search; skipped
    candidates are reported in ``report.failures``.

    ``verify=True`` runs the race detector over every candidate before
    any evaluation, using the ``.verifier`` the stock evaluators carry
    (:func:`race_verifier` under the hood); racy candidates are excluded
    from the ranking and surfaced in ``report.racy`` with their
    :class:`~repro.verify.races.RaceReport` diagnostics — an auto-tuner
    must never recommend a spec that wins by corrupting C.  Pass a
    callable (candidate -> reports) to verify with custom logic.
    """
    with _obs().span("search"):
        return _search(candidates, evaluator, top_k, verify)


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


def _search(candidates, evaluator, top_k, verify) -> TuneReport:
    t0 = time.perf_counter()
    candidates, racy = _split_racy(candidates, evaluator, verify)
    outcomes = [_safe_eval(evaluator, c) for c in candidates]
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
    return TuneReport(
        "exhaustive", ranked, n_candidates=len(candidates) + len(racy),
        n_model_evals=0, n_exact_evals=evaluated, n_pruned=0,
        n_skipped=len(failures), n_racy=len(racy), wall_seconds=wall,
        failures=failures, racy=tuple(racy))


def _safe_eval(evaluator, candidate: Candidate) -> TuneOutcome:
    with _obs().span("candidate", label=candidate.label()):
        try:
            return evaluator(candidate)
        except (SpecError, ExecutionError) as exc:
            tb = f"{traceback.format_exc()}\n{exc!r}"
            return TuneOutcome(candidate, float("-inf"), float("inf"),
                               valid=False, error=str(exc), traceback=tb)
