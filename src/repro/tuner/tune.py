"""One-call tuning: ``tune(kernel, machine=..., strategy=...)``.

The classic surface was a three-call dance — ``generate_candidates`` →
``perfmodel_evaluator``/``engine_evaluator`` → ``search`` — with the
caller threading specs, bodies, and caches between them.  :func:`tune`
collapses it: give it a kernel (a GEMM, conv or SpMM
:class:`~repro.kernels.base.ParlooperKernel`: its ``loop``,
``sim_body(machine)``, ``flops`` and ``num_threads``) or a bare spec
declaration list, pick a strategy, and get a :class:`TuneReport` back.

Strategies:

* ``"exhaustive"`` — every enumerated candidate through the exact
  evaluator; delegates verbatim to :func:`repro.tuner.search.search`, so
  the ranking is bit-identical to the classic path;
* ``"guided"`` — the learned path (:func:`repro.tuner.guided.
  guided_search`): ridge cost model screens the pool and a beam search
  over spec-edit actions spends exact evaluations only on survivors.

Evaluators are interchangeable under the :class:`Evaluator` protocol —
pass ``evaluator="perfmodel"``/``"engine"`` for the stock ones or any
``candidate -> TuneOutcome`` callable (carry a ``.verifier`` attribute
to support ``verify=True``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..core.loop_spec import LoopSpecs
from ..obs.context import current as _obs
from .constraints import TuningConstraints
from .features import FeatureExtractor
from .generator import generate_candidates
from .guided import guided_search
from .search import (TuneOutcome, _split_racy, engine_evaluator,
                     perfmodel_evaluator, search)

__all__ = ["Evaluator", "TuneReport", "tune"]


@runtime_checkable
class Evaluator(Protocol):
    """What a tuning strategy needs from a scorer: ``candidate ->
    TuneOutcome``.  The stock factories
    (:func:`~repro.tuner.search.perfmodel_evaluator`,
    :func:`~repro.tuner.search.engine_evaluator`) additionally attach a
    ``.verifier`` used by ``verify=True``; custom evaluators may too."""

    def __call__(self, candidate) -> TuneOutcome: ...


@dataclass(frozen=True)
class TuneReport:
    """Everything one :func:`tune` call did, with its budget split."""

    strategy: str
    outcomes: tuple           # valid outcomes, sorted by score, best first
    n_candidates: int         # enumerated pool size
    #: cheap scorings (learned model for "guided", 0 for "exhaustive")
    n_model_evals: int
    #: exact evaluator invocations that produced a valid score
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


def _default_constraints(base_specs) -> TuningConstraints:
    chars = [chr(ord("a") + i) for i in range(len(base_specs))]
    return TuningConstraints(
        max_occurrences={c: 2 for c in chars},
        parallelizable=frozenset(chars[1:] or chars))


def tune(kernel_or_specs, *, machine=None, sim_body=None,
         constraints: TuningConstraints | None = None,
         candidates=None, budget: int | None = None,
         strategy: str = "exhaustive", evaluator="perfmodel",
         num_threads: int | None = None,
         sample_threads: int | None = 4,
         total_flops: float | None = None,
         verify=False, top_k: int | None = None,
         workers: int | None = None,
         model=None, exact_budget: int | None = None,
         beam_width: int = 4, max_rounds: int = 3,
         trace_cache=None, eval_cache=None,
         workload_sig: str | None = None) -> TuneReport:
    """Tune *kernel_or_specs* on *machine* and rank the outcomes.

    Parameters
    ----------
    kernel_or_specs:
        A kernel (its ``loop``, ``sim_body(machine)``, ``flops`` and
        ``num_threads``) or a list of
        :class:`~repro.core.loop_spec.LoopSpecs` (then pass *sim_body*).
    machine:
        Target :class:`~repro.platform.machine.MachineModel` (required).
    constraints / budget / candidates:
        The search space: explicit *candidates* win; otherwise the space
        is enumerated from *constraints* (sensible defaults per the
        declaration when omitted) capped at *budget* candidates.
    strategy:
        ``"exhaustive"`` | ``"guided"`` (see module docstring).
    evaluator:
        ``"perfmodel"`` | ``"engine"`` | any :class:`Evaluator`.
    verify:
        ``True`` runs race detection before evaluation (racy candidates
        land in ``report.racy``); a callable supplies custom logic.
    model / exact_budget / beam_width / max_rounds:
        Guided-strategy knobs (a pre-trained
        :class:`~repro.tuner.model.RidgeCostModel` skips the bootstrap).
    trace_cache / eval_cache / workload_sig:
        Session caches.  *eval_cache* warm-starts scoring and absorbs
        new results; it needs *workload_sig* to key entries.
    """
    t0 = time.perf_counter()
    if machine is None:
        raise ValueError("tune() needs machine=")
    if strategy not in ("exhaustive", "guided"):
        raise ValueError(
            f"unknown strategy {strategy!r}: expected 'exhaustive' or "
            "'guided'")

    # resolve the kernel protocol vs bare declarations
    if isinstance(kernel_or_specs, (list, tuple)) and all(
            isinstance(s, LoopSpecs) for s in kernel_or_specs):
        base_specs = tuple(kernel_or_specs)
        if sim_body is None:
            raise ValueError(
                "tune(specs, ...) needs sim_body= (kernel objects carry "
                "their own)")
    else:
        kernel = kernel_or_specs
        base_specs = tuple(kernel.loop.specs)
        if sim_body is None:
            # the kernel's cached body: a stable identity lets repeated
            # tunes hit the session trace cache
            sim_body = kernel._cached_sim_body(machine)
        if total_flops is None:
            total_flops = float(getattr(kernel, "flops", 0)) or None
        if num_threads is None:
            num_threads = kernel.num_threads

    if constraints is None:
        constraints = _default_constraints(base_specs)
    if budget is not None and constraints.max_candidates != budget:
        from dataclasses import replace
        constraints = replace(constraints, max_candidates=budget)
    if candidates is None:
        candidates = generate_candidates(base_specs, constraints)
    else:
        candidates = list(candidates)

    if evaluator == "perfmodel":
        exact = perfmodel_evaluator(
            base_specs, sim_body, machine, num_threads=num_threads,
            sample_threads=sample_threads, total_flops=total_flops,
            trace_cache=trace_cache)
    elif evaluator == "engine":
        exact = engine_evaluator(
            base_specs, sim_body, machine, num_threads=num_threads,
            trace_cache=trace_cache)
    elif callable(evaluator):
        exact = evaluator
    else:
        raise ValueError(
            f"evaluator must be 'perfmodel', 'engine' or a callable, "
            f"got {evaluator!r}")
    if eval_cache is not None:
        if workload_sig is None:
            raise ValueError("eval_cache= needs workload_sig= to key "
                             "entries")
        cached = eval_cache.wrap(exact, machine, workload_sig)
        cached.verifier = getattr(exact, "verifier", None)
        exact = cached

    with _obs().span("tune", strategy=strategy,
                     candidates=len(candidates)):
        if strategy == "guided":
            return _tune_guided(
                candidates, exact, base_specs, constraints, machine,
                num_threads, verify, model, exact_budget, beam_width,
                max_rounds, top_k, t0)
        result = search(candidates, exact, top_k=top_k, workers=workers,
                        verify=verify)
        return TuneReport(
            strategy=strategy, outcomes=result.outcomes,
            n_candidates=len(candidates), n_model_evals=0,
            n_exact_evals=result.evaluated, n_pruned=0,
            n_skipped=result.skipped, n_racy=len(result.racy),
            wall_seconds=time.perf_counter() - t0,
            failures=result.failures, racy=result.racy)


def _tune_guided(candidates, exact, base_specs, constraints, machine,
                 num_threads, verify, model, exact_budget, beam_width,
                 max_rounds, top_k, t0) -> TuneReport:
    clean, racy = _split_racy(candidates, exact, verify)
    extractor = FeatureExtractor(base_specs=base_specs, machine=machine,
                                 num_threads=num_threads)
    result = guided_search(clean, exact, extractor, base_specs,
                           constraints, model=model,
                           exact_budget=exact_budget,
                           beam_width=beam_width, max_rounds=max_rounds,
                           top_k=top_k)
    return TuneReport(
        strategy="guided", outcomes=result.outcomes,
        n_candidates=len(candidates),
        n_model_evals=result.n_model_evals,
        n_exact_evals=result.n_exact_evals, n_pruned=result.n_pruned,
        n_skipped=len(result.failures), n_racy=len(racy),
        wall_seconds=time.perf_counter() - t0,
        failures=result.failures, racy=tuple(racy))
