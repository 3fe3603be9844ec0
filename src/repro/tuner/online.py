"""Admission-time tuning: pick a spec for an unseen shape, cheaply.

Offline tuning (:func:`~repro.tuner.tune.tune`) owns the Fig 4 sweeps;
serving sees GEMM shapes *arrive* — a new prompt length, a new ragged
batch — and must pick a loop spec under a latency budget, not after a
sweep.  :class:`OnlineTuner` is that path, a ladder of escalating cost:

0. **decision cache** — a shape already decided returns instantly;
1. **model-only** — a ridge model trained from the
   :class:`~repro.tuner.evalcache.EvalCache` corpus (grown by offline
   sweeps and by this tuner's own write-backs) picks the spec with zero
   exact evaluations;
2. **model + top-k exact** — the model's top picks (plus the incumbent
   default spec) are scored by the exact perf model, capped at
   ``max_exact`` evaluations and optionally a wall-clock budget.

Every exact evaluation is written back to the EvalCache, so the corpus
— and with it level 1's quality — grows in production.  Decisions and
counters are observable (``online_tuning`` counter, kinds ``cached`` /
``model_only`` / ``exact`` / ``default``).

Determinism: with ``budget_seconds=None`` (the default) the ladder is
count-limited only — no wall-clock reads — so serve/fleet runs that
embed an OnlineTuner stay byte-identical across reruns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs.context import current as _obs
from .constraints import TuningConstraints
from .evalcache import EvalCache
from .features import FeatureExtractor
from .generator import Candidate, generate_candidates
from .model import RidgeCostModel
from .search import perfmodel_evaluator, _safe_eval

__all__ = ["OnlineTuner", "TuneDecision"]


@dataclass(frozen=True)
class TuneDecision:
    """What the ladder decided for one shape."""

    spec_string: str
    block_steps: tuple
    score: float              # best known score (model- or exact-based)
    level: str                # "model_only" | "exact" | "default"
    n_model_evals: int = 0
    n_exact_evals: int = 0

    @property
    def is_default(self) -> bool:
        return self.level == "default"


@dataclass
class OnlineTuner:
    """Shared admission-time tuner for serve/fleet cost models.

    One instance may serve many cost models (a fleet's replicas share
    it), pooling the decision cache and the EvalCache corpus.

    Parameters
    ----------
    eval_cache:
        The corpus: read for model training, written back with every
        exact evaluation.  A fresh private cache by default.
    max_exact:
        Exact (perf-model) evaluations allowed per new shape; ``0``
        makes the ladder model-only.
    pool_budget:
        Candidates enumerated per shape (the model screens all of
        them).
    budget_seconds:
        Optional wall-clock cap on the exact stage.  ``None`` (default)
        keeps decisions deterministic — count-limited only.
    min_gain:
        Relative score improvement over the default spec required to
        switch (guards against swapping specs on model noise).
    """

    eval_cache: EvalCache = field(default_factory=EvalCache)
    max_exact: int = 6
    pool_budget: int = 64
    budget_seconds: float | None = None
    min_gain: float = 0.02
    sample_threads: int | None = 2

    def __post_init__(self):
        self._decisions: dict = {}
        self.n_model_evals = 0
        self.n_exact_evals = 0

    # -- the ladder -------------------------------------------------------

    def decide(self, kernel, machine) -> TuneDecision:
        """Pick a spec for *kernel* (a ``ParlooperGemm``-shaped object)
        on *machine*, consulting/growing the shared corpus."""
        key = (machine.name, kernel.M, kernel.N, kernel.K,
               str(kernel.dtype), kernel.num_threads)
        hit = self._decisions.get(key)
        obs = _obs()
        if hit is not None:
            if obs.enabled:
                obs.inc("online_tuning", kind="cached")
            return hit
        decision = self._decide(kernel, machine)
        self._decisions[key] = decision
        if obs.enabled:
            obs.inc("online_tuning", kind=decision.level)
        return decision

    def _decide(self, kernel, machine) -> TuneDecision:
        t0 = time.perf_counter() if self.budget_seconds is not None else 0.0
        base_specs = tuple(kernel.loop.specs)
        default = Candidate(kernel.spec_string,
                            ((),) * len(base_specs))
        constraints = TuningConstraints(
            max_occurrences={"a": 1, "b": 2, "c": 2},
            parallelizable=frozenset({"b", "c"}),
            max_candidates=self.pool_budget)
        pool = generate_candidates(base_specs, constraints)
        extractor = FeatureExtractor(base_specs=base_specs,
                                     machine=machine,
                                     num_threads=kernel.num_threads)
        model = RidgeCostModel(extractor.names)
        trained = model.fit_cache(self.eval_cache, extractor,
                                  machine_sig=machine.name)

        # rank the pool: by the model when the corpus allowed training,
        # by enumeration order (simplest-first) otherwise
        X, kept = extractor.matrix(pool)
        if trained and len(kept):
            self.n_model_evals += len(kept)
            order = model.rank(X)
            ranked = [pool[kept[i]] for i in order]
            n_model = len(kept)
        else:
            ranked = [pool[i] for i in kept]
            n_model = 0

        if self.max_exact <= 0:
            if trained and ranked:
                best = ranked[0]
                score = float(model.predict(extractor.vector(best)))
                return TuneDecision(best.spec_string, best.block_steps,
                                    score, "model_only",
                                    n_model_evals=n_model)
            return TuneDecision(default.spec_string, default.block_steps,
                                0.0, "default", n_model_evals=n_model)

        # exact stage: incumbent first, then the model's top picks
        workload_sig = (f"gemm-{kernel.dtype}-{kernel.M}x{kernel.N}x"
                        f"{kernel.K}-nt{kernel.num_threads}"
                        f"-st{self.sample_threads}")
        evaluator = self.eval_cache.wrap(
            perfmodel_evaluator(base_specs, kernel.sim_body(machine),
                                machine, num_threads=kernel.num_threads,
                                sample_threads=self.sample_threads,
                                total_flops=float(kernel.flops)),
            machine, workload_sig)
        outcomes = []
        n_exact = 0
        trials = [default] + [c for c in ranked
                              if (c.spec_string, c.block_steps)
                              != (default.spec_string, default.block_steps)]
        for cand in trials:
            if n_exact >= self.max_exact + 1:   # +1: the incumbent is free
                break
            if self.budget_seconds is not None and n_exact > 0 \
                    and time.perf_counter() - t0 >= self.budget_seconds:
                break
            out = _safe_eval(evaluator, cand)
            n_exact += 1
            if out.valid:
                outcomes.append(out)
        self.n_exact_evals += n_exact
        if not outcomes:
            return TuneDecision(default.spec_string, default.block_steps,
                                0.0, "default", n_model_evals=n_model,
                                n_exact_evals=n_exact)
        best = max(outcomes, key=lambda o: o.score)
        incumbent = outcomes[0] if outcomes[0].candidate is default else None
        if incumbent is not None and best.score \
                < incumbent.score * (1.0 + self.min_gain):
            best = incumbent
        level = "default" if best.candidate is default else "exact"
        return TuneDecision(best.candidate.spec_string,
                            best.candidate.block_steps, best.score, level,
                            n_model_evals=n_model, n_exact_evals=n_exact)

    # -- kernel rewriting -------------------------------------------------

    def retune(self, kernel, machine):
        """A retuned copy of *kernel* (``with_spec``), or ``None`` when
        the incumbent spec stands — the :class:`~repro.workloads.opsim.
        OpCostModel` hook."""
        decision = self.decide(kernel, machine)
        if decision.is_default:
            return None
        return kernel.with_spec(decision.spec_string,
                                block_steps=decision.block_steps)
