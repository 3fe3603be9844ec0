"""Admission-time tuning: pick a spec for an unseen shape, cheaply.

Offline tuning (:func:`~repro.tuner.tune.tune`) owns the Fig 4 sweeps;
serving sees GEMM shapes *arrive* — a new prompt length, a new ragged
batch — and must pick a loop spec under a latency budget, not after a
sweep.  :class:`OnlineTuner` is a decision cache over :func:`tune`:

0. **decision cache** — a kernel already decided returns instantly.
   The key is the kernel's trace-cache body key (shape, blocking,
   dtype, epilogue, machine), its thread count and its incumbent spec;
1. **model-only** (``max_exact <= 0``) — a ridge model trained from the
   :class:`~repro.tuner.evalcache.EvalCache` corpus picks the spec with
   zero exact evaluations;
2. **guided** — one exact evaluation of the incumbent, then
   ``tune(strategy="guided", exact_budget=max_exact)``, screened by the
   corpus model when one trains.  The pick replaces the incumbent only
   when it wins by ``min_gain``.

Every exact evaluation lands in the EvalCache, so the corpus — and
with it level 1's quality — grows in production.  Decisions are
observable as the ``online_tuning`` counter (kinds ``cached`` /
``model_only`` / ``exact`` / ``default``).  Nothing reads the wall
clock, so serve/fleet runs that embed an OnlineTuner stay
byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.context import current as _obs
from ..simulator.memo import TraceCache
from .constraints import TuningConstraints
from .evalcache import EvalCache
from .features import FeatureExtractor
from .generator import Candidate, generate_candidates
from .model import RidgeCostModel
from .tune import tune

__all__ = ["OnlineTuner", "TuneDecision"]


@dataclass(frozen=True)
class TuneDecision:
    """What the tuner decided for one kernel."""

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
    it), pooling the decision cache, the trace cache and the EvalCache
    corpus.

    Parameters
    ----------
    eval_cache:
        The corpus: read for model training, written back with every
        exact evaluation.  A fresh private cache by default.
    max_exact:
        Exact (perf-model) evaluations allowed per new kernel on top of
        the incumbent's; ``0`` makes the tuner model-only.
    pool_budget:
        Candidates enumerated per kernel (the model screens all of
        them).
    min_gain:
        Relative score improvement over the default spec required to
        switch (guards against swapping specs on model noise).
    """

    eval_cache: EvalCache = field(default_factory=EvalCache)
    max_exact: int = 6
    pool_budget: int = 64
    min_gain: float = 0.02
    sample_threads: int | None = 2

    def __post_init__(self):
        self._decisions: dict = {}
        self._trace_cache = TraceCache()
        self.n_model_evals = 0
        self.n_exact_evals = 0

    def decide(self, kernel, machine) -> TuneDecision:
        """Pick a spec for *kernel* (a ``ParlooperGemm``-shaped object)
        on *machine*, consulting/growing the shared corpus."""
        key = (*kernel._body_key(machine), kernel.num_threads,
               kernel.spec_string)
        hit = self._decisions.get(key)
        obs = _obs()
        if hit is not None:
            if obs.enabled:
                obs.inc("online_tuning", kind="cached")
            return hit
        # the EvalCache cannot see the body: sign entries with the key
        workload_sig = "-".join(map(str, (*key[:-1],
                                          f"st{self.sample_threads}")))
        decision = self._decide(kernel, machine, workload_sig)
        self._decisions[key] = decision
        self.n_model_evals += decision.n_model_evals
        self.n_exact_evals += decision.n_exact_evals
        if obs.enabled:
            obs.inc("online_tuning", kind=decision.level)
        return decision

    def _decide(self, kernel, machine, workload_sig) -> TuneDecision:
        base_specs = tuple(kernel.loop.specs)
        default = Candidate(kernel.spec_string, ((),) * len(base_specs))
        constraints = TuningConstraints(
            max_occurrences={"a": 1, "b": 2, "c": 2},
            parallelizable=frozenset({"b", "c"}),
            max_candidates=self.pool_budget)
        extractor = FeatureExtractor(base_specs=base_specs,
                                     machine=machine,
                                     num_threads=kernel.num_threads)
        model = RidgeCostModel(extractor.names)
        trained = model.fit_cache(self.eval_cache, extractor,
                                  machine_sig=machine.name)
        if self.max_exact <= 0:
            # the corpus model's top pick, or the default when none trained
            pool = generate_candidates(base_specs, constraints)
            X, kept = extractor.matrix(pool)
            if not trained or not len(kept):
                return TuneDecision(default.spec_string,
                                    default.block_steps, 0.0, "default")
            best = pool[kept[model.rank(X)[0]]]
            score = float(model.predict(extractor.vector(best)))
            return TuneDecision(best.spec_string, best.block_steps, score,
                                "model_only", n_model_evals=len(kept))

        common = dict(machine=machine, sample_threads=self.sample_threads,
                      trace_cache=self._trace_cache,
                      eval_cache=self.eval_cache, workload_sig=workload_sig)
        incumbent = tune(kernel, candidates=[default], **common)
        # an unfitted corpus model makes guided search bootstrap its own
        pick = tune(kernel, strategy="guided", constraints=constraints,
                    model=model, exact_budget=self.max_exact,
                    beam_width=self.max_exact, max_rounds=0, **common)
        n_model = pick.n_model_evals
        n_exact = 1 + pick.n_exact_evals      # + the incumbent's
        inc = incumbent.outcomes[0] if incumbent.outcomes else None
        best = pick.outcomes[0] if pick.outcomes else inc
        if best is None:
            return TuneDecision(default.spec_string, default.block_steps,
                                0.0, "default", n_model_evals=n_model,
                                n_exact_evals=n_exact)
        if inc is not None and (
                best.score <= inc.score
                or best.score < inc.score * (1.0 + self.min_gain)):
            best = inc
        return TuneDecision(best.candidate.spec_string,
                            best.candidate.block_steps, best.score,
                            "default" if best is inc else "exact",
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
