"""Model-guided beam search over spec-edit actions (ROADMAP item 2).

LoopTune's architecture on this repo's substrate: instead of exhausting
the enumerated candidate space through the exact simulator, a learned
cost model (:class:`~repro.tuner.model.RidgeCostModel`) screens the
whole pool for the price of a matrix multiply, the exact evaluator runs
only on the most promising survivors, and a short beam search then walks
*spec-edit actions* — reorder adjacent loops, move a blocking factor to
a neighboring prefix-product, re-capitalize which loop is parallelized —
outward from the incumbents, model-screening each neighborhood before
spending exact evaluations.

The :class:`~repro.tuner.search.TuneReport` it returns counts
``n_model_evals`` vs ``n_exact_evals`` explicitly: the whole point of
the architecture is that the first number may be thousands while the
second stays tens, with the same top-1
(``benchmarks/bench_guided_search.py`` asserts a >= 10x gap on the Fig 4
testbeds).

Determinism: candidate order, model bootstrap sampling (evenly strided,
no RNG), edit generation, and all tie-breaks (stable sorts keyed on
candidate order) are deterministic — two runs of the same guided search
return identical reports.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.cache import global_nest_cache
from ..core.errors import SpecError
from ..obs.context import current as _obs
from .constraints import TuningConstraints, prefix_products
from .generator import Candidate, _capitals_adjacent
from .model import RidgeCostModel
from .search import SearchFailure, TuneReport, _safe_eval

__all__ = ["guided_search", "edit_neighbors"]


# -- spec-edit actions ----------------------------------------------------

def _split_directive(spec_string: str) -> tuple:
    body, sep, directive = spec_string.partition(" @ ")
    return body, (sep + directive)


def _reorder_neighbors(cand: Candidate) -> list:
    """Swap each pair of adjacent loop letters (PAR-MODE 1 bodies)."""
    body, directive = _split_directive(cand.spec_string)
    if "{" in body or "|" in body:
        return []   # grid/barrier specs: reordering changes semantics
    out = []
    for i in range(len(body) - 1):
        if body[i] == body[i + 1]:
            continue
        swapped = body[:i] + body[i + 1] + body[i] + body[i + 2:]
        if _capitals_adjacent(swapped):
            out.append(Candidate(swapped + directive, cand.block_steps))
    return out


def _retile_neighbors(cand: Candidate, base_specs) -> list:
    """Move one blocking factor to its neighboring prefix-product."""
    out = []
    for li, (spec, blocks) in enumerate(zip(base_specs, cand.block_steps)):
        if not blocks:
            continue
        trips = (spec.bound - spec.start) // spec.step
        ladder = [p * spec.step for p in prefix_products(trips)]
        for bi, b in enumerate(blocks):
            try:
                pos = ladder.index(b)
            except ValueError:
                continue
            for npos in (pos - 1, pos + 1):
                if not 0 <= npos < len(ladder):
                    continue
                nb = ladder[npos]
                cand_blocks = blocks[:bi] + (nb,) + blocks[bi + 1:]
                # keep the chain strictly descending (perfect nesting)
                if list(cand_blocks) != sorted(set(cand_blocks),
                                               reverse=True):
                    continue
                steps = (cand.block_steps[:li] + (cand_blocks,)
                         + cand.block_steps[li + 1:])
                out.append(Candidate(cand.spec_string, steps))
    return out


def _recap_neighbors(cand: Candidate,
                     constraints: TuningConstraints) -> list:
    """Move the parallel decoration to another loop/occurrence."""
    body, directive = _split_directive(cand.spec_string)
    if "{" in body:
        return []   # PAR-MODE 2 grids keep their explicit placement
    lower = body.lower()
    out = []
    for ch in sorted(constraints.parallelizable):
        for i, c in enumerate(lower):
            if c != ch:
                continue
            flipped = lower[:i] + c.upper() + lower[i + 1:]
            if flipped != body:
                out.append(Candidate(flipped + directive, cand.block_steps))
    if not constraints.require_parallel and lower != body:
        out.append(Candidate(lower + directive, cand.block_steps))
    return out


def edit_neighbors(cand: Candidate, base_specs,
                   constraints: TuningConstraints) -> list:
    """All valid one-edit neighbors of *cand*: reorders, retiles, recaps.

    Neighbors are validated by building their plan against *base_specs*
    (same legality bar as the enumerator) and checked against the
    constraint set; order is deterministic.
    """
    raw = (_reorder_neighbors(cand)
           + _retile_neighbors(cand, base_specs)
           + _recap_neighbors(cand, constraints))
    out, seen = [], set()
    for n in raw:
        key = (n.spec_string, n.block_steps)
        if key in seen:
            continue
        seen.add(key)
        if not _admissible(n, base_specs, constraints):
            continue
        out.append(n)
    return out


def _admissible(cand: Candidate, base_specs,
                constraints: TuningConstraints) -> bool:
    """Whether *cand* plans under *base_specs* and its plan's levels
    keep the constraints' occurrence counts and parallel loops."""
    try:
        plan = global_nest_cache().plan(cand.build_specs(base_specs),
                                        cand.spec_string)
    except SpecError:
        return False
    counts: dict = {}
    par: set = set()
    for lv in plan.levels:
        counts[lv.char] = counts.get(lv.char, 0) + 1
        if lv.parallel or lv.grid_axis:
            par.add(lv.char)
    for ch, n in counts.items():
        if n > constraints.max_occurrences.get(ch, 1):
            return False
    if not par.issubset(constraints.parallelizable):
        return False
    if len(par) > constraints.max_parallel_loops:
        return False
    if constraints.require_parallel and not par:
        return False
    return True


# -- the guided search ----------------------------------------------------

def guided_search(candidates, evaluator, extractor, base_specs,
                  constraints: TuningConstraints, *,
                  model: RidgeCostModel | None = None,
                  exact_budget: int | None = None,
                  beam_width: int = 4, max_rounds: int = 3,
                  bootstrap: int | None = None,
                  top_k: int | None = None) -> TuneReport:
    """Find the best candidate spending exact evaluations sparingly.

    *candidates* is the enumerated pool (``generate_candidates``
    output); *evaluator* the exact scorer (perfmodel/engine evaluator);
    *extractor* a :class:`~repro.tuner.features.FeatureExtractor` over
    the same *base_specs*.

    Stages, all counted in the returned
    :class:`~repro.tuner.search.TuneReport` (``strategy="guided"``):

    1. **bootstrap** (skipped when a fitted *model* is passed): an evenly
       strided sample of the pool is exact-evaluated and a fresh ridge
       model fitted on it;
    2. **screen**: the model scores the entire pool; the best unseen
       ``beam_width`` candidates are exact-evaluated;
    3. **beam rounds**: up to *max_rounds* rounds of one-edit
       neighborhoods (:func:`edit_neighbors`) around the incumbent beam,
       each neighborhood model-screened and only its top slice
       exact-evaluated; stops early when the budget is exhausted or a
       round finds no improvement.

    ``exact_budget`` caps total exact evaluations (default
    ``max(4 * beam_width, len(pool) // 10)``).
    """
    with _obs().span("guided_search"):
        return _guided_search(candidates, evaluator, extractor, base_specs,
                              constraints, model, exact_budget, beam_width,
                              max_rounds, bootstrap, top_k)


def _guided_search(candidates, evaluator, extractor, base_specs,
                   constraints, model, exact_budget, beam_width,
                   max_rounds, bootstrap, top_k) -> TuneReport:
    t0 = time.perf_counter()
    pool = list(candidates)
    if not pool:
        raise ValueError("guided_search needs a non-empty candidate pool")
    if exact_budget is None:
        exact_budget = max(4 * beam_width, len(pool) // 10)
    if bootstrap is None:
        bootstrap = min(max(8, exact_budget // 3), exact_budget)

    n_model = 0
    n_exact = 0
    trained_rows = 0
    failures: list = []
    evaluated: dict = {}      # (spec, blocks) -> TuneOutcome (valid only)

    def run_exact(cands) -> list:
        nonlocal n_exact
        fresh = []
        for c in cands:
            key = (c.spec_string, c.block_steps)
            if key in evaluated or n_exact >= exact_budget:
                continue
            out = _safe_eval(evaluator, c)
            n_exact += 1
            if out.valid:
                evaluated[key] = out
                fresh.append(out)
            else:
                failures.append(SearchFailure(c, out.error, out.traceback))
        return fresh

    # 1. bootstrap a model when none was supplied
    if model is None or not model.fitted:
        stride = max(1, len(pool) // max(1, bootstrap))
        seed_cands = pool[::stride][:bootstrap]
        seeds = run_exact(seed_cands)
        model = RidgeCostModel(extractor.names)
        if len(seeds) >= 2:
            X, kept = extractor.matrix([o.candidate for o in seeds])
            if len(kept) >= 2:
                y = np.asarray([seeds[i].score for i in kept])
                model.fit(X, y)
                trained_rows = model.n_fit_

    # 2. screen the full pool with the model
    X, kept = extractor.matrix(pool)
    if model.fitted and len(kept):
        n_model += len(kept)
        order = model.rank(X)
        screened = [pool[kept[i]] for i in order]
    else:
        # unfit model (degenerate bootstrap): fall back to pool order
        screened = [pool[i] for i in kept]
    unseen = [c for c in screened
              if (c.spec_string, c.block_steps) not in evaluated]
    run_exact(unseen[:beam_width])

    # 3. beam rounds over edit neighborhoods
    rounds = 0
    for _ in range(max_rounds):
        if n_exact >= exact_budget:
            break
        beam = sorted(evaluated.values(), key=lambda o: o.score,
                      reverse=True)[:beam_width]
        if not beam:
            break
        neighborhood, seen = [], set()
        for out in beam:
            for n in edit_neighbors(out.candidate, base_specs, constraints):
                key = (n.spec_string, n.block_steps)
                if key in seen or key in evaluated:
                    continue
                seen.add(key)
                neighborhood.append(n)
        if not neighborhood:
            break
        rounds += 1
        if model.fitted:
            Xn, keptn = extractor.matrix(neighborhood)
            n_model += len(keptn)
            ordern = model.rank(Xn) if len(keptn) else []
            ranked = [neighborhood[keptn[i]] for i in ordern]
        else:
            ranked = neighborhood
        best_before = max(o.score for o in evaluated.values()) \
            if evaluated else float("-inf")
        take = min(beam_width, exact_budget - n_exact)
        run_exact(ranked[:take])
        best_after = max(o.score for o in evaluated.values()) \
            if evaluated else float("-inf")
        if best_after <= best_before:
            break   # neighborhood exhausted its promise

    ranked = tuple(sorted(evaluated.values(), key=lambda o: o.score,
                          reverse=True))
    if top_k is not None:
        ranked = ranked[:top_k]
    n_pruned = len(pool) - n_exact
    obs = _obs()
    if obs.enabled:
        obs.inc("tuner_candidates", n_exact, kind="guided_exact")
        obs.inc("tuner_candidates", n_model, kind="guided_model")
    return TuneReport(
        "guided", ranked, n_candidates=len(pool), n_model_evals=n_model,
        n_exact_evals=n_exact, n_pruned=max(0, n_pruned),
        n_skipped=len(failures), n_racy=0,
        wall_seconds=time.perf_counter() - t0, failures=tuple(failures),
        rounds=rounds, trained_rows=trained_rows)
