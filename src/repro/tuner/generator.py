"""Exhaustive loop_spec_string generation under constraints (§II-D).

"A key observation is that all these decisions [blocking counts, blocking
sizes, parallelization, ordering] can be mapped in 1-on-1 fashion to a
specific loop_spec_string along with a list of block sizes."

A :class:`Candidate` is exactly that pair: a spec string plus the
block-step lists to inject into each loop's :class:`LoopSpecs`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields

from ..core.cache import global_nest_cache
from ..core.errors import ExecutionError, SpecError
from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from .constraints import TuningConstraints, prefix_products

__all__ = ["Candidate", "generate_candidates"]


@dataclass(frozen=True)
class Candidate:
    """One point of the tuning space."""

    spec_string: str
    block_steps: tuple       # per loop (alphabetical), tuple of steps

    def build_specs(self, base_specs) -> tuple:
        """Inject this candidate's blocking steps into the declarations."""
        out = []
        for spec, blocks in zip(base_specs, self.block_steps):
            out.append(LoopSpecs(spec.start, spec.bound, spec.step, blocks))
        return tuple(out)

    def build_loop(self, base_specs, num_threads=None, **kwargs
                   ) -> ThreadedLoop:
        return ThreadedLoop(self.build_specs(base_specs), self.spec_string,
                            num_threads=num_threads, **kwargs)

    def label(self) -> str:
        blocks = ";".join(",".join(map(str, b)) for b in self.block_steps)
        return f"{self.spec_string} [{blocks}]" if blocks else self.spec_string


def _blocking_options(spec: LoopSpecs, max_occ: int) -> list:
    """(occurrences, block_steps) choices for one loop.

    Block steps are descending chains drawn from the prefix products of
    the trip count's prime factorization, scaled by the loop step — each
    prefix product divides the next, so any descending subset is a valid
    perfectly-nested chain.
    """
    trips = (spec.bound - spec.start) // spec.step
    factors = [p * spec.step for p in prefix_products(trips)]
    options = [(1, ())]
    for t in range(2, max_occ + 1):
        need = t - 1
        for combo in itertools.combinations(sorted(factors, reverse=True),
                                            need):
            options.append((t, tuple(combo)))
    return options


def _capitalizations(counts: dict, constraints: TuningConstraints) -> list:
    """Choices of (char -> parallelized occurrence index) mappings."""
    par_chars = sorted(constraints.parallelizable)
    choices = []
    min_k = 1 if constraints.require_parallel else 0
    max_k = min(constraints.max_parallel_loops, len(par_chars))
    for k in range(min_k, max_k + 1):
        for subset in itertools.combinations(par_chars, k):
            occ_ranges = [range(counts[c]) for c in subset]
            for occs in itertools.product(*occ_ranges):
                choices.append(dict(zip(subset, occs)))
    if not choices:
        choices = [{}]
    return choices


def generate_candidates(base_specs, constraints: TuningConstraints,
                        verify=None) -> list:
    """Enumerate candidates; subsample to ``max_candidates`` if needed.

    The full space is (blocking options per loop) x (multiset
    permutations) x (capitalization choices) x (schedules); the paper's
    infrastructure enumerates the same axes with bash scripts.

    ``verify=`` takes a callable (candidate -> race reports, e.g.
    :func:`~repro.tuner.search.race_verifier`); candidates it flags are
    dropped at generation time, so racy spec strings never consume the
    ``max_candidates`` budget or an evaluator slot.  Candidates the
    verifier cannot build (invalid for these bounds) are kept — the
    search reports those as ordinary skips.

    Without *verify*, each (declarations, constraints) pool is enumerated
    once and kept by the global nest cache, so
    ``global_nest_cache().clear()`` empties it; every call returns a new
    list.
    """
    if verify is not None:
        return _enumerate(base_specs, constraints, verify)
    pool = global_nest_cache().derived(
        _pool_key(base_specs, constraints),
        lambda: tuple(_enumerate(base_specs, constraints, None)))
    return list(pool)


def _pool_key(base_specs, constraints: TuningConstraints) -> tuple:
    """Every input of an enumeration, hashable: the declarations and
    every :class:`TuningConstraints` field."""
    values = []
    for f in fields(constraints):
        v = getattr(constraints, f.name)
        if isinstance(v, dict):
            v = tuple(sorted(v.items()))
        elif isinstance(v, set):
            v = frozenset(v)
        elif isinstance(v, list):
            v = tuple(v)
        values.append(v)
    return ("candidates",
            tuple((s.start, s.bound, s.step, s.block_steps)
                  for s in base_specs), tuple(values))


def _enumerate(base_specs, constraints: TuningConstraints, verify) -> list:
    chars = [chr(ord("a") + i) for i in range(len(base_specs))]
    per_loop = []
    for ch, spec in zip(chars, base_specs):
        max_occ = constraints.max_occurrences.get(ch, 1)
        per_loop.append(_blocking_options(spec, max_occ))

    rng = random.Random(constraints.seed)
    out: list[Candidate] = []
    seen: set = set()
    budget = constraints.max_candidates

    combos = list(itertools.product(*per_loop))
    rng.shuffle(combos)
    # explore simplest (least-blocked) configurations first: they are
    # valid for any bounds and include the canonical collapse schedules
    combos.sort(key=lambda combo: sum(t for (t, _b) in combo))
    for combo in combos:
        counts = {ch: t for ch, (t, _b) in zip(chars, combo)}
        blocks = tuple(b for (_t, b) in combo)
        multiset = [c for ch, (t, _b) in zip(chars, combo)
                    for c in [ch] * t]
        perms = sorted(set(itertools.permutations(multiset)))
        rng.shuffle(perms)
        caps = _capitalizations(counts, constraints)
        for perm in perms:
            for cap in caps:
                occ_seen: dict = {}
                letters = []
                for c in perm:
                    k = occ_seen.get(c, 0)
                    occ_seen[c] = k + 1
                    letters.append(c.upper() if cap.get(c) == k else c)
                body = "".join(letters)
                if not _capitals_adjacent(body):
                    continue  # PAR-MODE 1 requires a contiguous run
                for sched in constraints.schedules:
                    s = f"{body} @ {sched}" if sched else body
                    key = (s, blocks)
                    if key in seen:
                        continue
                    seen.add(key)
                    cand = Candidate(s, blocks)
                    if verify is not None:
                        try:
                            if verify(cand):
                                continue
                        except (SpecError, ExecutionError):
                            pass
                    out.append(cand)
                    if budget is not None and len(out) >= budget:
                        return out
    return out


def _capitals_adjacent(body: str) -> bool:
    caps = [i for i, ch in enumerate(body) if ch.isupper()]
    return not caps or caps[-1] - caps[0] == len(caps) - 1
