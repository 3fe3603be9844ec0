"""Tuning constraints (§II-D).

The paper's auto-tuner enumerates loop_spec_strings "that observe a set of
constraints": per-loop blocking depth (multi-level caches), blocking
factors from the prime factorization of trip counts, which loops may be
parallelized, and all permutations thereof.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import SpecError

__all__ = ["TuningConstraints", "prime_factors", "prefix_products"]


def prime_factors(n: int) -> list:
    """Prime factorization of *n* (ascending, with multiplicity)."""
    if n < 1:
        raise ValueError(f"prime_factors expects a positive int, got {n}")
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prefix_products(n: int) -> list:
    """Proper prefix products of the prime factorization of *n*.

    "find the prime factorization of T_i = p0 * ... * pn.  Then pick as
    block factors the prefix products of the prime factors" (§II-D):
    e.g. 24 = 2*2*2*3 -> [2, 4, 8] (excluding 1 and 24 itself).
    """
    prods = []
    acc = 1
    for p in prime_factors(n)[:-1]:
        acc *= p
        if acc not in prods:
            prods.append(acc)
    return prods


@dataclass(frozen=True)
class TuningConstraints:
    """What the candidate generator may explore.

    Parameters mirror the paper's GEMM example: "Block loop a up to 2
    times, and loops b and c up to 3 times", "we may decide to
    parallelize the M (b) and the N (c) logical loops".
    """

    #: per-loop max occurrence count, e.g. {"a": 2, "b": 3, "c": 3}
    max_occurrences: dict
    #: loop chars that may be parallelized (semantic legality is the
    #: user's responsibility, §II-C)
    parallelizable: frozenset
    #: require at least one parallel loop in every candidate
    require_parallel: bool = True
    #: at most this many loops parallelized per candidate
    max_parallel_loops: int = 2
    #: schedule directive suffixes to explore ("" = default static)
    schedules: tuple = ("",)
    #: cap on generated candidates (None = exhaustive)
    max_candidates: int | None = 1000
    #: RNG seed for subsampling when the space exceeds max_candidates
    seed: int = 0

    def __post_init__(self):
        for ch, cnt in self.max_occurrences.items():
            if not ("a" <= ch <= "z"):
                raise SpecError(f"invalid loop mnemonic {ch!r}")
            if cnt < 1:
                raise SpecError(
                    f"loop {ch!r} must be allowed at least one occurrence")
        for ch in self.parallelizable:
            if ch not in self.max_occurrences:
                raise SpecError(
                    f"parallelizable loop {ch!r} not among declared loops")

    @staticmethod
    def gemm_default(parallel=("b", "c")) -> "TuningConstraints":
        """The paper's §II-D GEMM constraint set."""
        return TuningConstraints(
            max_occurrences={"a": 2, "b": 3, "c": 3},
            parallelizable=frozenset(parallel),
        )
