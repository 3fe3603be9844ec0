"""Tuning-cost accounting (the Fig 4 "tuning time" axis).

A search's cost has two parts the paper compares stacks on: the
*harness* cost of generating/evaluating candidates (our wall clock) and
the *projected benchmarking* cost — what actually running every
candidate on hardware would take (kernel time x repetitions, which is
what TVM's 2.3-500x longer tuning is made of).  :class:`TuningCost`
derives both from a :class:`~repro.tuner.search.SearchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .search import SearchResult

__all__ = ["TuningCost"]


@dataclass(frozen=True)
class TuningCost:
    """Cost of one tuning run."""

    evaluated: int
    skipped: int
    #: wall-clock of the search harness itself (model/engine evaluation)
    wall_seconds: float
    #: projected cost of benchmarking every valid candidate on hardware
    projected_bench_seconds: float
    repeats: int
    #: per-skip diagnostics ("spec: error"), from ``SearchResult.failures``
    failure_reasons: tuple = ()
    #: candidates excluded by ``search(verify=...)``
    racy: int = 0
    #: per-racy-candidate diagnostics, from ``SearchResult.racy`` (each a
    #: "spec: RaceReport; ..." line)
    race_reports: tuple = ()

    @classmethod
    def from_search(cls, result: SearchResult,
                    repeats: int = 10) -> "TuningCost":
        """Account a finished search; *repeats* is how many times an
        offline benchmark would time each candidate."""
        bench = sum(o.seconds for o in result.outcomes
                    if o.valid and o.seconds != float("inf"))
        reasons = tuple(f"{f.candidate.spec_string}: {f.error}"
                        for f in result.failures)
        races = tuple(rc.describe() for rc in result.racy)
        return cls(evaluated=result.evaluated, skipped=result.skipped,
                   wall_seconds=result.wall_seconds,
                   projected_bench_seconds=bench * repeats,
                   repeats=repeats, failure_reasons=reasons,
                   racy=len(result.racy), race_reports=races)

    @property
    def per_candidate_seconds(self) -> float:
        if self.evaluated == 0:
            return 0.0
        return self.wall_seconds / self.evaluated

    def speedup_over(self, other: "TuningCost") -> float:
        """How much cheaper this tuning run is than *other* (projected
        hardware benchmarking cost ratio, the paper's comparison)."""
        if self.projected_bench_seconds <= 0:
            return float("inf")
        return other.projected_bench_seconds / self.projected_bench_seconds

    def describe(self) -> str:
        racy = f", {self.racy} racy" if self.racy else ""
        return (f"{self.evaluated} candidates ({self.skipped} skipped"
                f"{racy}) | "
                f"harness {self.wall_seconds:.2f}s | projected bench "
                f"{self.projected_bench_seconds:.2f}s @ {self.repeats} "
                f"repeats")
