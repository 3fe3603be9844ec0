"""Failure diagnostics survive the search — including across fork.

A ``TuneOutcome``/``SearchFailure`` is all that returns from a forked
worker; the exception object dies with the process.  The formatted
traceback is captured at raise time so ``result.failures`` keeps its
diagnostics on every path.
"""

import pytest

from repro.core import LoopSpecs, SpecError
from repro.tuner import (TuneOutcome, TuningConstraints,
                         generate_candidates, search)

SPECS = (LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1))
CONS = TuningConstraints({"a": 1, "b": 2, "c": 2}, frozenset({"b", "c"}),
                         max_candidates=12)


def exploding_evaluator(candidate):
    def inner_frame():
        raise SpecError("kaboom for " + candidate.spec_string)
    inner_frame()


class TestFailureTraceback:
    def test_serial_failures_carry_formatted_traceback(self):
        pool = generate_candidates(SPECS, CONS)
        result = search(pool, exploding_evaluator)
        assert result.skipped == len(pool)
        for failure in result.failures:
            assert "kaboom for" in failure.error
            assert "Traceback (most recent call last)" in failure.traceback
            assert "inner_frame" in failure.traceback
            assert "SpecError" in failure.traceback

    def test_forked_failures_keep_the_same_traceback(self):
        pool = generate_candidates(SPECS, CONS)
        serial = search(pool, exploding_evaluator)
        forked = search(pool, exploding_evaluator, workers=2)
        assert len(forked.failures) == len(serial.failures)
        for a, b in zip(serial.failures, forked.failures):
            assert a.candidate.spec_string == b.candidate.spec_string
            assert a.error == b.error
            assert "inner_frame" in b.traceback
            assert "Traceback (most recent call last)" in b.traceback

    def test_valid_outcomes_have_empty_traceback(self):
        pool = generate_candidates(SPECS, CONS)
        result = search(pool, lambda c: TuneOutcome(c, 1.0, 1.0))
        assert not result.failures
        for out in result.outcomes:
            assert out.traceback == ""

    def test_timing_cost_still_reads_failures(self):
        from repro.tuner import TuningCost
        pool = generate_candidates(SPECS, CONS)
        result = search(pool, exploding_evaluator)
        cost = TuningCost.from_search(result)
        assert cost is not None
