"""Failure diagnostics survive the search.

The formatted traceback is captured at raise time, so
``result.failures`` keeps its diagnostics after the exception object
is gone.
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
        assert result.n_skipped == len(pool)
        for failure in result.failures:
            assert "kaboom for" in failure.error
            assert "Traceback (most recent call last)" in failure.traceback
            assert "inner_frame" in failure.traceback
            assert "SpecError" in failure.traceback

    def test_valid_outcomes_have_empty_traceback(self):
        pool = generate_candidates(SPECS, CONS)
        result = search(pool, lambda c: TuneOutcome(c, 1.0, 1.0))
        assert not result.failures
        for out in result.outcomes:
            assert out.traceback == ""
