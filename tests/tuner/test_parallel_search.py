"""Parallel search must rank exactly like the serial sweep, and
EvalCache must warm-start it losslessly."""

import json
import multiprocessing
import os

import pytest

from repro.core import ExecutionError, LoopSpecs
from repro.platform import SPR, ZEN4
from repro.simulator import TraceCache, brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import (Candidate, EvalCache, TuningConstraints,
                         engine_evaluator, generate_candidates,
                         perfmodel_evaluator, search)

SPECS = [LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1)]

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _sim_body(machine, dtype):
    def body(ind):
        ik, im, inn = ind
        return brgemm_event(machine, dtype, 64, 64, 64, 8,
                            [("A", im, k) for k in range(8)],
                            [("B", inn, k) for k in range(8)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)
    return body


def _candidates(budget=16, parallelizable=frozenset({"b", "c"})):
    cons = TuningConstraints({"a": 1, "b": 2, "c": 2}, parallelizable,
                             max_candidates=budget)
    return list(generate_candidates(SPECS, cons))


def _outcome_tuples(res):
    return [(o.candidate.label(), o.score, o.valid) for o in res.outcomes]


def _failure_tuples(res):
    return sorted((f.candidate.label(), type(f).__name__)
                  for f in res.failures)


@pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
class TestWorkersDeterminism:
    def test_perfmodel_workers_match_serial(self):
        cands = _candidates()
        ev = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32), ZEN4,
                                 num_threads=16, sample_threads=2,
                                 trace_cache=TraceCache())
        serial = search(cands, ev, workers=1)
        par = search(cands, ev, workers=4)
        assert _outcome_tuples(par) == _outcome_tuples(serial)
        assert par.evaluated == serial.evaluated
        assert par.skipped == serial.skipped
        assert par.best.candidate.label() == serial.best.candidate.label()

    def test_engine_workers_match_serial(self):
        cands = _candidates(budget=6)
        ev = engine_evaluator(SPECS, _sim_body(SPR, DType.F32), SPR,
                              num_threads=8)
        serial = search(cands, ev, workers=1)
        par = search(cands, ev, workers=2)
        assert _outcome_tuples(par) == _outcome_tuples(serial)

    def test_failures_recorded_in_parallel(self):
        cands = _candidates(budget=8)
        bad = Candidate("aBbc", ((), (3,), ()))   # 3 does not divide 16
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)
        poisoned_label = cands[2].candidate_key() \
            if hasattr(cands[2], "candidate_key") else cands[2].label()

        def evaluator(c):
            if c.label() == poisoned_label:
                raise ExecutionError("boom")
            return inner(c)

        mixed = cands + [bad]
        serial = search(mixed, evaluator, workers=1)
        par = search(mixed, evaluator, workers=3)
        assert serial.skipped == par.skipped == 2
        assert _failure_tuples(par) == _failure_tuples(serial)
        assert {f.candidate.label() for f in par.failures} == \
               {poisoned_label, bad.label()}
        assert all(f.error for f in par.failures)
        assert _outcome_tuples(par) == _outcome_tuples(serial)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            search(_candidates(budget=2), lambda c: None, workers=0)


class TestEvalCache:
    def test_warm_start_skips_evaluation(self):
        cands = _candidates(budget=8)
        calls = []
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)

        def counting(c):
            calls.append(c.label())
            return inner(c)

        ec = EvalCache()
        ev = ec.wrap(counting, ZEN4, "wl-sig")
        cold = search(cands, ev)
        n_cold = len(calls)
        assert n_cold == len(cands)
        warm = search(cands, ev)
        assert len(calls) == n_cold            # no re-evaluation
        assert _outcome_tuples(warm) == _outcome_tuples(cold)
        assert ec.hits == len(cands)

    def test_distinct_signatures_do_not_collide(self):
        cands = _candidates(budget=4)
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)
        ec = EvalCache()
        search(cands, ec.wrap(inner, ZEN4, "sig-a"))
        misses = ec.misses
        search(cands, ec.wrap(inner, ZEN4, "sig-b"))
        assert ec.misses == misses + len(cands)
        search(cands, ec.wrap(inner, SPR, "sig-a"))
        assert ec.misses == misses + 2 * len(cands)

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_record_backfills_after_parallel_sweep(self, tmp_path):
        """Stores made in forked workers die with them; record() rebuilds
        the parent cache from the returned outcomes."""
        cands = _candidates(budget=6)
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)
        ec = EvalCache(path=os.fspath(tmp_path / "evals.json"))
        res = search(cands, ec.wrap(inner, ZEN4, "wl"), workers=2)
        assert len(ec) == 0                    # worker stores were lost
        assert ec.record(res, ZEN4, "wl") == len(cands)
        ec.save()

        calls = []

        def counting(c):
            calls.append(c.label())
            return inner(c)

        ec2 = EvalCache(path=os.fspath(tmp_path / "evals.json"))
        warm = search(cands, ec2.wrap(counting, ZEN4, "wl"))
        assert calls == []
        assert _outcome_tuples(warm) == _outcome_tuples(res)

    def test_save_load_round_trip(self, tmp_path):
        path = os.fspath(tmp_path / "evals.json")
        cands = _candidates(budget=6)
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)
        ec = EvalCache(path=path)
        cold = search(cands, ec.wrap(inner, ZEN4, "wl"))
        ec.save()
        assert os.path.exists(path)

        calls = []

        def counting(c):
            calls.append(c.label())
            return inner(c)

        ec2 = EvalCache(path=path)              # autoloads
        assert len(ec2) == len(cands)
        warm = search(cands, ec2.wrap(counting, ZEN4, "wl"))
        assert calls == []                      # fully warm from disk
        assert _outcome_tuples(warm) == _outcome_tuples(cold)


class TestEvalCacheQuarantine:
    def test_corrupt_table_is_quarantined_not_fatal(self, tmp_path):
        path = os.fspath(tmp_path / "evals.json")
        with open(path, "w") as fh:
            fh.write('{"k": {"score"')               # torn write
        with pytest.warns(UserWarning, match="corrupt"):
            ec = EvalCache(path=path)                # autoload survives
        assert len(ec) == 0
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_wrong_shape_is_quarantined(self, tmp_path):
        path = os.fspath(tmp_path / "evals.json")
        with open(path, "w") as fh:
            json.dump([1, 2, 3], fh)
        with pytest.warns(UserWarning, match="expected a JSON object"):
            ec = EvalCache(path=path)
        assert len(ec) == 0
        # the sweep can still run and re-persist over the freed path
        cands = _candidates(budget=4)
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=16)
        search(cands, ec.wrap(inner, ZEN4, "wl"))
        ec.save()
        assert len(EvalCache(path=path)) == len(cands)
