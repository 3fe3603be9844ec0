"""EvalCache: warm-starting sweeps losslessly, JSON persistence and
quarantine, and the records() training view."""

import json
import os

import pytest

from repro.core import LoopSpecs
from repro.platform import SPR, ZEN4
from repro.simulator import brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import (Candidate, EvalCache, TuningConstraints,
                         generate_candidates, perfmodel_evaluator, search)

SPECS = [LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1)]
CONS = TuningConstraints({"a": 1, "b": 2, "c": 2}, frozenset({"b", "c"}),
                         max_candidates=16)


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


def seeded_cache():
    cache = EvalCache()
    for i, cand in enumerate(generate_candidates(SPECS, CONS)):
        cache.store(cache.key(cand, "spr", "wl"), 10.0 + i, 1e-3 * (i + 1))
    return cache


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

    def test_wrapped_evaluator_keeps_its_verifier(self):
        """verify=True works the same with or without the cache."""
        cands = _candidates(budget=8)
        inner = perfmodel_evaluator(SPECS, _sim_body(SPR, DType.F32), SPR,
                                    num_threads=16)
        wrapped = EvalCache().wrap(inner, SPR, "sig")
        assert wrapped.verifier is inner.verifier
        assert _outcome_tuples(search(cands, wrapped, verify=True)) == \
            _outcome_tuples(search(cands, inner, verify=True))


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


class TestRecords:
    def test_round_trips_candidate_identity(self):
        cache = seeded_cache()
        recs = cache.records()
        assert len(recs) == len(cache)
        for rec in recs:
            cand = Candidate(rec["spec_string"], rec["block_steps"])
            assert cache.key(cand, rec["machine_sig"],
                             rec["workload_sig"]) in cache._data
            assert rec["score"] > 0 and rec["seconds"] > 0

    def test_block_steps_parse_back_as_int_tuples(self):
        cache = EvalCache()
        cand = Candidate("aCBbc", ((), (4,), (8, 2)))
        cache.store(cache.key(cand, "m", "w"), 1.0, 1.0)
        rec = cache.records()[0]
        assert rec["block_steps"] == ((), (4,), (8, 2))
