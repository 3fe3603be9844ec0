"""Tests for the auto-tuning infrastructure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionError, LoopSpecs, SpecError, ThreadedLoop
from repro.platform import SPR, ZEN4
from repro.simulator import brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import (Candidate, TuningConstraints,
                         engine_evaluator, generate_candidates,
                         perfmodel_evaluator, prefix_products, prime_factors,
                         search)


class TestPrimeMath:
    @pytest.mark.parametrize("n,expected", [
        (1, []), (2, [2]), (12, [2, 2, 3]), (64, [2] * 6),
        (97, [97]), (360, [2, 2, 2, 3, 3, 5]),
    ])
    def test_prime_factors(self, n, expected):
        assert prime_factors(n) == expected

    def test_prime_factors_invalid(self):
        with pytest.raises(ValueError):
            prime_factors(0)

    @given(st.integers(2, 10000))
    @settings(max_examples=100, deadline=None)
    def test_factorization_reconstructs(self, n):
        import math
        assert math.prod(prime_factors(n)) == n

    def test_prefix_products_paper_rule(self):
        # 24 = 2*2*2*3 -> proper prefixes 2, 4, 8
        assert prefix_products(24) == [2, 4, 8]
        assert prefix_products(7) == []
        assert prefix_products(1) == []

    @given(st.integers(2, 5000))
    @settings(max_examples=100, deadline=None)
    def test_prefix_products_divide_each_other(self, n):
        prods = prefix_products(n)
        for a, b in zip(prods, prods[1:]):
            assert b % a == 0
        for p in prods:
            assert n % p == 0


SPECS = [LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1)]


class TestConstraints:
    def test_gemm_default(self):
        c = TuningConstraints.gemm_default()
        assert c.max_occurrences == {"a": 2, "b": 3, "c": 3}
        assert c.parallelizable == frozenset({"b", "c"})

    def test_invalid_mnemonic(self):
        with pytest.raises(SpecError):
            TuningConstraints({"A": 1}, frozenset())

    def test_parallelizable_must_be_declared(self):
        with pytest.raises(SpecError):
            TuningConstraints({"a": 1}, frozenset({"b"}))

    def test_zero_occurrences_rejected(self):
        with pytest.raises(SpecError):
            TuningConstraints({"a": 0}, frozenset())


class TestGenerator:
    def test_candidates_unique(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}), max_candidates=None)
        cands = generate_candidates(SPECS, cons)
        keys = {(c.spec_string, c.block_steps) for c in cands}
        assert len(keys) == len(cands)

    def test_all_candidates_buildable_and_correct(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}), max_candidates=40)
        cands = generate_candidates(SPECS, cons)
        assert cands
        import itertools
        ref = set(itertools.product(range(0, 8, 8), range(16), range(16)))
        for cand in cands:
            loop = cand.build_loop(SPECS, num_threads=4)
            seen = []
            loop(lambda ind: seen.append(tuple(ind)))
            assert set(seen) == ref, cand.label()
            assert len(seen) == len(ref), cand.label()

    def test_require_parallel(self):
        cons = TuningConstraints({"a": 1, "b": 1, "c": 1},
                                 frozenset({"b", "c"}),
                                 require_parallel=True, max_candidates=None)
        for cand in generate_candidates(SPECS, cons):
            assert any(ch.isupper() for ch in cand.spec_string)

    def test_parallel_occurrence_varies(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 1},
                                 frozenset({"b"}), max_candidates=None,
                                 max_parallel_loops=1)
        cands = generate_candidates(SPECS, cons)
        # some candidates parallelize the outer occurrence, some the inner
        def par_occ(s):
            seen = 0
            for ch in s:
                if ch.lower() == "b":
                    if ch.isupper():
                        return seen
                    seen += 1
            return None
        occs = {par_occ(c.spec_string) for c in cands
                if "B" in c.spec_string}
        assert {0, 1} <= occs

    def test_max_candidates_cap(self):
        cons = TuningConstraints.gemm_default()
        cons = TuningConstraints(cons.max_occurrences, cons.parallelizable,
                                 max_candidates=25)
        assert len(generate_candidates(SPECS, cons)) == 25

    def test_blocking_steps_come_from_prime_factors(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 1},
                                 frozenset({"c"}), max_candidates=None)
        for cand in generate_candidates(SPECS, cons):
            for steps in cand.block_steps:
                for s in steps:
                    assert 16 % s == 0  # divides the trip count

    def test_schedule_suffixes(self):
        cons = TuningConstraints({"a": 1, "b": 1, "c": 1},
                                 frozenset({"b"}),
                                 schedules=("", "schedule(dynamic, 1)"),
                                 max_candidates=None)
        cands = generate_candidates(SPECS, cons)
        assert any("@" in c.spec_string for c in cands)
        assert any("@" not in c.spec_string for c in cands)

    def test_deterministic_given_seed(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b"}), max_candidates=30, seed=7)
        a = [c.label() for c in generate_candidates(SPECS, cons)]
        b = [c.label() for c in generate_candidates(SPECS, cons)]
        assert a == b


def _sim_body(machine, dtype):
    def body(ind):
        ik, im, inn = ind
        return brgemm_event(machine, dtype, 64, 64, 64, 8,
                            [("A", im, k) for k in range(8)],
                            [("B", inn, k) for k in range(8)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)
    return body


class TestSearch:
    def test_search_ranks_by_score(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}), max_candidates=20)
        cands = generate_candidates(SPECS, cons)
        res = search(cands, perfmodel_evaluator(SPECS, _sim_body(ZEN4,
                                                                 DType.F32),
                                                ZEN4, num_threads=16))
        scores = [o.score for o in res.outcomes]
        assert scores == sorted(scores, reverse=True)
        assert res.n_exact_evals == 20

    def test_invalid_candidates_skipped(self):
        bad = Candidate("aBbc", ((), (3,), ()))  # 3 does not divide 16
        res = search([bad], perfmodel_evaluator(
            SPECS, _sim_body(ZEN4, DType.F32), ZEN4, num_threads=4))
        assert res.n_skipped == 1
        with pytest.raises(ValueError):
            res.best

    def test_poisoned_candidate_does_not_abort_the_search(self):
        # an evaluator that blows up at runtime on one candidate must be
        # recorded as skipped, and the rest of the sweep must survive
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b"}), max_candidates=8)
        cands = list(generate_candidates(SPECS, cons))
        poisoned = cands[3]
        inner = perfmodel_evaluator(SPECS, _sim_body(ZEN4, DType.F32),
                                    ZEN4, num_threads=4)

        def evaluator(cand):
            if cand is poisoned:
                raise ExecutionError("simulated engine crash")
            return inner(cand)

        res = search(cands, evaluator)
        assert res.n_skipped == 1
        assert res.n_exact_evals == len(cands) - 1
        assert res.best.valid
        assert poisoned.label() not in [o.candidate.label()
                                        for o in res.outcomes]

    def test_top_k(self):
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b"}), max_candidates=12)
        cands = generate_candidates(SPECS, cons)
        res = search(cands, perfmodel_evaluator(
            SPECS, _sim_body(ZEN4, DType.F32), ZEN4, num_threads=8),
            top_k=3)
        assert len(res.outcomes) == 3

    def test_engine_evaluator_agrees_on_best_class(self):
        # model's top pick should be within the engine's top half
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}), max_candidates=16,
                                 seed=3)
        cands = generate_candidates(SPECS, cons)
        body = _sim_body(SPR, DType.BF16)
        model = search(cands, perfmodel_evaluator(SPECS, body, SPR,
                                                  num_threads=32,
                                                  sample_threads=4))
        engine = search(cands, engine_evaluator(SPECS, body, SPR,
                                                num_threads=32))
        best_label = model.best.candidate.label()
        engine_order = [o.candidate.label() for o in engine.outcomes]
        assert engine_order.index(best_label) < len(engine_order) * 0.5

    def test_wall_time_recorded(self):
        cons = TuningConstraints({"a": 1, "b": 1, "c": 1},
                                 frozenset({"b"}), max_candidates=4)
        cands = generate_candidates(SPECS, cons)
        res = search(cands, perfmodel_evaluator(
            SPECS, _sim_body(ZEN4, DType.F32), ZEN4, num_threads=4))
        assert res.wall_seconds > 0


VSPECS = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]


def _reduction_body(machine, dtype):
    # C[c][b] accumulates over loop a: parallelizing 'a' is a real race
    def body(ind):
        ia, ib, ic = ind
        return brgemm_event(machine, dtype, 64, 64, 64, 1,
                            [("A", ib, ia)], [("B", ic, ia)],
                            ("C", ic, ib), beta=1.0,
                            c_first_touch=(ia == 0))
    return body


class TestVerifiedSearch:
    def _setup(self):
        from repro.tuner import race_verifier
        cons = TuningConstraints({"a": 1, "b": 1, "c": 1},
                                 frozenset({"a", "b", "c"}),
                                 max_candidates=None)
        cands = generate_candidates(VSPECS, cons)
        body = _reduction_body(ZEN4, DType.F32)
        ev = perfmodel_evaluator(VSPECS, body, ZEN4, num_threads=4)
        return cands, ev, race_verifier(VSPECS, body, num_threads=4)

    def test_verify_excludes_racy_candidates(self):
        cands, ev, _ = self._setup()
        res = search(cands, ev, verify=True)
        assert res.racy                       # 'A' candidates exist
        racy_specs = {rc.candidate.spec_string for rc in res.racy}
        ranked = {o.candidate.spec_string for o in res.outcomes}
        assert ranked and ranked.isdisjoint(racy_specs)
        # a racy candidate's diagnostics are real RaceReports
        rep = res.racy[0].reports[0]
        assert rep.kind in ("WW", "RW") and rep.tensor == "C"
        assert "race" in res.racy[0].describe()

    def test_verify_false_ranks_everything(self):
        cands, ev, _ = self._setup()
        res = search(cands, ev, verify=False)
        assert res.racy == ()
        assert res.n_exact_evals == len(cands)

    def test_verified_ranking_unchanged_for_clean_candidates(self):
        cands, ev, _ = self._setup()
        plain = search(cands, ev)
        verified = search(cands, ev, verify=True)
        racy_specs = {rc.candidate.spec_string for rc in verified.racy}
        kept = [o.candidate.spec_string for o in plain.outcomes
                if o.candidate.spec_string not in racy_specs]
        assert [o.candidate.spec_string for o in verified.outcomes] == kept

    def test_generator_verify_prunes_at_source(self):
        _, _, verifier = self._setup()
        cons = TuningConstraints({"a": 1, "b": 1, "c": 1},
                                 frozenset({"a", "b", "c"}),
                                 max_candidates=None)
        unverified = generate_candidates(VSPECS, cons)
        verified = generate_candidates(VSPECS, cons, verify=verifier)
        assert 0 < len(verified) < len(unverified)
        assert all(not verifier(c) for c in verified)

    def test_verify_true_requires_verifier(self):
        cands, _, _ = self._setup()
        def bare(candidate):
            raise AssertionError("unused")
        with pytest.raises(ValueError, match="verifier"):
            search(cands, bare, verify=True)
