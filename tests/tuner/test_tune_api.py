"""The one-call ``tune()`` API and its parity with the classic path."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro
import repro.tuner.generator as generator
from repro import ParlooperGemm
from repro.core import LoopSpecs
from repro.core.cache import global_nest_cache
from repro.platform import SPR
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.spmm import ParlooperSpmm
from repro.simulator.memo import TraceCache
from repro.tpp.sparse import BCSCMatrix
from repro.tuner import (EvalCache, Evaluator, TuneOutcome, TuneReport,
                         TuningConstraints, generate_candidates,
                         perfmodel_evaluator, search, tune)
from repro.tuner.generator import Candidate

CONS = TuningConstraints({"a": 1, "b": 2, "c": 2}, frozenset({"b", "c"}),
                         max_candidates=60)


def gemm(num_threads=16):
    return ParlooperGemm(512, 512, 512, num_threads=num_threads)


class TestExhaustiveParity:
    def test_ranking_bit_identical_to_classic_path(self):
        """strategy="exhaustive" delegates verbatim to search()."""
        g = gemm()
        base = tuple(g.loop.specs)
        pool = generate_candidates(base, CONS)
        classic = search(pool, perfmodel_evaluator(
            base, g.sim_body(SPR), SPR, num_threads=g.num_threads,
            sample_threads=4, total_flops=float(g.flops),
            trace_cache=TraceCache()))
        report = tune(g, machine=SPR, constraints=CONS,
                      trace_cache=TraceCache())
        assert [(o.candidate.spec_string, o.candidate.block_steps, o.score,
                 o.seconds) for o in report.outcomes] == \
            [(o.candidate.spec_string, o.candidate.block_steps, o.score,
              o.seconds) for o in classic.outcomes]
        assert report.strategy == "exhaustive"
        assert report.n_model_evals == 0
        assert report.n_exact_evals == classic.n_exact_evals

    def test_kernel_protocol_resolves_everything(self):
        report = tune(gemm(), machine=SPR, constraints=CONS, budget=12)
        assert isinstance(report, TuneReport)
        assert report.n_candidates <= 12
        assert report.best.valid and report.best_spec

    def test_bare_specs_need_sim_body(self):
        specs = [LoopSpecs(0, 512, 32), LoopSpecs(0, 16, 1),
                 LoopSpecs(0, 16, 1)]
        with pytest.raises(ValueError, match="sim_body"):
            tune(specs, machine=SPR)

    def test_bare_specs_with_sim_body(self):
        g = gemm()
        report = tune(list(g.loop.specs), machine=SPR,
                      sim_body=g.sim_body(SPR), constraints=CONS,
                      budget=12, num_threads=16,
                      total_flops=float(g.flops))
        assert report.best.valid

    def test_machine_required(self):
        with pytest.raises(ValueError, match="machine"):
            tune(gemm())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            tune(gemm(), machine=SPR, strategy="telepathy")

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ValueError, match="evaluator"):
            tune(gemm(), machine=SPR, constraints=CONS, evaluator="vibes")

    @pytest.mark.parametrize("family", ["gemm", "conv", "spmm"])
    def test_kernel_scores_like_its_own_predict(self, family):
        """A kernel's own spec scores in tune() as in its predict: both
        count the flops predict scores against (SpMM's effective ones),
        not flops extrapolated from the sampled threads."""
        rng = np.random.default_rng(7)
        keep = np.kron(rng.random((16, 16)) < 0.3, np.ones((32, 32)))
        k = {"gemm": gemm,
             "conv": lambda: ParlooperConv(
                 ConvSpec(N=2, C=64, K=64, H=10, W=10), bc=32, bk=32,
                 num_threads=16),
             "spmm": lambda: ParlooperSpmm(
                 BCSCMatrix.from_dense(keep.astype(np.float32), 32, 32),
                 512, num_threads=16)}[family]()
        own = Candidate(k.spec_string, ((),) * len(k.loop.specs))
        report = tune(k, machine=SPR, candidates=[own],
                      trace_cache=TraceCache())
        assert report.best.score == \
            k.predict(SPR, sample_threads=4).score


class TestStrategies:
    def test_guided_spends_fewer_exact_evals(self):
        exhaustive = tune(gemm(), machine=SPR, constraints=CONS,
                          trace_cache=TraceCache())
        guided = tune(gemm(), machine=SPR, constraints=CONS,
                      strategy="guided", trace_cache=TraceCache())
        assert guided.strategy == "guided"
        assert guided.best.score == exhaustive.best.score
        assert guided.n_exact_evals < exhaustive.n_exact_evals
        assert guided.n_model_evals > 0

    def test_custom_evaluator_callable(self):
        calls = []

        def scorer(candidate):
            calls.append(candidate)
            return TuneOutcome(candidate, float(len(calls)), 1.0)

        assert isinstance(scorer, Evaluator)
        report = tune(gemm(), machine=SPR, constraints=CONS, budget=8,
                      evaluator=scorer)
        assert calls and report.n_exact_evals == len(calls)

    def test_verify_excludes_racy_candidates(self):
        # serial-k GEMM candidates never race; the plumbing must still run
        report = tune(gemm(4), machine=SPR, constraints=CONS, budget=6,
                      verify=True)
        assert report.n_racy == len(report.racy)

    def test_summary_mentions_the_budget_split(self):
        report = tune(gemm(), machine=SPR, constraints=CONS, budget=8)
        text = report.summary()
        assert "exact" in text and "candidates" in text and "best" in text


@pytest.fixture
def enumerated(monkeypatch):
    """How often each (declarations, constraints) pool was enumerated
    while the test runs."""
    counts = Counter()
    enumerate_pool = generator._enumerate

    def counting(base_specs, constraints, verify):
        counts[generator._pool_key(base_specs, constraints)] += 1
        return enumerate_pool(base_specs, constraints, verify)

    monkeypatch.setattr(generator, "_enumerate", counting)
    global_nest_cache().clear()
    return counts


class TestCandidatePoolMemo:
    def test_one_enumeration_per_pair_across_strategies(self, enumerated):
        g = gemm()
        tune(g, machine=SPR, constraints=CONS, strategy="guided",
             sample_threads=2, trace_cache=TraceCache())
        tune(g, machine=SPR, constraints=CONS, sample_threads=2,
             trace_cache=TraceCache())
        assert list(enumerated.values()) == [1]

    def test_every_call_gets_a_new_equal_list(self, enumerated):
        base = tuple(gemm().loop.specs)
        first = generate_candidates(base, CONS)
        first.clear()
        second = generate_candidates(base, CONS)
        assert second == generate_candidates(base, CONS) and second
        assert list(enumerated.values()) == [1]

    def test_keyed_on_declarations_and_every_constraint(self, enumerated):
        base = tuple(gemm().loop.specs)
        generate_candidates(base, CONS)
        generate_candidates(base[:2] + (LoopSpecs(0, 16, 1),), CONS)
        for change in (dict(max_occurrences={"a": 1, "b": 2, "c": 1}),
                       dict(parallelizable=frozenset({"b"})),
                       dict(require_parallel=False),
                       dict(max_parallel_loops=1),
                       dict(schedules=("", "schedule(dynamic)")),
                       dict(max_candidates=59), dict(seed=1)):
            generate_candidates(base, replace(CONS, **change))
        assert len(enumerated) == 9
        assert set(enumerated.values()) == {1}
        # a dict with the same items in another order is the same pool
        generate_candidates(base, replace(
            CONS, max_occurrences={"c": 2, "b": 2, "a": 1}))
        assert len(enumerated) == 9

    def test_verify_and_clear_bypass_the_memo(self, enumerated):
        base = tuple(gemm().loop.specs)
        pool = generate_candidates(base, CONS)
        assert generate_candidates(base, CONS,
                                   verify=lambda cand: []) == pool
        global_nest_cache().clear()
        assert generate_candidates(base, CONS) == pool
        assert list(enumerated.values()) == [3]


class TestSessionTraceCache:
    def test_repeated_tune_reuses_captured_traces(self):
        """A second tune of the same kernel replays the session's cached
        traces instead of capturing them again."""
        sess = repro.Session(machine=SPR, obs=repro.ObsConfig.disabled())
        g = ParlooperGemm(256, 256, 256, num_threads=4)
        first = sess.tune(g, budget=12)
        entries = len(sess.trace_cache)
        hits = sess.trace_cache.hits
        second = sess.tune(g, budget=12)
        assert len(sess.trace_cache) == entries
        assert sess.trace_cache.hits > hits
        assert [(o.candidate.spec_string, o.score) for o in second.outcomes] \
            == [(o.candidate.spec_string, o.score) for o in first.outcomes]


class TestEvalCacheIntegration:
    def test_eval_cache_needs_workload_sig(self):
        with pytest.raises(ValueError, match="workload_sig"):
            tune(gemm(), machine=SPR, constraints=CONS,
                 eval_cache=EvalCache())

    def test_cache_absorbs_and_warm_starts(self):
        cache = EvalCache()
        g = gemm()
        first = tune(g, machine=SPR, constraints=CONS, budget=10,
                     eval_cache=cache, workload_sig="gemm-512")
        assert len(cache) == first.n_exact_evals > 0
        hits_before = cache.hits
        second = tune(g, machine=SPR, constraints=CONS, budget=10,
                      eval_cache=cache, workload_sig="gemm-512")
        assert cache.hits > hits_before
        assert [o.score for o in second.outcomes] == \
            [o.score for o in first.outcomes]


class TestSessionSurface:
    def test_session_tune_uses_session_caches(self):
        sess = repro.Session(machine=SPR)
        report = sess.tune(gemm(), constraints=CONS, budget=10,
                           workload_sig="gemm-512")
        assert report.best.valid
        assert len(sess.eval_cache) == report.n_exact_evals

    def test_module_level_tune(self):
        report = repro.tune(gemm(), machine=SPR, constraints=CONS,
                            budget=8)
        assert report.best.valid

    def test_obs_counters_flow_to_session(self):
        sess = repro.Session(machine=SPR, obs=repro.ObsConfig())
        sess.tune(gemm(), constraints=CONS, budget=10)
        assert sess.metrics.value("tuner_candidates",
                                  kind="evaluated") > 0
