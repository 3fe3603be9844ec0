"""Admission-time tuning: the ladder, the corpus, the serve wiring."""

import pytest

import repro
from repro import ParlooperGemm, ServeSimulator, TrafficGenerator
from repro.platform import ADL, SPR
from repro.tuner import EvalCache, OnlineTuner, TuneDecision
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=1024)


def gemm(M=512, N=512, K=512, num_threads=8):
    return ParlooperGemm(M, N, K, num_threads=num_threads)


class TestLadder:
    def test_cold_model_only_falls_back_to_default(self):
        tuner = OnlineTuner(max_exact=0)
        d = tuner.decide(gemm(), SPR)
        assert d.level == "default" and d.is_default
        assert d.n_exact_evals == 0
        assert tuner.n_exact_evals == 0

    def test_warm_corpus_enables_model_only(self):
        shared = EvalCache()
        warm = OnlineTuner(eval_cache=shared, max_exact=6)
        warm.decide(gemm(), SPR)            # grows the corpus
        assert len(shared) > 0
        cold = OnlineTuner(eval_cache=shared, max_exact=0)
        d = cold.decide(gemm(640, 640, 640), SPR)   # unseen shape
        assert d.level == "model_only"
        assert d.n_model_evals > 0 and d.n_exact_evals == 0
        assert not d.is_default

    def test_exact_stage_writes_back_to_corpus(self):
        tuner = OnlineTuner(max_exact=4)
        d = tuner.decide(gemm(), SPR)
        assert d.level in ("exact", "default")
        assert d.n_exact_evals > 0
        assert len(tuner.eval_cache) > 0
        assert tuner.n_exact_evals == d.n_exact_evals

    def test_exact_count_capped(self):
        tuner = OnlineTuner(max_exact=2, pool_budget=32)
        d = tuner.decide(gemm(), SPR)
        assert d.n_exact_evals <= 3   # cap + the free incumbent

    def test_decision_cached_per_shape(self):
        tuner = OnlineTuner(max_exact=2)
        a = tuner.decide(gemm(), SPR)
        evals = tuner.n_exact_evals
        b = tuner.decide(gemm(), SPR)
        assert a is b
        assert tuner.n_exact_evals == evals
        c = tuner.decide(gemm(num_threads=4), SPR)
        assert c is not a   # thread count is part of the shape key

    def test_deterministic_across_fresh_tuners(self):
        a = OnlineTuner(max_exact=4).decide(gemm(), SPR)
        b = OnlineTuner(max_exact=4).decide(gemm(), SPR)
        assert a == b
        assert isinstance(a, TuneDecision)

    def test_retune_applies_the_decision(self):
        tuner = OnlineTuner(max_exact=6)
        g = gemm()
        retuned = tuner.retune(g, SPR)
        decision = tuner.decide(g, SPR)
        if decision.is_default:
            assert retuned is None
        else:
            assert retuned is not g
            assert retuned.spec_string == decision.spec_string
            assert retuned.M == g.M and retuned.num_threads == g.num_threads

    def test_blocking_is_part_of_the_decision_key(self):
        """Kernels of one shape with different blocking get their own
        decisions: the narrow kernel's pick blocks N by 16, which the
        wide kernel's 8 N-blocks cannot take."""
        tuner = OnlineTuner(max_exact=6, min_gain=0.0)
        tuner.decide(gemm(1024, 1024, 1024, num_threads=8), ADL)
        tuner.decide(gemm(2048, 512, 1024, num_threads=16), ADL)
        narrow = tuner.decide(gemm(512, 2048, 512, num_threads=32), ADL)
        wide = ParlooperGemm(512, 2048, 512, bn=256, num_threads=32)
        retuned = tuner.retune(wide, ADL)
        decision = tuner.decide(wide, ADL)
        assert decision is not narrow
        if retuned is not None:
            assert retuned.bn == 256
            assert retuned.spec_string == decision.spec_string

    def test_blockings_keep_separate_corpus_entries(self):
        # the EvalCache cannot see the body, so its signature must
        # name the blocking too
        tuner = OnlineTuner(max_exact=2)
        tuner.decide(gemm(), SPR)
        tuner.decide(ParlooperGemm(512, 512, 512, bn=128, num_threads=8),
                     SPR)
        sigs = {r["workload_sig"] for r in tuner.eval_cache.records()}
        assert len(sigs) == 2

    def test_min_gain_hysteresis_keeps_incumbent_on_ties(self):
        # an enormous min_gain means nothing ever beats the default
        tuner = OnlineTuner(max_exact=4, min_gain=1e9)
        d = tuner.decide(gemm(), SPR)
        assert d.is_default
        assert OnlineTuner(max_exact=4, min_gain=1e9).retune(gemm(), SPR) \
            is None


class TestServeIntegration:
    def _traffic(self, n=8):
        # prompts must exceed 64 tokens: shorter GEMMs take the roofline
        # shortcut in ServeCostModel._price_gemm and never reach the tuner
        return TrafficGenerator(rate_rps=50.0, seed=0, min_prompt=128,
                                max_prompt=512, mean_prompt=256).generate(n)

    def test_serve_with_tuner_is_deterministic(self):
        def run():
            tuner = OnlineTuner(max_exact=2, pool_budget=16)
            sim = ServeSimulator(TINY, SPR, tuner=tuner)
            report = sim.run(self._traffic())
            return report, tuner
        r1, t1 = run()
        r2, t2 = run()
        assert t1.n_exact_evals == t2.n_exact_evals > 0
        assert len(t1.eval_cache) == len(t2.eval_cache) > 0
        assert r1.summary == r2.summary
        assert [r.finish_s for r in r1.requests] == \
            [r.finish_s for r in r2.requests]

    def test_untuned_serve_unchanged(self):
        base = ServeSimulator(TINY, SPR).run(self._traffic())
        again = ServeSimulator(TINY, SPR, tuner=None).run(self._traffic())
        assert [r.finish_s for r in base.requests] == \
            [r.finish_s for r in again.requests]

    def test_session_serve_reports_online_tuning_counters(self):
        sess = repro.Session(machine=SPR, obs=repro.ObsConfig())
        tuner = OnlineTuner(max_exact=2, pool_budget=16)
        sim = sess.serve(TINY, tuner=tuner)
        sim.run(self._traffic())
        total = sum(
            sess.metrics.value("online_tuning", kind=k) or 0
            for k in ("cached", "model_only", "exact", "default"))
        assert total > 0

    def test_fleet_accepts_shared_tuner(self):
        from repro.fleet import FleetSimulator
        from repro.platform.presets import cluster_preset
        tuner = OnlineTuner(max_exact=1, pool_budget=8)
        fleet = FleetSimulator(TINY, cluster_preset("hetero4"), tuner=tuner)
        fleet.run(self._traffic(6))
        assert tuner.n_exact_evals > 0   # pooled across replicas
