"""Model-guided beam search: edit actions, agreement, determinism."""

import pytest

from repro import LoopSpecs, ParlooperGemm, SpecError
from repro.core.plan import build_plan
from repro.platform import SPR, ZEN4
from repro.simulator.memo import TraceCache
from repro.tuner import (Candidate, FeatureExtractor, TuningConstraints,
                         edit_neighbors, generate_candidates, guided_search,
                         perfmodel_evaluator, search)

CONS = TuningConstraints({"a": 1, "b": 2, "c": 2}, frozenset({"b", "c"}),
                         max_candidates=80)


def _testbed(machine, M=512, num_threads=16):
    g = ParlooperGemm(M, M, M, num_threads=num_threads)
    base = tuple(g.loop.specs)
    pool = generate_candidates(base, CONS)
    evaluator = perfmodel_evaluator(base, g.sim_body(machine), machine,
                                    num_threads=num_threads,
                                    sample_threads=2,
                                    total_flops=float(g.flops),
                                    trace_cache=TraceCache())
    extractor = FeatureExtractor(base_specs=base, machine=machine,
                                 num_threads=num_threads)
    return base, pool, evaluator, extractor


class TestEditNeighbors:
    def setup_method(self):
        g = ParlooperGemm(512, 512, 512, num_threads=16)
        self.base = tuple(g.loop.specs)
        self.pool = generate_candidates(self.base, CONS)

    def test_neighbors_are_admissible(self):
        for cand in self.pool[:20]:
            for n in edit_neighbors(cand, self.base, CONS):
                body = n.spec_string.partition(" @ ")[0]
                caps = {c.lower() for c in body if c.isupper()}
                assert caps <= CONS.parallelizable
                assert len(caps) <= CONS.max_parallel_loops
                for ch in "abc":
                    lc = sum(1 for c in body.lower() if c == ch)
                    assert lc <= CONS.max_occurrences[ch]
                build_plan(n.build_specs(self.base), n.spec_string)

    def test_neighbors_exclude_self_and_duplicates(self):
        for cand in self.pool[:20]:
            ns = edit_neighbors(cand, self.base, CONS)
            keys = [(n.spec_string, n.block_steps) for n in ns]
            assert (cand.spec_string, cand.block_steps) not in keys
            assert len(keys) == len(set(keys))

    def test_neighbors_deterministic(self):
        for cand in self.pool[:20]:
            a = edit_neighbors(cand, self.base, CONS)
            b = edit_neighbors(cand, self.base, CONS)
            assert [(n.spec_string, n.block_steps) for n in a] == \
                [(n.spec_string, n.block_steps) for n in b]

    def test_grid_specs_keep_their_shape(self):
        cand = Candidate("{R:2}{C:8}abc", ((), (), ()))
        ns = edit_neighbors(cand, self.base, CONS)
        for n in ns:
            assert "{" in n.spec_string  # reorder/recap skip grid bodies

    def test_grid_spec_keeps_its_valid_retile(self):
        # the grid-axis letter in {R:4} names no loop: B is the parallel
        # loop, and only the retile whose b-trips cover 4 ways plans
        base = (LoopSpecs(0, 16, 16), LoopSpecs(0, 16, 1),
                LoopSpecs(0, 16, 1))
        cons = TuningConstraints({"a": 1, "b": 2, "c": 2},
                                 frozenset({"b", "c"}))
        cand = Candidate("aB{R:4}bc", ((), (4,), ()))
        assert edit_neighbors(cand, base, cons) == \
            [Candidate("aB{R:4}bc", ((), (2,), ()))]
        wide = Candidate("aB{R:4}bc", ((), (8,), ()))
        with pytest.raises(SpecError, match="4-ways but has only 2"):
            build_plan(wide.build_specs(base), wide.spec_string)

    def test_retile_walks_the_prefix_ladder(self):
        blocked = [c for c in self.pool if any(c.block_steps)]
        moved = False
        for cand in blocked:
            for n in edit_neighbors(cand, self.base, CONS):
                if n.spec_string == cand.spec_string \
                        and n.block_steps != cand.block_steps:
                    moved = True
        assert moved, "some retile neighbor should exist in this pool"


class TestGuidedSearch:
    @pytest.mark.parametrize("machine", [SPR, ZEN4], ids=lambda m: m.name)
    def test_top1_matches_exhaustive(self, machine):
        base, pool, evaluator, extractor = _testbed(machine)
        exhaustive = search(pool, evaluator)
        guided = guided_search(pool, evaluator, extractor, base, CONS)
        assert guided.best.score == exhaustive.best.score
        assert guided.n_exact_evals < len(pool) // 2
        assert guided.n_model_evals >= len(pool)

    def test_budget_is_respected(self):
        base, pool, evaluator, extractor = _testbed(SPR)
        res = guided_search(pool, evaluator, extractor, base, CONS,
                            exact_budget=10, beam_width=2)
        assert res.n_exact_evals <= 10

    def test_deterministic(self):
        base, pool, evaluator, extractor = _testbed(SPR)
        a = guided_search(pool, evaluator, extractor, base, CONS)
        b = guided_search(pool, evaluator, extractor, base, CONS)
        assert [(o.candidate.spec_string, o.candidate.block_steps, o.score)
                for o in a.outcomes] == \
            [(o.candidate.spec_string, o.candidate.block_steps, o.score)
             for o in b.outcomes]
        assert (a.n_model_evals, a.n_exact_evals, a.rounds) == \
            (b.n_model_evals, b.n_exact_evals, b.rounds)

    def test_pretrained_model_skips_bootstrap(self):
        base, pool, evaluator, extractor = _testbed(SPR)
        warmup = guided_search(pool, evaluator, extractor, base, CONS)
        assert warmup.trained_rows > 0
        from repro.tuner import RidgeCostModel
        import numpy as np
        model = RidgeCostModel(extractor.names)
        X, kept = extractor.matrix([o.candidate for o in warmup.outcomes])
        model.fit(X, np.asarray([warmup.outcomes[i].score for i in kept]))
        res = guided_search(pool, evaluator, extractor, base, CONS,
                            model=model, exact_budget=8)
        assert res.trained_rows == 0
        assert res.n_exact_evals <= 8

    def test_empty_pool_raises(self):
        base, _, evaluator, extractor = _testbed(SPR)
        with pytest.raises(ValueError, match="non-empty"):
            guided_search([], evaluator, extractor, base, CONS)

    def test_top_k_truncates(self):
        base, pool, evaluator, extractor = _testbed(SPR)
        res = guided_search(pool, evaluator, extractor, base, CONS, top_k=3)
        assert len(res.outcomes) <= 3
