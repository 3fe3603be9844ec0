"""Race detector: epochs, concurrency units, and kernel default specs."""

import pytest

from repro.core import LoopSpecs, ThreadedLoop, VerificationError
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import MlpLayer
from repro.kernels.spmm import ParlooperSpmm
from repro.platform import SPR
from repro.simulator.trace import Access, BodyEvent
from repro.tpp.sparse import BCSCMatrix
from repro.verify import RaceReport, detect_races, verify_nest

import numpy as np


def small_gemm(spec, num_threads=4):
    return ParlooperGemm(64, 64, 64, 16, 16, 16, k_step=1,
                         spec_string=spec, num_threads=num_threads)


class TestGemmRaces:
    def test_parallelized_reduction_is_racy(self):
        # capitalizing the K-block loop makes every thread RMW the same
        # C blocks — the canonical one-keystroke race
        g = small_gemm("Abc")
        reports = detect_races(g.loop, g.sim_body(SPR))
        assert reports
        assert all(isinstance(r, RaceReport) for r in reports)
        assert {r.kind for r in reports} == {"WW"}
        assert all(r.tensor == "C" for r in reports)

    def test_report_names_spec_char_and_loop(self):
        g = small_gemm("Abc")
        rep = detect_races(g.loop, g.sim_body(SPR))[0]
        assert rep.spec_chars == ("A",)
        assert "a" in rep.loop_chars       # the K-block loop varies
        assert "C" in rep.message and "'Abc'" in rep.message

    def test_default_spec_clean(self):
        g = small_gemm("aBC")
        assert detect_races(g.loop, g.sim_body(SPR)) == []

    def test_collapse_including_reduction_shape_dependent(self):
        # (M, K) collapse with Kb=4 and 4 threads gives each thread one
        # whole reduction chain — genuinely race-free for this shape
        g = small_gemm("BAc", num_threads=4)
        assert detect_races(g.loop, g.sim_body(SPR)) == []
        # ... but 3 threads split a chain mid-reduction
        g3 = small_gemm("BAc", num_threads=3)
        assert detect_races(g3.loop, g3.sim_body(SPR))

    def test_grid_spec_clean(self):
        g = small_gemm("aB{R:2}C{C:2}", num_threads=None)
        assert detect_races(g.loop, g.sim_body(SPR)) == []

    def test_serial_spec_never_races(self):
        g = small_gemm("abc", num_threads=None)
        assert detect_races(g.loop, g.sim_body(SPR)) == []


class TestDynamicChunkUnits:
    def test_dynamic_race_hidden_from_round_robin_tids(self):
        # (K, M) collapse, dynamic chunk 1, 2 threads: all chunks that
        # write C[:, m] are congruent mod 2, so the round-robin tracing
        # proxy puts every conflicting chunk on ONE simulated thread —
        # only chunk-granularity units catch the (real) race
        g = ParlooperGemm(64, 64, 64, 16, 16, 16, k_step=1,
                          spec_string="ABc @ schedule(dynamic, 1)",
                          num_threads=2)
        reports = detect_races(g.loop, g.sim_body(SPR))
        assert reports and {r.kind for r in reports} == {"WW"}

    def test_dynamic_disjoint_writes_clean(self):
        g = ParlooperGemm(64, 64, 64, 16, 16, 16,
                          spec_string="aBC @ schedule(dynamic, 1)",
                          num_threads=4)
        assert detect_races(g.loop, g.sim_body(SPR)) == []


class TestEpochs:
    SPECS = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1), LoopSpecs(0, 2, 1)]

    @staticmethod
    def diagonal_body(ind):
        # writes a single shared slice, but only from the b == a diagonal:
        # within one a-iteration exactly one b (hence one thread) writes
        if ind[1] == ind[0]:
            return BodyEvent((Access(("X",), 64, write=True),))
        return BodyEvent((Access(("R", ind[1]), 64),))

    def test_barrier_separates_epochs(self):
        loop = ThreadedLoop(self.SPECS, "aB|c", num_threads=4,
                            execution="threads")
        assert detect_races(loop, self.diagonal_body) == []

    def test_without_barrier_same_accesses_race(self):
        loop = ThreadedLoop(self.SPECS, "aBc", num_threads=4,
                            execution="threads")
        reports = detect_races(loop, self.diagonal_body)
        assert reports and any(r.kind == "WW" for r in reports)

    def test_read_write_conflict_reported(self):
        def body(ind):
            if ind[1] == 0:
                return BodyEvent((Access(("X",), 64, write=True),))
            return BodyEvent((Access(("X",), 64),))
        loop = ThreadedLoop(self.SPECS, "aBc", num_threads=4,
                            execution="threads")
        kinds = {r.kind for r in detect_races(loop, body)}
        assert "RW" in kinds


class TestBarrierHazards:
    def test_unequal_barrier_counts_flagged(self):
        # barrier nested inside the worksharing region: threads cross it
        # once per owned iteration — 4 trips over 3 threads deadlocks
        specs = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]
        loop = ThreadedLoop(specs, "Ba|", num_threads=3,
                            execution="threads")
        reports = detect_races(loop, lambda ind: BodyEvent(()))
        assert any(r.kind == "BARRIER" for r in reports)
        assert any("deadlock" in r.message for r in reports)

    def test_equal_barrier_counts_clean(self):
        specs = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]
        loop = ThreadedLoop(specs, "Ba|", num_threads=4,
                            execution="threads")
        reports = detect_races(loop, lambda ind: BodyEvent(()))
        assert not any(r.kind == "BARRIER" for r in reports)

    def test_barrier_inside_dynamic_region_always_hazard(self):
        # crossing counts depend on runtime chunk assignment — no trace
        # can certify them equal, so this is flagged unconditionally
        specs = [LoopSpecs(0, 4, 1), LoopSpecs(0, 4, 1)]
        loop = ThreadedLoop(specs, "Ba| @ schedule(dynamic, 1)",
                            num_threads=4, execution="threads")
        reports = detect_races(loop, lambda ind: BodyEvent(()))
        assert any(r.kind == "BARRIER" for r in reports)


class TestKernelDefaults:
    """Acceptance: zero races on every shipped default spec."""

    def test_gemm_default(self):
        g = ParlooperGemm(128, 128, 128, 32, 32, 32)
        verify_nest(g.loop, g.sim_body(SPR))

    def test_mlp_default(self):
        m = MlpLayer(128, 128, 128, bm=32, bn=32, bk=32)
        verify_nest(m.gemm.loop, m.gemm.sim_body(SPR))

    def test_conv_default(self):
        c = ParlooperConv(ConvSpec(N=4, C=64, K=64, H=8, W=8), bc=32, bk=32)
        verify_nest(c.loop, c.sim_body(SPR))

    def test_spmm_default(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((64, 64)).astype(np.float32)
        dense[:32] = 0.0
        s = ParlooperSpmm(BCSCMatrix.from_dense(dense, 16, 16), 64, bn=16)
        verify_nest(s.loop, s.sim_body(SPR))

    def test_verify_nest_raises_on_racy_spec(self):
        g = small_gemm("Abc")
        with pytest.raises(VerificationError) as exc_info:
            verify_nest(g.loop, g.sim_body(SPR))
        assert exc_info.value.reports
        assert all(r.kind == "WW" for r in exc_info.value.reports)
