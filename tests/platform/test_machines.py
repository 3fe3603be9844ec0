"""Tests for machine models and presets."""

from dataclasses import replace

import pytest

from repro.platform import (ADL, ALL_PLATFORMS, CLUSTER_PRESETS, GVT3,
                            SPR, SPR_1S, ZEN4, CacheLevel, CoreCluster,
                            MachineModel, cluster_preset, platform_by_name,
                            restrict_cores)
from repro.tpp.backend.isa import ISA
from repro.tpp.dtypes import DType


class TestPresets:
    def test_paper_core_counts(self):
        assert SPR.total_cores == 112       # 2 x 56 Golden Cove
        assert SPR_1S.total_cores == 56
        assert GVT3.total_cores == 64       # Neoverse V1
        assert ZEN4.total_cores == 16
        assert ADL.total_cores == 16        # 8P + 8E

    def test_adl_is_hybrid(self):
        assert ADL.is_hybrid
        assert not SPR.is_hybrid
        assert ADL.clusters[0].freq_ghz > ADL.clusters[1].freq_ghz

    def test_peak_ratios_match_paper(self):
        # §V-A1: AMX offers "up to 16x more peak flops than FP32"
        assert SPR.peak_gflops(DType.BF16) / SPR.peak_gflops(DType.F32) \
            == pytest.approx(16.0)
        # GVT3 MMLA peak is 4x SVE FP32 (measured speedup 3.43x)
        assert GVT3.peak_gflops(DType.BF16) / GVT3.peak_gflops(DType.F32) \
            == pytest.approx(4.0)
        # Zen4 AVX512-BF16 doubles FP32
        assert ZEN4.peak_gflops(DType.BF16) / ZEN4.peak_gflops(DType.F32) \
            == pytest.approx(2.0)

    def test_adl_has_no_bf16(self):
        # Fig 7: "on ADL we benchmark FP32 since there is no BF16 support"
        assert not ADL.supports(DType.BF16)
        assert ADL.supports(DType.F32)

    def test_isa_selection(self):
        assert SPR.isa_for(DType.BF16) is ISA.AMX_BF16
        assert GVT3.isa_for(DType.BF16) is ISA.SVE256_MMLA
        assert ZEN4.isa_for(DType.BF16) is ISA.AVX512_BF16

    def test_platform_lookup(self):
        assert platform_by_name("SPR") is SPR
        with pytest.raises(KeyError):
            platform_by_name("M1")

    def test_llc_is_last_and_shared(self):
        for m in ALL_PLATFORMS.values():
            assert m.llc is m.caches[-1]
            assert m.llc.shared

    def test_describe_mentions_cores(self):
        assert "112x" in SPR.describe()


class TestCoreTopology:
    def test_cluster_of_maps_in_order(self):
        assert ADL.cluster_of(0).name == "golden-cove-P"
        assert ADL.cluster_of(7).name == "golden-cove-P"
        assert ADL.cluster_of(8).name == "gracemont-E"
        assert ADL.cluster_of(15).name == "gracemont-E"

    def test_cluster_of_out_of_range(self):
        with pytest.raises(ValueError):
            ADL.cluster_of(16)

    def test_restrict_cores(self):
        m = restrict_cores(SPR, 8)
        assert m.total_cores == 8
        assert m.llc.size_bytes == SPR.llc.size_bytes  # shared kept

    def test_restrict_spans_clusters(self):
        m = restrict_cores(ADL, 12)
        assert m.total_cores == 12
        assert len(m.clusters) == 2
        assert m.clusters[0].count == 8 and m.clusters[1].count == 4

    def test_restrict_invalid(self):
        with pytest.raises(ValueError):
            restrict_cores(SPR, 0)
        with pytest.raises(ValueError):
            restrict_cores(ZEN4, 17)


class TestValidation:
    def test_empty_machine_rejected(self):
        with pytest.raises(ValueError):
            MachineModel("x", (), (CacheLevel("L1", 1024, 1.0),), 10.0)
        with pytest.raises(ValueError):
            MachineModel(
                "x", (CoreCluster("c", 1, 1.0, {DType.F32: ISA.AVX2}),),
                (), 10.0)

    def test_invalid_cache_level(self):
        with pytest.raises(ValueError):
            CacheLevel("L1", 0, 1.0)

    def test_inner_shared_level_rejected(self):
        """The simulators model one shared level, the outermost."""
        l1, l2, llc = SPR.caches
        with pytest.raises(ValueError, match="shared cache level L2"):
            replace(SPR, caches=(l1, replace(l2, shared=True),
                                 replace(llc, shared=False)))
        with pytest.raises(ValueError, match="shared cache level L1"):
            replace(SPR, caches=(replace(l1, shared=True), l2, llc))

    def test_missing_isa_raises(self):
        cl = CoreCluster("c", 1, 1.0, {DType.F32: ISA.AVX2})
        with pytest.raises(ValueError):
            cl.isa_for(DType.BF16)

    def test_dram_bytes_per_cycle(self):
        m = SPR
        assert m.dram_bw_bytes_per_cycle() == pytest.approx(614.0 / 2.0)


class TestServingHeterogeneity:
    """Every preset must expose the fields the serving and fleet layers
    consume: a KV pool sizes itself from ``dram_capacity_gbytes``, and
    an op cost model defaults its ``num_threads`` to ``total_cores``."""

    TINY = None   # built lazily: importing workloads here is deliberate

    @classmethod
    def _tiny(cls):
        if cls.TINY is None:
            from repro.workloads import LlmConfig
            cls.TINY = LlmConfig("tiny", layers=2, hidden=128, heads=4,
                                 intermediate=512, vocab=1024)
        return cls.TINY

    @pytest.mark.parametrize("name", sorted(ALL_PLATFORMS))
    def test_dram_capacity_positive(self, name):
        m = ALL_PLATFORMS[name]
        assert m.dram_capacity_gbytes > 0
        assert m.dram_bw_gbytes > 0
        assert m.total_cores > 0

    @pytest.mark.parametrize("name", sorted(ALL_PLATFORMS))
    def test_paged_kv_pool_sizes_from_dram(self, name):
        from repro.serve import PagedKvPool
        m = ALL_PLATFORMS[name]
        pool = PagedKvPool(self._tiny(), m, DType.F32, block_tokens=16,
                           mem_fraction=0.5)
        assert pool.total_blocks > 0

    @pytest.mark.parametrize("name", sorted(ALL_PLATFORMS))
    def test_op_cost_model_threads_default_to_cores(self, name):
        from repro.workloads.opsim import OpCostModel
        m = ALL_PLATFORMS[name]
        cost = OpCostModel(m)
        assert cost.num_threads == m.total_cores

    def test_kv_budgets_differ_across_hetero4(self):
        from repro.serve import PagedKvPool
        blocks = [PagedKvPool(self._tiny(), m, DType.F32, block_tokens=16,
                              mem_fraction=0.5).total_blocks
                  for m in cluster_preset("hetero4")]
        assert len(set(blocks)) > 1   # heterogeneity is real


class TestClusterPresets:
    def test_every_cluster_uses_known_platforms(self):
        for name, machines in CLUSTER_PRESETS.items():
            assert len(machines) >= 2, name
            for m in machines:
                assert ALL_PLATFORMS[m.name] is m

    def test_hetero4_lineup(self):
        assert tuple(m.name for m in cluster_preset("hetero4")) \
            == ("SPR", "GVT3", "Zen4", "SPR-1S")

    def test_unknown_cluster(self):
        with pytest.raises(KeyError, match="unknown cluster"):
            cluster_preset("nope")
