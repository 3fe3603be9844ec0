"""CPU machine models.

Each :class:`MachineModel` captures the handful of parameters the paper's
performance-modeling methodology needs (§II-E: "few parameters modeling the
target CPU"): core counts and types, per-dtype contraction ISA, cache
hierarchy (size + bandwidth per level), and DRAM bandwidth.  The richer
simulation engine additionally uses the shared/private split and the
hybrid-core description (for ADL's P+E cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tpp.backend.isa import ISA, ISA_SPECS
from ..tpp.dtypes import DType

__all__ = ["CacheLevel", "CoreCluster", "MachineModel"]

GIGA = 1e9


@dataclass(frozen=True)
class CacheLevel:
    """One cache level.  Bandwidth is bytes/cycle — per core for private
    levels, aggregate for shared levels."""

    name: str
    size_bytes: int
    bw_bytes_per_cycle: float
    shared: bool = False

    def __post_init__(self):
        if self.size_bytes <= 0 or self.bw_bytes_per_cycle <= 0:
            raise ValueError(f"invalid cache level {self.name}")


@dataclass(frozen=True)
class CoreCluster:
    """A homogeneous group of cores (hybrid CPUs have several clusters)."""

    name: str
    count: int
    freq_ghz: float
    #: contraction ISA per dtype, e.g. {F32: AVX512, BF16: AMX_BF16}
    isa_by_dtype: dict
    #: relative scalar/efficiency factor (E-cores < 1.0)
    ipc_scale: float = 1.0

    def isa_for(self, dtype: DType) -> ISA:
        try:
            return self.isa_by_dtype[dtype]
        except KeyError:
            raise ValueError(
                f"{self.name} has no contraction ISA for {dtype}") from None

    def flops_per_cycle(self, dtype: DType) -> float:
        return ISA_SPECS[self.isa_for(dtype)].flops_per_cycle(dtype) \
            * self.ipc_scale

    def peak_gflops(self, dtype: DType) -> float:
        return self.count * self.freq_ghz * self.flops_per_cycle(dtype)


@dataclass(frozen=True)
class MachineModel:
    """A complete platform description."""

    name: str
    clusters: tuple            # tuple[CoreCluster], fastest first
    caches: tuple              # tuple[CacheLevel], innermost (L1) first
    dram_bw_gbytes: float      # aggregate GB/s
    #: cross-core transfer penalty factor applied to LLC hits on lines
    #: last written by another core (coherence/mesh hop cost)
    remote_hit_penalty: float = 1.5
    #: fixed per-kernel dispatch overhead in microseconds (framework cost)
    dispatch_overhead_us: float = 0.5
    #: single-core streaming limits: one core cannot pull more than this
    #: from the shared LLC (bytes/cycle) or from DRAM (GB/s), regardless
    #: of how idle the rest of the chip is
    core_llc_bw_bytes_per_cycle: float = 24.0
    core_dram_gbytes: float = 20.0
    #: installed DRAM capacity in GiB — sizes anything that must *live*
    #: in memory (model weights, KV-cache pools) rather than stream
    #: through it
    dram_capacity_gbytes: float = 64.0

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("machine needs at least one core cluster")
        if not self.caches:
            raise ValueError("machine needs at least one cache level")
        for lv in self.caches[:-1]:
            if lv.shared:
                raise ValueError(
                    f"shared cache level {lv.name} must be the outermost "
                    f"level (the simulators model one shared last level)")

    # -- core topology ----------------------------------------------------
    @property
    def total_cores(self) -> int:
        return sum(c.count for c in self.clusters)

    @property
    def is_hybrid(self) -> bool:
        return len(self.clusters) > 1

    def cluster_of(self, core_id: int) -> CoreCluster:
        """Cluster of a global core id (clusters packed in order)."""
        cid = core_id
        for cl in self.clusters:
            if cid < cl.count:
                return cl
            cid -= cl.count
        raise ValueError(
            f"core id {core_id} out of range (machine has "
            f"{self.total_cores} cores)")

    @property
    def freq_ghz(self) -> float:
        """Frequency of the leading (performance) cluster."""
        return self.clusters[0].freq_ghz

    # -- capabilities -------------------------------------------------------
    def isa_for(self, dtype: DType) -> ISA:
        return self.clusters[0].isa_for(dtype)

    def supports(self, dtype: DType) -> bool:
        try:
            self.clusters[0].isa_for(dtype)
            return True
        except ValueError:
            return False

    def peak_gflops(self, dtype: DType) -> float:
        """Machine-wide peak for *dtype* contractions."""
        return sum(c.peak_gflops(dtype) for c in self.clusters
                   if dtype in c.isa_by_dtype)

    # -- memory ---------------------------------------------------------
    @property
    def dram_capacity_bytes(self) -> float:
        return self.dram_capacity_gbytes * (1 << 30)

    def dram_bw_bytes_per_cycle(self) -> float:
        """DRAM bandwidth normalised to leading-cluster cycles."""
        return self.dram_bw_gbytes * GIGA / (self.freq_ghz * GIGA)

    @property
    def llc(self) -> CacheLevel:
        return self.caches[-1]

    def describe(self) -> str:
        """Human-readable summary (README / bench headers)."""
        cores = " + ".join(f"{c.count}x {c.name}@{c.freq_ghz}GHz"
                           for c in self.clusters)
        caches = ", ".join(
            f"{lv.name} {lv.size_bytes // 1024}KiB"
            if lv.size_bytes < 1 << 20 else
            f"{lv.name} {lv.size_bytes / (1 << 20):.0f}MiB"
            for lv in self.caches)
        return (f"{self.name}: {cores}; {caches}; "
                f"DRAM {self.dram_bw_gbytes:.0f} GB/s")
