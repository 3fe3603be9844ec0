"""Microkernel configuration — the TPP backend's code-generation decisions.

LIBXSMM JITs a (BR)GEMM microkernel per (shape, precision, ISA): it picks a
2D register-blocking of the ``bm x bn`` accumulator panel, an unroll of the
K loop, and the instruction mix (AVX512 FMA, VNNI dot-products, AMX tile
ops, SVE MMLA).  The paper delegates "loop unrolling, vectorization,
register blocking, instruction selection" to this layer (§II-C).

We reproduce the *decision procedure* (it determines efficiency, which the
simulator charges) rather than emitting machine code.  The rules follow the
2D register-blocking strategy of Georganas et al. IPDPS'20 [21]:
maximise accumulator tiles held in registers subject to the register file,
keeping enough independent accumulators to hide FMA latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dtypes import DType
from .isa import ISA, ISA_SPECS, IsaSpec, MatrixUnit, matrix_unit_efficiency

__all__ = ["MicrokernelConfig", "configure_microkernel"]

#: architectural vector registers available to the GEMM register allocator
_NUM_VREGS = {512: 32, 256: 32, 128: 32}
#: FMA latency in cycles (needs this many independent accumulators in flight)
_FMA_LATENCY = 4
#: AMX tile geometry for BF16 (rows x cols of FP32 accumulator)
_AMX_TILE_M, _AMX_TILE_N, _AMX_TILE_K = 16, 16, 32
#: MMLA tile geometry
_MMLA_TILE_M, _MMLA_TILE_N, _MMLA_TILE_K = 2, 2, 4


@dataclass(frozen=True)
class MicrokernelConfig:
    """The backend's chosen microkernel for one BRGEMM shape."""

    isa: ISA
    dtype: DType
    bm: int
    bn: int
    bk: int
    #: register-block (rows of vectors x columns) of the accumulator
    reg_m: int
    reg_n: int
    #: K-loop unroll factor
    unroll_k: int
    #: fraction of ISA peak the kernel shape can reach (0..1]
    efficiency: float
    #: True when the shape maps onto the matrix unit (AMX/MMLA)
    uses_matrix_unit: bool
    #: layout requirement satisfied: VNNI for AMX/VNNI paths, MMLA packing
    needs_vnni: bool

    def flops_per_cycle(self) -> float:
        """Effective FLOP/cycle/core of this microkernel."""
        return ISA_SPECS[self.isa].flops_per_cycle(self.dtype) * self.efficiency


def _vector_efficiency(spec: IsaSpec, dtype: DType, bm: int, bn: int,
                       bk: int) -> tuple[int, int, int, float]:
    """2D register blocking for vector-FMA paths; returns (rm, rn, uk, eff)."""
    lanes = max(1, spec.vector_bits // (dtype.nbytes * 8))
    if dtype is DType.BF16 and spec.full_chain > 1:
        # BF16 dot-product lanes consume pairs: accumulator is FP32-wide
        lanes = max(1, spec.vector_bits // 32)
    vregs = _NUM_VREGS.get(spec.vector_bits, 32)
    # accumulator panel: reg_n vectors wide, reg_m rows; keep
    # reg_m * reg_n <= vregs - (reg_n + 2) for A broadcasts + B loads
    best = (1, 1, 1, 0.0)
    max_rows = max(1, bm)
    for reg_n in range(1, min(8, max(1, bn // lanes) if bn >= lanes else 1) + 1):
        for reg_m in range(1, min(max_rows, 30) + 1):
            if reg_m * reg_n + reg_n + 2 > vregs:
                continue
            if reg_m * reg_n < _FMA_LATENCY * spec.fma_pipes:
                # not enough independent accumulators to hide FMA latency
                latency_eff = (reg_m * reg_n) / float(
                    _FMA_LATENCY * spec.fma_pipes)
            else:
                latency_eff = 1.0
            # remainder handling: partial vectors on the N edge
            n_full = (bn // lanes) * lanes
            edge_eff = bn / float(lanes * max(1, -(-bn // lanes)))
            m_eff = bm / float(reg_m * max(1, -(-bm // reg_m)))
            eff = latency_eff * edge_eff * m_eff
            if eff > best[3]:
                unroll_k = 4 if bk % 4 == 0 else (2 if bk % 2 == 0 else 1)
                best = (reg_m, reg_n, unroll_k, eff)
    return best


def configure_microkernel(isa: ISA, dtype: DType, bm: int, bn: int, bk: int
                          ) -> MicrokernelConfig:
    """Pick the microkernel for a (bm, bn, bk) BRGEMM.

    This is the reproduction's stand-in for LIBXSMM's JIT: the same inputs
    that select an assembly kernel there select an efficiency model here.
    """
    spec = ISA_SPECS[isa]
    if bm <= 0 or bn <= 0 or bk <= 0:
        raise ValueError(f"invalid microkernel shape ({bm},{bn},{bk})")

    # Accumulation depth is a *per-instruction* property: one AMX tile op
    # contracts K=32 BF16 pairs, one BFMMLA K=4, one VDPBF16PS K=2.  A
    # microkernel with bk below that depth cannot fill the pipeline no
    # matter how many blocks it batch-reduces (the Fig 8 mechanism:
    # "the systolic is fully utilized with accumulation length multiples
    # of 32" — a 4-deep chain reaches 4/32 = 12.5 % of peak).
    chain = bk

    if spec.matrix_unit is MatrixUnit.AMX and dtype.is_low_precision:
        # AMX tiles are dimension-configurable (rows <= 16), so small bm/bn
        # cost proportionally fewer cycles rather than wasting the tile;
        # 2D 2x2-tile blocking (§V-A5) earns full efficiency, single-tile
        # shapes pay a small pipeline bubble.
        tiles_m = -(-bm // _AMX_TILE_M)
        tiles_n = -(-bn // _AMX_TILE_N)
        chain_eff = matrix_unit_efficiency(spec, chain)
        two_d = 1.0 if (tiles_m >= 2 and tiles_n >= 2) else 0.9
        eff = chain_eff * two_d
        return MicrokernelConfig(isa, dtype, bm, bn, bk,
                                 reg_m=min(2, tiles_m), reg_n=min(2, tiles_n),
                                 unroll_k=_AMX_TILE_K,
                                 efficiency=max(1e-3, eff),
                                 uses_matrix_unit=True, needs_vnni=True)

    if spec.matrix_unit is MatrixUnit.MMLA and dtype.is_low_precision:
        rows_ok = bm % _MMLA_TILE_M == 0
        cols_ok = bn % _MMLA_TILE_N == 0
        occupancy = 1.0 if (rows_ok and cols_ok) else 0.8
        chain_eff = matrix_unit_efficiency(spec, chain)
        rm, rn, uk, reg_eff = _vector_efficiency(spec, DType.F32, bm, bn, bk)
        eff = occupancy * chain_eff * max(reg_eff, 0.5)
        return MicrokernelConfig(isa, dtype, bm, bn, bk,
                                 reg_m=rm, reg_n=rn, unroll_k=uk,
                                 efficiency=max(1e-3, eff),
                                 uses_matrix_unit=True, needs_vnni=True)

    rm, rn, uk, eff = _vector_efficiency(spec, dtype, bm, bn, bk)
    if dtype.is_low_precision and spec.full_chain > 1:
        eff *= matrix_unit_efficiency(spec, chain)
        needs_vnni = True
    else:
        needs_vnni = False
    return MicrokernelConfig(isa, dtype, bm, bn, bk,
                             reg_m=rm, reg_n=rn, unroll_k=uk,
                             efficiency=max(1e-3, min(1.0, eff)),
                             uses_matrix_unit=False, needs_vnni=needs_vnni)
