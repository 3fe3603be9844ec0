"""Event builders: turn TPP invocations into simulator BodyEvents.

The cost of a BRGEMM is predicted "by accounting for the relative cache
bandwidths and the compute-peak of the platform" (§II-E): compute cycles
come from the microkernel's effective FLOP/cycle (which folds in AMX/MMLA
accumulation-chain efficiency — the Fig 8 mechanism), memory cycles from
where each operand slice currently resides.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..platform.machine import MachineModel
from ..tpp.backend.dispatch import dispatch_brgemm
from ..tpp.dtypes import DType
from .trace import AccessColumns, BodyEvent, _read_only

__all__ = ["brgemm_event", "spmm_event", "eltwise_event",
           "bandwidth_event"]


@lru_cache(maxsize=4096)
def _runs(runs: tuple) -> tuple:
    """The ``(nbytes, footprint, cost_scale, write)`` columns of *runs*,
    each ``(count, nbytes, footprint, cost_scale, write)`` describing
    *count* like accesses in a row.  A zero footprint means ``nbytes``,
    as in :class:`~repro.simulator.trace.Access`.  Events of one shape
    share these read-only arrays."""
    counts = [r[0] for r in runs]

    def col(values, dtype=None):
        return _read_only(np.repeat(np.array(values, dtype=dtype), counts))

    return (col([r[1] for r in runs]),
            col([r[2] or r[1] for r in runs], np.int64),
            col([r[3] for r in runs], np.float64),
            col([r[4] for r in runs], bool))


def _event(keys: tuple, runs: tuple, flops: float,
           flops_per_cycle: float) -> BodyEvent:
    return BodyEvent.from_columns(AccessColumns(keys, *_runs(runs)),
                                  flops=flops,
                                  flops_per_cycle=flops_per_cycle)


def brgemm_event(machine: MachineModel, dtype: DType,
                 bm: int, bn: int, bk: int, brcount: int,
                 a_keys, b_keys, c_key, beta: float = 1.0,
                 c_first_touch: bool = False,
                 b_footprint_scale: float = 1.0) -> BodyEvent:
    """Event for one stride/offset BRGEMM invocation.

    ``a_keys``/``b_keys`` are the slice keys of the *brcount* A and B
    blocks; ``b_footprint_scale > 1`` models layouts that suffer conflict
    misses (flat B with large power-of-two leading dimension, §V-A1).
    """
    nb = dtype.nbytes
    cfg = dispatch_brgemm(machine.isa_for(dtype), dtype, bm, bn, bk)
    a_bytes = bm * bk * nb
    b_bytes = bk * bn * nb
    c_bytes = bm * bn * nb
    c_read = beta != 0.0 and not c_first_touch
    return _event(
        (*a_keys, *b_keys, *(c_key,) * (1 + c_read)),
        ((len(a_keys), a_bytes, 0, 1.0, False),
         (len(b_keys), b_bytes, int(b_bytes * b_footprint_scale),
          b_footprint_scale, False),
         (int(c_read), c_bytes, 0, 1.0, False),
         (1, c_bytes, 0, 1.0, True)),
        flops=2.0 * bm * bn * bk * brcount,
        flops_per_cycle=cfg.flops_per_cycle())


def spmm_event(machine: MachineModel, dtype: DType,
               bm: int, bn: int, bk: int, nnz_blocks: int,
               a_keys, b_keys, c_key,
               beta: float = 0.0) -> BodyEvent:
    """Event for one Block-SpMM microkernel call over a block row.

    Only the *nonzero* A blocks and their matching B blocks are touched —
    the bandwidth saving that makes SpMM win at high sparsity (Fig 8).
    The accumulation chain per AMX/FMA instruction is ``bk`` (the sparsity
    block's K depth), so small blocks pay the systolic-underfill penalty.
    """
    nb = dtype.nbytes
    cfg = dispatch_brgemm(machine.isa_for(dtype), dtype, bm, bn, bk)
    c_bytes = bm * bn * nb
    c_read = beta != 0.0
    return _event(
        (*a_keys, *b_keys, *(c_key,) * (1 + c_read)),
        ((len(a_keys), bm * bk * nb, 0, 1.0, False),
         (len(b_keys), bk * bn * nb, 0, 1.0, False),
         (int(c_read), c_bytes, 0, 1.0, False),
         (1, c_bytes, 0, 1.0, True)),
        flops=2.0 * bm * bn * bk * nnz_blocks,
        flops_per_cycle=cfg.flops_per_cycle())


def eltwise_event(machine: MachineModel, dtype: DType, m: int, n: int,
                  in_keys, out_key, flops_per_elem: float = 1.0,
                  reads_output: bool = False) -> BodyEvent:
    """Event for an elementwise/normalisation TPP over an (m, n) block.

    Elementwise ops run on the vector pipes at roughly half FMA
    throughput (one op per lane rather than a fused two).
    """
    from ..tpp.backend.isa import ISA_SPECS
    nb = dtype.nbytes
    spec = ISA_SPECS[machine.isa_for(DType.F32)]
    fpc = spec.flops_per_cycle(DType.F32) / 2.0
    in_keys = tuple(in_keys)
    return _event(
        (*in_keys, *(out_key,) * (1 + bool(reads_output))),
        ((len(in_keys) + bool(reads_output), m * n * nb, 0, 1.0, False),
         (1, m * n * nb, 0, 1.0, True)),
        flops=flops_per_elem * m * n,
        flops_per_cycle=fpc)


def bandwidth_event(key: tuple, nbytes: int, write: bool = False
                    ) -> BodyEvent:
    """Pure data-movement event (weight streaming, embedding lookups)."""
    return _event((key,), ((1, nbytes, 0, 1.0, write),), flops=0.0,
                  flops_per_cycle=1.0)
