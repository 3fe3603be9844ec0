"""Base machinery for Tensor Processing Primitives.

A TPP is a *virtual tensor ISA* operator on 2D tensors (Georganas et al.,
SC'21; §I of the IPDPS'24 paper).  The specification is platform-agnostic;
the implementation is platform-specific.  In this reproduction the
functional implementation is NumPy and the "platform-specific" part is the
backend configuration layer (:mod:`repro.tpp.backend`), which picks the
microkernel (vector width, register blocking, accumulation chain) for a
contraction shape.

Every TPP follows the paper's usage pattern: construct once with shapes and
precisions (this is when LIBXSMM would JIT code), then invoke many times on
tensor blocks.  A TPP holds its shape, its precision and its arithmetic;
what a call costs on a machine is described once, by the event builders of
:mod:`repro.simulator.cost`, which price BRGEMMs through the dispatch cache
in :mod:`repro.tpp.backend.dispatch`.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from .dtypes import Precision, from_compute, to_compute

__all__ = ["TPP", "BlockTPP"]


class TPP(abc.ABC):
    """Abstract base of all Tensor Processing Primitives.

    Subclasses implement :meth:`_execute` operating in compute precision on
    float arrays; the base class handles precision conversion on the way in
    and out.
    """

    #: human-readable operator name, e.g. "brgemm", "relu"
    name: str = "tpp"

    def __init__(self, precision: Precision = Precision()):
        self.precision = precision

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._execute(*args, **kwargs)

    @abc.abstractmethod
    def _execute(self, *args: Any, **kwargs: Any) -> Any:
        ...

    # -- helpers for subclasses ----------------------------------------
    def _in(self, x: np.ndarray) -> np.ndarray:
        return to_compute(x, self.precision.inp, self.precision.comp)

    def _out(self, x: np.ndarray) -> np.ndarray:
        return from_compute(x, self.precision.out)

    def _store(self, dst: np.ndarray, value: np.ndarray) -> None:
        """Write *value* into *dst* in the output storage precision."""
        dst[...] = from_compute(value, self.precision.out).astype(
            dst.dtype, copy=False
        )


class BlockTPP(TPP):
    """A TPP over one ``(m, n)`` block, the paper's TPP granularity."""

    def __init__(self, m: int, n: int, precision: Precision = Precision()):
        super().__init__(precision)
        if m <= 0 or n <= 0:
            raise ValueError(f"TPP block dims must be positive, got {m}x{n}")
        self.m = int(m)
        self.n = int(n)

    def _check(self, x: np.ndarray) -> None:
        if x.shape != (self.m, self.n):
            raise ValueError(
                f"{self.name} TPP expects block ({self.m},{self.n}), "
                f"got {x.shape}"
            )
