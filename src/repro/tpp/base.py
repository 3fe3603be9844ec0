"""Base machinery for Tensor Processing Primitives.

A TPP is a *virtual tensor ISA* operator on 2D tensors (Georganas et al.,
SC'21; §I of the IPDPS'24 paper).  The specification is platform-agnostic;
the implementation is platform-specific.  In this reproduction the
functional implementation is NumPy and the "platform-specific" part is the
backend configuration layer (:mod:`repro.tpp.backend`) which records the
microkernel decisions (vector width, register blocking, accumulation chain)
that the simulator charges for.

Every TPP follows the paper's usage pattern: construct once with shapes and
precisions (this is when LIBXSMM would JIT code), then invoke many times on
tensor blocks.  Construction cost is amortised exactly as in the paper via
the dispatch cache in :mod:`repro.tpp.backend.dispatch`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dtypes import Precision, from_compute, to_compute

__all__ = ["TPP", "TPPSignature", "flops_of", "bytes_of"]


@dataclass(frozen=True)
class TPPSignature:
    """Hashable identity of a TPP instance — the JIT-cache key.

    Mirrors ``libxsmm_*_shape`` + flags: kernels are generated per (shape,
    precision, flags) tuple and cached.
    """

    name: str
    shape: tuple
    precision: Precision
    flags: tuple = ()

    def cache_key(self) -> tuple:
        return (self.name, self.shape, self.precision, self.flags)


class TPP(abc.ABC):
    """Abstract base of all Tensor Processing Primitives.

    Subclasses implement :meth:`_execute` operating in compute precision on
    float arrays; the base class handles precision conversion on the way in
    and out and accounting of flops / bytes moved (used by the simulator
    cost model and by the benchmark harness).
    """

    #: human-readable operator name, e.g. "brgemm", "relu"
    name: str = "tpp"

    def __init__(self, precision: Precision = Precision()):
        self.precision = precision
        self._invocations = 0

    # -- introspection -------------------------------------------------
    @property
    @abc.abstractmethod
    def signature(self) -> TPPSignature:
        """Identity used for JIT-cache lookup and simulation."""

    @property
    def invocations(self) -> int:
        """Number of times this primitive has been applied."""
        return self._invocations

    @abc.abstractmethod
    def flop_count(self) -> int:
        """Floating-point operations per invocation."""

    @abc.abstractmethod
    def bytes_moved(self) -> int:
        """Logical bytes read + written per invocation (storage precision)."""

    # -- execution ------------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self._invocations += 1
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.signature.shape} {self.precision}>"


def flops_of(tpp: TPP, invocations: int = 1) -> int:
    """Total flops for *invocations* applications of *tpp*."""
    return tpp.flop_count() * invocations


def bytes_of(tpp: TPP, invocations: int = 1) -> int:
    """Total logical bytes for *invocations* applications of *tpp*."""
    return tpp.bytes_moved() * invocations
