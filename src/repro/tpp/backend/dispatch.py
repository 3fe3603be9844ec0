"""TPP dispatch cache.

LIBXSMM dispatches (JITs or cache-hits) a kernel per signature; repeated
dispatches of the same signature return the cached kernel at negligible
cost.  We reproduce that contract so the JIT-overhead ablation
(``bench_ablation_jit_cache``) measures the same cold/warm asymmetry the
paper's framework exhibits.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..dtypes import DType
from .isa import ISA
from .microkernel import MicrokernelConfig, configure_microkernel

__all__ = ["DispatchCache", "global_dispatch_cache", "dispatch_brgemm"]


class DispatchCache:
    """Thread-safe signature -> microkernel-config cache with hit stats."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cache: dict[tuple, MicrokernelConfig] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: tuple,
                     builder: Callable[[], MicrokernelConfig]
                     ) -> MicrokernelConfig:
        with self._lock:
            cfg = self._cache.get(key)
            if cfg is not None:
                self.hits += 1
                return cfg
            self.misses += 1
            cfg = builder()
            self._cache[key] = cfg
            return cfg

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)


_GLOBAL = DispatchCache()


def global_dispatch_cache() -> DispatchCache:
    return _GLOBAL


def dispatch_brgemm(isa: ISA, dtype: DType, bm: int, bn: int, bk: int,
                    cache: DispatchCache | None = None) -> MicrokernelConfig:
    """Dispatch a BRGEMM microkernel, reusing the cache on repeat shapes.

    The key is what selects the microkernel: ISA, dtype and block shape.
    The batch-reduce count is a call-time argument (Listing 1), so it
    selects nothing."""
    c = cache if cache is not None else _GLOBAL
    key = ("brgemm", isa, dtype, bm, bn, bk)
    return c.get_or_build(
        key, lambda: configure_microkernel(isa, dtype, bm, bn, bk))
