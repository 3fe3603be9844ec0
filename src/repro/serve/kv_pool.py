"""Paged KV-cache pool — block-granular KV memory for concurrent requests.

Contiguous per-request KV buffers fragment and force worst-case
(``prompt + max_new``) reservations.  Paging the cache into fixed
``block_tokens``-position blocks lets the pool over-commit capacity and
reclaim it by preempting victims, at the cost of at most one
partially-filled block per request (bounded internal fragmentation).

The pool is pure bookkeeping: it never materialises tensors.  It is
sized from the :class:`~repro.platform.machine.MachineModel`'s DRAM
capacity minus the resident model weights, and prices per-token
footprint with :meth:`LlmConfig.kv_bytes_per_token` — the same byte math
the latency model streams through the bandwidth term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ServeConfigError
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from ..workloads.llm import LlmConfig

__all__ = ["KvPoolStats", "PagedKvPool"]


@dataclass(frozen=True)
class KvPoolStats:
    """Pool occupancy snapshot."""

    total_blocks: int
    used_blocks: int
    cached_tokens: int
    block_tokens: int

    @property
    def occupancy(self) -> float:
        """Fraction of pool blocks allocated."""
        return _occupancy(self.used_blocks, self.total_blocks)

    @property
    def fragmentation(self) -> float:
        """Fraction of *allocated* token slots holding no KV entry —
        the paged design's bounded internal fragmentation."""
        return _fragmentation(self.used_blocks, self.cached_tokens,
                              self.block_tokens)


def _occupancy(used_blocks: int, total_blocks: int) -> float:
    if total_blocks == 0:
        return 0.0
    return used_blocks / total_blocks


def _fragmentation(used_blocks: int, cached_tokens: int,
                   block_tokens: int) -> float:
    slots = used_blocks * block_tokens
    if slots == 0:
        return 0.0
    return 1.0 - cached_tokens / slots


class PagedKvPool:
    """Block allocator for the KV caches of in-flight requests."""

    def __init__(self, config: LlmConfig, machine: MachineModel,
                 dtype: DType = DType.BF16, block_tokens: int = 16,
                 mem_fraction: float = 0.9):
        if not isinstance(block_tokens, int) or block_tokens <= 0:
            raise ServeConfigError(
                f"block_tokens must be a positive integer, got "
                f"{block_tokens!r}")
        if not 0.0 < mem_fraction <= 1.0:
            raise ServeConfigError(
                f"mem_fraction must be in (0, 1], got {mem_fraction!r} "
                f"(it is the fraction of DRAM the server may use)")
        self.config = config
        self.dtype = dtype
        self.block_tokens = block_tokens
        self.bytes_per_token = config.kv_bytes_per_token(dtype)
        usable = machine.dram_capacity_bytes * mem_fraction \
            - config.weight_bytes(dtype)
        if usable <= 0:
            raise ServeConfigError(
                f"{config.name} weights do not fit in {machine.name}'s "
                f"{machine.dram_capacity_gbytes:.0f} GiB DRAM")
        self.total_blocks = int(usable //
                                (block_tokens * self.bytes_per_token))
        #: blocks transiently unavailable (fault-injected memory
        #: pressure); never affects :meth:`fits`, which asks whether a
        #: request could *ever* be served
        self.lost_blocks = 0
        #: rid -> number of blocks held
        self._blocks: dict = {}
        #: rid -> cached token positions (≤ blocks * block_tokens)
        self._tokens: dict = {}
        #: running totals of ``_blocks`` and ``_tokens``: the server
        #: reads occupancy every step, so they are never re-summed
        self._used = 0
        self._cached = 0

    # -- capacity -------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        """Blocks currently allocated (the load a KV-aware router sees)."""
        return self._used

    @property
    def free_blocks(self) -> int:
        """May go negative while fault-injected capacity loss overlaps
        existing allocations: nothing new fits until releases catch up."""
        return self.total_blocks - self.lost_blocks - self._used

    def set_lost_fraction(self, fraction: float) -> None:
        """Mark a fraction of the pool unavailable (memory pressure).

        Allocations already made are never clawed back here — the
        server decides what to preempt; the pool only refuses growth."""
        self.lost_blocks = int(self.total_blocks
                               * min(0.99, max(0.0, fraction)))

    def blocks_for(self, tokens: int) -> int:
        return -(-tokens // self.block_tokens)

    def fits(self, tokens: int) -> bool:
        """Could *tokens* positions ever fit in an empty pool?"""
        return self.blocks_for(tokens) <= self.total_blocks

    def can_grow(self, rid: int, new_total_tokens: int) -> bool:
        held = self._blocks.get(rid, 0)
        need = self.blocks_for(new_total_tokens) - held
        return need <= 0 or need <= self.free_blocks

    # -- allocation -----------------------------------------------------
    def grow(self, rid: int, new_total_tokens: int) -> None:
        """Extend (or create) *rid*'s cache to cover
        *new_total_tokens* positions."""
        held = self._blocks.get(rid, 0)
        need = self.blocks_for(new_total_tokens) - held
        if need > 0:
            # held blocks always fit, even while lost capacity drives
            # free_blocks negative (the rule can_grow applies)
            if need > self.free_blocks:
                raise MemoryError(
                    f"kv pool exhausted: request {rid} needs {need} "
                    f"blocks, {self.free_blocks} free")
            self._blocks[rid] = held + need
            self._used += need
        elif rid not in self._blocks:
            self._blocks[rid] = 0
        self._cached += new_total_tokens - self._tokens.get(rid, 0)
        self._tokens[rid] = new_total_tokens

    def can_reserve(self, rid: int, tokens: int) -> bool:
        need = self.blocks_for(tokens) - self._blocks.get(rid, 0)
        return need <= 0 or need <= self.free_blocks

    def reserve(self, rid: int, tokens: int) -> None:
        """Hold blocks for *tokens* positions without marking them
        cached — static batching's worst-case up-front reservation.
        Cached-token accounting still moves via :meth:`grow`, so the
        fragmentation metric shows the reservation waste."""
        need = self.blocks_for(tokens) - self._blocks.get(rid, 0)
        if need > 0 and need > self.free_blocks:
            raise MemoryError(
                f"kv pool exhausted: request {rid} reserves {need} "
                f"blocks, {self.free_blocks} free")
        self._blocks[rid] = self._blocks.get(rid, 0) + max(0, need)
        self._used += max(0, need)
        self._tokens.setdefault(rid, 0)

    def roll_back_tokens(self, rid: int, tokens: int) -> None:
        """Reset *rid*'s cached-token count after a failed step.

        The blocks stay held (they contain the lost work's garbage and
        will be overwritten by the redo); only the token accounting —
        which drives fragmentation metrics and the redo's grow targets —
        moves back."""
        if rid in self._blocks:
            held = self._tokens.get(rid, 0)
            kept = min(tokens, held)
            self._cached += kept - held
            self._tokens[rid] = kept

    def release(self, rid: int) -> int:
        """Free all of *rid*'s blocks; returns the evicted token count
        (what a preempted request must re-prefill)."""
        self._used -= self._blocks.pop(rid, 0)
        tokens = self._tokens.pop(rid, 0)
        self._cached -= tokens
        return tokens

    def cached_tokens(self, rid: int) -> int:
        return self._tokens.get(rid, 0)

    def holders(self) -> list:
        """rids currently holding blocks, insertion-ordered."""
        return list(self._blocks)

    # -- accounting -----------------------------------------------------
    def stats(self) -> KvPoolStats:
        return KvPoolStats(
            total_blocks=self.total_blocks,
            used_blocks=self._used,
            cached_tokens=self._cached,
            block_tokens=self.block_tokens)

    @property
    def occupancy(self) -> float:
        return _occupancy(self._used, self.total_blocks)

    @property
    def fragmentation(self) -> float:
        return _fragmentation(self._used, self._cached, self.block_tokens)
