"""Tests for the paged KV-cache pool."""

import random
from dataclasses import replace

import pytest

from repro.platform import SPR
from repro.serve import PagedKvPool
from repro.tpp.dtypes import DType
from repro.workloads import LlmConfig

TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=1024)


def small_pool(n_blocks=32, block_tokens=16):
    """A pool with exactly *n_blocks* blocks on a shrunken SPR."""
    bytes_needed = TINY.weight_bytes(DType.BF16) \
        + n_blocks * block_tokens * TINY.kv_bytes_per_token(DType.BF16)
    machine = replace(SPR, dram_capacity_gbytes=bytes_needed / (1 << 30))
    return PagedKvPool(TINY, machine, DType.BF16,
                       block_tokens=block_tokens, mem_fraction=1.0)


class TestSizing:
    def test_kv_byte_math(self):
        # per token: layers x 2 (K+V) x hidden x dtype bytes
        assert TINY.kv_bytes_per_token(DType.BF16) == 4 * 2 * 256 * 2
        assert TINY.kv_bytes(10, DType.BF16) == 10 * 4 * 2 * 256 * 2

    def test_pool_sized_from_machine_memory(self):
        pool = PagedKvPool(TINY, SPR, DType.BF16, block_tokens=16)
        expected = (SPR.dram_capacity_bytes * 0.9
                    - TINY.weight_bytes(DType.BF16)) \
            // (16 * TINY.kv_bytes_per_token(DType.BF16))
        assert pool.total_blocks == int(expected)

    def test_weights_must_fit(self):
        cramped = replace(SPR, dram_capacity_gbytes=0.001)
        with pytest.raises(ValueError):
            PagedKvPool(TINY, cramped, DType.BF16)


class TestAllocation:
    def test_grow_and_release(self):
        pool = small_pool(n_blocks=32)
        pool.grow(1, 20)                     # 20 tokens -> 2 blocks
        assert pool.free_blocks == 30
        assert pool.cached_tokens(1) == 20
        pool.grow(1, 33)                     # -> 3 blocks
        assert pool.free_blocks == 29
        assert pool.release(1) == 33
        assert pool.free_blocks == 32

    def test_grow_is_incremental(self):
        pool = small_pool(n_blocks=4, block_tokens=16)
        pool.grow(1, 16)
        pool.grow(2, 16)
        assert pool.can_grow(1, 32) and pool.can_grow(2, 32)
        pool.grow(1, 32)
        pool.grow(2, 32)
        # 4 blocks used; nobody can take a 5th
        assert not pool.can_grow(1, 48)
        with pytest.raises(MemoryError):
            pool.grow(2, 48)

    def test_held_blocks_grow_while_loss_overlaps_them(self):
        """Growth inside held blocks needs no free block, so it goes
        ahead, as can_grow says, while lost capacity drives free_blocks
        negative."""
        pool = small_pool(n_blocks=8, block_tokens=16)
        pool.grow(1, 100)                  # 7 blocks
        pool.set_lost_fraction(0.5)        # 4 lost: 3 over capacity
        assert pool.free_blocks == -3
        assert pool.can_grow(1, 112) and pool.can_reserve(1, 112)
        pool.grow(1, 112)
        pool.reserve(1, 112)
        assert (pool.used_blocks, pool.cached_tokens(1)) == (7, 112)
        assert not pool.can_grow(1, 113)
        with pytest.raises(MemoryError):
            pool.grow(1, 113)
        with pytest.raises(MemoryError):
            pool.reserve(1, 113)

    def test_fits_is_whole_pool(self):
        pool = small_pool(n_blocks=8, block_tokens=16)
        assert pool.fits(128)
        assert not pool.fits(129)

    def test_reserve_holds_blocks_without_caching(self):
        pool = small_pool(n_blocks=8, block_tokens=16)
        pool.reserve(1, 64)                  # 4 blocks held
        assert pool.free_blocks == 4
        assert pool.cached_tokens(1) == 0
        pool.grow(1, 30)                     # fills within reservation
        assert pool.free_blocks == 4         # no extra blocks taken
        assert pool.cached_tokens(1) == 30
        with pytest.raises(MemoryError):
            pool.reserve(2, 128)


class TestAccounting:
    def test_occupancy(self):
        pool = small_pool(n_blocks=10)
        assert pool.occupancy == 0.0
        pool.grow(1, 16 * 5)
        assert pool.occupancy == pytest.approx(0.5)

    def test_fragmentation_bounded_by_one_block(self):
        pool = small_pool(n_blocks=10, block_tokens=16)
        pool.grow(1, 17)                     # 2 blocks, 15 slots wasted
        assert pool.fragmentation == pytest.approx(15 / 32)
        pool.grow(1, 32)                     # exactly full blocks
        assert pool.fragmentation == 0.0

    def test_reservation_shows_as_fragmentation(self):
        pool = small_pool(n_blocks=10, block_tokens=16)
        pool.reserve(1, 160)                 # worst case held, nothing used
        assert pool.occupancy == 1.0
        assert pool.fragmentation == 1.0

    def test_stats_snapshot(self):
        pool = small_pool(n_blocks=10)
        pool.grow(1, 16)
        pool.grow(2, 8)
        st = pool.stats()
        assert st.used_blocks == 2
        assert st.cached_tokens == 24
        assert pool.holders() == [1, 2]

    def test_running_totals_match_the_holders(self):
        """Every accounting property equals its value recomputed from
        the per-request dicts, after every operation of a random mix."""
        rng = random.Random(20261018)
        pool = small_pool(n_blocks=24, block_tokens=16)
        for _ in range(2000):
            rid = rng.randrange(5)
            op = rng.choice(["grow", "grow", "reserve", "roll_back",
                             "release", "lose"])
            tokens = rng.randrange(0, 200)
            try:
                if op == "grow":
                    pool.grow(rid, tokens)
                elif op == "reserve":
                    pool.reserve(rid, tokens)
                elif op == "roll_back":
                    pool.roll_back_tokens(rid, tokens)
                elif op == "release":
                    pool.release(rid)
                else:
                    pool.set_lost_fraction(rng.choice([0.0, 0.0, 0.3, 0.9]))
            except MemoryError:
                pass
            used = sum(pool._blocks.values())
            cached = sum(pool._tokens.values())
            slots = used * pool.block_tokens
            assert pool.used_blocks == used
            assert pool.free_blocks == \
                pool.total_blocks - pool.lost_blocks - used
            st = pool.stats()
            assert (st.used_blocks, st.cached_tokens) == (used, cached)
            assert pool.occupancy == used / pool.total_blocks
            assert pool.fragmentation == \
                (1.0 - cached / slots if slots else 0.0)
