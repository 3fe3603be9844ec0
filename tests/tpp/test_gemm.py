"""Tests for GEMM/BRGEMM TPPs and the Ptr memory helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpp import (BRGemmTPP, DType, GemmTPP, Precision, Ptr, bf16_round,
                       vnni_pack)


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestPtr:
    def test_of_block_offset(self):
        a = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5)
        p = Ptr.of(a, 1, 2)
        assert p.offset == (1 * 3 + 2) * 20
        blk = p.block((4, 5))
        assert np.array_equal(blk, a[1, 2])

    def test_block_is_writable_view(self):
        a = np.zeros((2, 3), dtype=np.float32)
        Ptr.of(a).block((2, 3))[0, 0] = 7
        assert a[0, 0] == 7

    def test_pointer_arithmetic(self):
        a = np.arange(10, dtype=np.float32)
        p = Ptr.of(a) + 4
        assert p.block((2,))[0] == 4

    def test_batch_strided_view(self):
        a = np.arange(24, dtype=np.float32)
        batch = Ptr.of(a).batch(3, (2, 2), stride=8)
        assert batch.shape == (3, 2, 2)
        assert batch[1, 0, 0] == 8
        assert batch[2, 1, 1] == 19

    def test_out_of_bounds_raises(self):
        a = np.zeros(10, dtype=np.float32)
        with pytest.raises(IndexError):
            Ptr.of(a).block((4,), elem_offset=8)
        with pytest.raises(IndexError):
            Ptr.of(a).batch(3, (2, 2), stride=8)

    def test_index_bounds_checked(self):
        a = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(IndexError):
            Ptr.of(a, 2)

    def test_non_contiguous_rejected(self):
        a = np.zeros((4, 4), dtype=np.float32)[:, ::2]
        with pytest.raises(ValueError):
            Ptr.of(a)


class TestGemmTPP:
    def test_beta_zero(self):
        a, b = rand(4, 8, seed=1), rand(8, 6, seed=2)
        c = rand(4, 6, seed=3)
        GemmTPP(4, 6, 8, beta=0.0)(a, b, c)
        assert np.allclose(c, a @ b, atol=1e-5)

    def test_beta_one_accumulates(self):
        a, b = rand(4, 8, seed=4), rand(8, 6, seed=5)
        c0 = rand(4, 6, seed=6)
        c = c0.copy()
        GemmTPP(4, 6, 8, beta=1.0)(a, b, c)
        assert np.allclose(c, c0 + a @ b, atol=1e-5)

    def test_trans_b(self):
        a, bt = rand(4, 8, seed=7), rand(6, 8, seed=8)
        c = np.zeros((4, 6), dtype=np.float32)
        GemmTPP(4, 6, 8, beta=0.0, trans_b=True)(a, bt, c)
        assert np.allclose(c, a @ bt.T, atol=1e-5)

    def test_trans_a(self):
        at, b = rand(8, 4, seed=9), rand(8, 6, seed=10)
        c = np.zeros((4, 6), dtype=np.float32)
        GemmTPP(4, 6, 8, beta=0.0, trans_a=True)(at, b, c)
        assert np.allclose(c, at.T @ b, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GemmTPP(4, 6, 8)(rand(4, 7), rand(7, 6), np.zeros((4, 6)))


class TestBRGemmStride:
    def test_matches_sum_of_products(self):
        br, bm, bk, bn = 5, 4, 8, 6
        A = rand(br, bm, bk, seed=11)
        B = rand(br, bk, bn, seed=12)
        C = np.zeros((bm, bn), dtype=np.float32)
        t = BRGemmTPP(bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn, beta=0.0)
        t(Ptr.of(A), Ptr.of(B), C, brcount=br)
        ref = sum(A[i] @ B[i] for i in range(br))
        assert np.allclose(C, ref, atol=1e-5)

    def test_blocked_layout_walk(self):
        # Listing 1 layout: A[Kb][Mb][bm][bk]; walking the K blocks of a
        # fixed (im) column means stride = Mb*bm*bk between blocks.
        Kb, Mb, bm, bk = 3, 2, 4, 5
        A = rand(Kb, Mb, bm, bk, seed=13)
        bn = 6
        B = rand(Kb, bk, bn, seed=14)
        C = np.zeros((bm, bn), dtype=np.float32)
        t = BRGemmTPP(bm, bn, bk, stride_a=Mb * bm * bk, stride_b=bk * bn,
                      beta=0.0)
        im = 1
        t(Ptr.of(A, 0, im), Ptr.of(B), C, brcount=Kb)
        ref = sum(A[ik, im] @ B[ik] for ik in range(Kb))
        assert np.allclose(C, ref, atol=1e-5)

    def test_beta_one(self):
        A, B = rand(2, 4, 8, seed=15), rand(2, 8, 6, seed=16)
        C0 = rand(4, 6, seed=17)
        C = C0.copy()
        BRGemmTPP(4, 6, 8, stride_a=32, stride_b=48, beta=1.0)(
            Ptr.of(A), Ptr.of(B), C, brcount=2)
        assert np.allclose(C, C0 + A[0] @ B[0] + A[1] @ B[1], atol=1e-5)

    def test_brcount_validation(self):
        t = BRGemmTPP(4, 6, 8, stride_a=32, stride_b=48)
        with pytest.raises(ValueError):
            t(Ptr.of(rand(1, 4, 8)), Ptr.of(rand(1, 8, 6)),
              np.zeros((4, 6), np.float32), brcount=0)

    def test_c_shape_validated(self):
        t = BRGemmTPP(4, 6, 8, stride_a=32, stride_b=48)
        with pytest.raises(ValueError):
            t(Ptr.of(rand(1, 4, 8)), Ptr.of(rand(1, 8, 6)),
              np.zeros((4, 7), np.float32), brcount=1)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_property_random_shapes(self, br, m, n, k):
        bm, bn, bk = 2 * m, 2 * n, 2 * k
        A = rand(br, bm, bk, seed=br * 100 + m)
        B = rand(br, bk, bn, seed=br * 100 + n)
        C = np.zeros((bm, bn), dtype=np.float32)
        BRGemmTPP(bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn, beta=0.0)(
            Ptr.of(A), Ptr.of(B), C, brcount=br)
        ref = np.einsum("imk,ikn->mn", A, B)
        assert np.allclose(C, ref, atol=1e-4)


class TestBRGemmOffset:
    def test_offsets_gather_arbitrary_blocks(self):
        pool_a = rand(6, 4, 8, seed=18)
        pool_b = rand(6, 8, 5, seed=19)
        C = np.zeros((4, 5), dtype=np.float32)
        t = BRGemmTPP(4, 5, 8, variant="offset", beta=0.0)
        a_offs = [2 * 32, 0 * 32, 5 * 32]
        b_offs = [1 * 40, 3 * 40, 4 * 40]
        t(Ptr.of(pool_a), Ptr.of(pool_b), C, brcount=3,
          a_offsets=a_offs, b_offsets=b_offs)
        ref = pool_a[2] @ pool_b[1] + pool_a[0] @ pool_b[3] + \
            pool_a[5] @ pool_b[4]
        assert np.allclose(C, ref, atol=1e-5)

    def test_missing_offsets_raise(self):
        t = BRGemmTPP(4, 5, 8, variant="offset")
        with pytest.raises(ValueError):
            t(Ptr.of(rand(1, 4, 8)), Ptr.of(rand(1, 8, 5)),
              np.zeros((4, 5), np.float32), brcount=1)

    def test_short_offset_arrays_raise(self):
        t = BRGemmTPP(4, 5, 8, variant="offset")
        with pytest.raises(ValueError):
            t(Ptr.of(rand(2, 4, 8)), Ptr.of(rand(2, 8, 5)),
              np.zeros((4, 5), np.float32), brcount=2,
              a_offsets=[0], b_offsets=[0])


class TestBRGemmAddress:
    def test_explicit_block_lists(self):
        A = [rand(4, 8, seed=20 + i) for i in range(3)]
        B = [rand(8, 6, seed=30 + i) for i in range(3)]
        C = np.zeros((4, 6), dtype=np.float32)
        BRGemmTPP(4, 6, 8, variant="address", beta=0.0)(A, B, C, brcount=3)
        ref = sum(a @ b for a, b in zip(A, B))
        assert np.allclose(C, ref, atol=1e-5)


class TestBRGemmVnni:
    def test_vnni2_b_layout(self):
        br, bm, bk, bn = 2, 4, 8, 6
        A = rand(br, bm, bk, seed=40)
        Bflat = rand(br, bk, bn, seed=41)
        Bv = np.stack([vnni_pack(Bflat[i], 2) for i in range(br)])
        C = np.zeros((bm, bn), dtype=np.float32)
        t = BRGemmTPP(bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn,
                      beta=0.0, b_vnni=2)
        t(Ptr.of(A), Ptr.of(Bv), C, brcount=br)
        ref = sum(A[i] @ Bflat[i] for i in range(br))
        assert np.allclose(C, ref, atol=1e-5)

    def test_vnni_requires_divisible_bk(self):
        with pytest.raises(ValueError):
            BRGemmTPP(4, 6, 7, b_vnni=2)


class TestBf16BRGemm:
    def test_fp32_accumulation_semantics(self):
        # inputs constrained to bf16, accumulation in fp32, single final
        # rounding — matches AMX tile semantics
        br, bm, bk, bn = 3, 8, 16, 8
        p = Precision.of(DType.BF16)
        A = bf16_round(rand(br, bm, bk, seed=50))
        B = bf16_round(rand(br, bk, bn, seed=51))
        C = np.zeros((bm, bn), dtype=np.float32)
        t = BRGemmTPP(bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn,
                      beta=0.0, precision=p)
        t(Ptr.of(A), Ptr.of(B), C, brcount=br)
        ref_fp32 = np.einsum("imk,ikn->mn", A.astype(np.float64),
                             B.astype(np.float64))
        expected = bf16_round(ref_fp32.astype(np.float32))
        assert np.array_equal(C, expected)

    def test_bf16_output_representable(self):
        from repro.tpp.dtypes import is_bf16_representable
        p = Precision.of(DType.BF16)
        A = bf16_round(rand(1, 4, 8, seed=52))
        B = bf16_round(rand(1, 8, 4, seed=53))
        C = np.zeros((4, 4), dtype=np.float32)
        BRGemmTPP(4, 4, 8, stride_a=32, stride_b=32, beta=0.0, precision=p)(
            Ptr.of(A), Ptr.of(B), C, brcount=1)
        assert is_bf16_representable(C)


class TestConstructorValidation:
    def test_bad_variant(self):
        with pytest.raises(ValueError):
            BRGemmTPP(4, 4, 4, variant="banana")

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            BRGemmTPP(0, 4, 4)
        with pytest.raises(ValueError):
            GemmTPP(4, -2, 4)

    def test_bad_vnni(self):
        with pytest.raises(ValueError):
            BRGemmTPP(4, 4, 4, b_vnni=3)
