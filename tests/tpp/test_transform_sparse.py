"""Tests for layout transforms and the Block-SpMM BCSC path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpp import (BCSCMatrix, BlockSpMMTPP, DType, Precision,
                       TransposeTPP, bf16_round, block_2d, mmla_pack_a,
                       mmla_pack_b, mmla_unpack_a, mmla_unpack_b, unblock_2d,
                       vnni_pack, vnni_unpack)


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestTransforms:
    def test_transpose(self):
        x = rand(4, 6, seed=1)
        out = np.empty((6, 4), dtype=np.float32)
        TransposeTPP(4, 6)(x, out)
        assert np.array_equal(out, x.T)

    def test_transpose_shape_checked(self):
        with pytest.raises(ValueError):
            TransposeTPP(4, 6)(rand(4, 6), np.empty((4, 6), np.float32))

    @pytest.mark.parametrize("v", [2, 4])
    def test_vnni_roundtrip(self, v):
        x = rand(8, 6, seed=2)
        assert np.array_equal(vnni_unpack(vnni_pack(x, v)), x)

    def test_vnni_layout_semantics(self):
        # VNNI pairs consecutive K rows: packed[kb, n, i] == flat[kb*v+i, n]
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        p = vnni_pack(x, 2)
        assert p.shape == (2, 3, 2)
        assert p[0, 0, 0] == x[0, 0] and p[0, 0, 1] == x[1, 0]
        assert p[1, 2, 1] == x[3, 2]

    def test_vnni_requires_divisible(self):
        with pytest.raises(ValueError):
            vnni_pack(rand(5, 4), 2)

    def test_mmla_a_roundtrip(self):
        x = rand(8, 12, seed=3)
        assert np.array_equal(mmla_unpack_a(mmla_pack_a(x)), x)

    def test_mmla_b_roundtrip(self):
        x = rand(12, 8, seed=4)
        assert np.array_equal(mmla_unpack_b(mmla_pack_b(x)), x)

    def test_mmla_tile_semantics(self):
        # A tile (0,0) holds rows 0..1, cols 0..3
        x = np.arange(32, dtype=np.float32).reshape(4, 8)
        p = mmla_pack_a(x)
        assert np.array_equal(p[0, 0], x[:2, :4])

    def test_mmla_gemm_via_tiles(self):
        # contracting packed tiles reproduces the flat GEMM — the property
        # the SVE-MMLA BRGEMM relies on (§III-A2)
        a, b = rand(4, 8, seed=5), rand(8, 6, seed=6)
        ap, bp = mmla_pack_a(a), mmla_pack_b(b)
        mb, kb = ap.shape[0], ap.shape[1]
        nb = bp.shape[1]
        c = np.zeros((4, 6), dtype=np.float32)
        for i in range(mb):
            for j in range(nb):
                acc = np.zeros((2, 2), dtype=np.float32)
                for k in range(kb):
                    acc += ap[i, k] @ bp[k, j].T  # BFMMLA: 2x4 @ (2x4)^T
                c[2 * i:2 * i + 2, 2 * j:2 * j + 2] = acc
        assert np.allclose(c, a @ b, atol=1e-4)

    def test_block_2d_roundtrip(self):
        x = rand(12, 8, seed=7)
        xb = block_2d(x, 4, 2)
        assert xb.shape == (4, 3, 4, 2)
        assert np.array_equal(unblock_2d(xb), x)

    def test_block_2d_contents(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4)
        xb = block_2d(x, 2, 2)
        assert np.array_equal(xb[1, 0], x[0:2, 2:4])

    def test_block_divisibility(self):
        with pytest.raises(ValueError):
            block_2d(rand(5, 4), 2, 2)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_property_block_roundtrip(self, mb, nb, bm, bn):
        x = rand(mb * bm, nb * bn, seed=mb * 10 + nb)
        assert np.array_equal(unblock_2d(block_2d(x, bm, bn)), x)


def make_sparse(m, k, bm, bk, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    nbr, nbc = m // bm, k // bk
    mask = rng.random((nbr, nbc)) >= sparsity
    a_blocked = a.reshape(nbr, bm, nbc, bk)
    a_blocked *= mask[:, None, :, None]
    return a_blocked.reshape(m, k)


class TestBCSC:
    def test_dense_roundtrip(self):
        a = make_sparse(32, 24, 4, 8, 0.6, seed=1)
        m = BCSCMatrix.from_dense(a, 4, 8)
        assert np.array_equal(m.to_dense(), a)

    def test_sparsity_reported(self):
        a = make_sparse(32, 32, 8, 8, 0.75, seed=2)
        m = BCSCMatrix.from_dense(a, 8, 8)
        nz = sum(1 for i in range(4) for j in range(4)
                 if np.any(a[8 * i:8 * i + 8, 8 * j:8 * j + 8]))
        assert m.nnz_blocks == nz
        assert abs(m.sparsity - (1 - nz / 16)) < 1e-9

    def test_empty_matrix(self):
        a = np.zeros((16, 16), dtype=np.float32)
        m = BCSCMatrix.from_dense(a, 4, 4)
        assert m.nnz_blocks == 0
        assert np.array_equal(m.to_dense(), a)

    def test_full_matrix(self):
        a = np.abs(rand(16, 16, seed=3)) + 1
        m = BCSCMatrix.from_dense(a, 4, 4)
        assert m.density == 1.0

    def test_row_blocks_traversal(self):
        a = make_sparse(16, 16, 4, 4, 0.5, seed=4)
        m = BCSCMatrix.from_dense(a, 4, 4)
        for br in range(m.n_block_rows):
            for kc, blk in m.row_blocks(br):
                ref = a[4 * br:4 * br + 4, 4 * kc:4 * kc + 4]
                assert np.array_equal(blk, ref)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            BCSCMatrix.from_dense(rand(10, 16), 4, 4)

    def test_nbytes_scales_with_sparsity(self):
        dense = BCSCMatrix.from_dense(np.ones((64, 64), np.float32), 8, 8)
        sparse = BCSCMatrix.from_dense(
            make_sparse(64, 64, 8, 8, 0.9, seed=5), 8, 8)
        assert sparse.nbytes() < dense.nbytes()

    def test_bf16_values_constrained(self):
        from repro.tpp.dtypes import is_bf16_representable
        a = make_sparse(16, 16, 4, 4, 0.3, seed=6)
        m = BCSCMatrix.from_dense(a, 4, 4, dtype=DType.BF16)
        assert is_bf16_representable(m.values)


class TestBlockSpMM:
    @pytest.mark.parametrize("blocksize", [4, 8, 16])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
    def test_matches_dense_gemm(self, blocksize, sparsity):
        m, k, n = 32, 32, 16
        a = make_sparse(m, k, blocksize, blocksize, sparsity, seed=7)
        bcsc = BCSCMatrix.from_dense(a, blocksize, blocksize)
        b = rand(k, n, seed=8)
        bn = 8
        tpp = BlockSpMMTPP(blocksize, bn, blocksize)
        c = np.zeros((m, n), dtype=np.float32)
        for br in range(m // blocksize):
            for ns in range(0, n, bn):
                tpp(bcsc, b, c[br * blocksize:(br + 1) * blocksize,
                               ns:ns + bn], block_row=br, n_start=ns)
        assert np.allclose(c, a @ b, atol=1e-4)

    def test_vnni_packed_b(self):
        m, k, n = 16, 16, 8
        a = make_sparse(m, k, 4, 4, 0.4, seed=9)
        bcsc = BCSCMatrix.from_dense(a, 4, 4)
        b = rand(k, n, seed=10)
        bp = BlockSpMMTPP.pack_b(b, 2)
        tpp = BlockSpMMTPP(4, n, 4, b_vnni=2)
        c = np.zeros((m, n), dtype=np.float32)
        for br in range(4):
            tpp(bcsc, bp, c[4 * br:4 * br + 4], block_row=br)
        assert np.allclose(c, a @ b, atol=1e-4)

    def test_beta_accumulate(self):
        a = make_sparse(8, 8, 4, 4, 0.0, seed=11)
        bcsc = BCSCMatrix.from_dense(a, 4, 4)
        b = rand(8, 4, seed=12)
        c0 = rand(4, 4, seed=13)
        c = c0.copy()
        BlockSpMMTPP(4, 4, 4, beta=1.0)(bcsc, b, c, block_row=0)
        assert np.allclose(c, c0 + (a @ b)[:4, :4], atol=1e-4)

    def test_block_mismatch_raises(self):
        bcsc = BCSCMatrix.from_dense(np.ones((8, 8), np.float32), 4, 4)
        with pytest.raises(ValueError):
            BlockSpMMTPP(8, 4, 8)(bcsc, rand(8, 4), np.zeros((8, 4),
                                                             np.float32), 0)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            BlockSpMMTPP(4, 4, 4)(rand(8, 8), rand(8, 4),
                                  np.zeros((4, 4), np.float32), 0)

    def test_bf16_path(self):
        a = bf16_round(make_sparse(16, 16, 8, 8, 0.5, seed=14))
        bcsc = BCSCMatrix.from_dense(a, 8, 8, dtype=DType.BF16)
        b = bf16_round(rand(16, 8, seed=15))
        p = Precision.of(DType.BF16)
        tpp = BlockSpMMTPP(8, 8, 8, precision=p)
        c = np.zeros((16, 8), dtype=np.float32)
        for br in range(2):
            tpp(bcsc, b, c[8 * br:8 * br + 8], block_row=br)
        assert np.allclose(c, a @ b, atol=0.1)
