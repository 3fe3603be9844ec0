"""Tests for elementwise unary/binary TPPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tpp import (AddTPP, BiasAddTPP, BroadcastColTPP, BroadcastRowTPP,
                       CopyTPP, DivTPP, DType, ExpTPP, GeluBwdTPP, GeluTPP,
                       MaxTPP, MinTPP, MulAddTPP, MulTPP, NegTPP, Precision,
                       RcpTPP, ReluBwdTPP, ReluTPP, ScaleTPP, SigmoidTPP,
                       SqrtTPP, SquareTPP, SubTPP, TanhTPP, ZeroTPP)


def blk(m=4, n=6, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n)).astype(np.float32)


class TestZeroCopy:
    def test_zero(self):
        x = blk()
        ZeroTPP(4, 6)(x)
        assert np.all(x == 0)

    def test_copy_out_of_place(self):
        x, y = blk(), np.empty((4, 6), dtype=np.float32)
        CopyTPP(4, 6)(x, y)
        assert np.array_equal(x, y)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ZeroTPP(4, 6)(np.zeros((5, 6), dtype=np.float32))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            ZeroTPP(0, 6)
        with pytest.raises(ValueError):
            CopyTPP(4, -1)


class TestActivations:
    def test_relu(self):
        x = blk()
        out = np.empty_like(x)
        ReluTPP(4, 6)(x, out)
        assert np.array_equal(out, np.maximum(x, 0))

    def test_relu_inplace(self):
        x = blk()
        ref = np.maximum(x, 0)
        ReluTPP(4, 6)(x)
        assert np.array_equal(x, ref)

    def test_relu_mask_recorded(self):
        x = blk()
        t = ReluTPP(4, 6, record_mask=True)
        t(x.copy())
        assert np.array_equal(t.last_mask, x > 0)

    def test_relu_bwd(self):
        x, g = blk(seed=1), blk(seed=2)
        out = np.empty_like(g)
        ReluBwdTPP(4, 6)(g, x, out)
        assert np.array_equal(out, g * (x > 0))

    def test_gelu_reference_points(self):
        t = GeluTPP(1, 5)
        x = np.array([[0.0, 1.0, -1.0, 3.0, -3.0]], dtype=np.float32)
        out = np.empty_like(x)
        t(x, out)
        assert out[0, 0] == 0.0
        assert abs(out[0, 1] - 0.8412) < 1e-3  # known tanh-GELU values
        assert abs(out[0, 2] + 0.1588) < 1e-3
        assert abs(out[0, 3] - 2.9964) < 1e-3  # ~identity for large x
        assert abs(out[0, 4]) < 5e-3           # ~zero for large negative x

    def test_gelu_bwd_matches_numeric_gradient(self):
        x = blk(2, 3, seed=3)
        eps = 1e-3
        fwd = GeluTPP(2, 3)
        hi, lo = np.empty_like(x), np.empty_like(x)
        fwd(x + eps, hi)
        fwd(x - eps, lo)
        numeric = (hi - lo) / (2 * eps)
        g = np.ones_like(x)
        out = np.empty_like(x)
        GeluBwdTPP(2, 3)(g, x, out)
        assert np.allclose(out, numeric, atol=1e-2)

    def test_tanh_sigmoid_exp_sqrt(self):
        x = np.abs(blk(seed=4)) + 0.1
        for tpp, ref in ((TanhTPP, np.tanh),
                         (SigmoidTPP, lambda v: 1 / (1 + np.exp(-v))),
                         (ExpTPP, np.exp), (SqrtTPP, np.sqrt)):
            out = np.empty_like(x)
            tpp(4, 6)(x, out)
            assert np.allclose(out, ref(x), atol=1e-6), tpp.__name__

    def test_rcp_square_neg(self):
        x = np.abs(blk(seed=5)) + 0.5
        for tpp, ref in ((RcpTPP, lambda v: 1 / v), (SquareTPP, lambda v: v * v),
                         (NegTPP, lambda v: -v)):
            out = np.empty_like(x)
            tpp(4, 6)(x, out)
            assert np.allclose(out, ref(x), atol=1e-6)

    @given(arrays(np.float32, (3, 4),
                  elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, x):
        t = ReluTPP(3, 4)
        once = np.empty_like(x)
        t(x, once)
        twice = np.empty_like(x)
        t(once.copy(), twice)
        assert np.array_equal(once, twice)


class TestBroadcast:
    def test_bcast_row(self):
        row = np.arange(6, dtype=np.float32)
        out = np.empty((4, 6), dtype=np.float32)
        BroadcastRowTPP(4, 6)(row, out)
        assert np.array_equal(out, np.tile(row, (4, 1)))

    def test_bcast_col(self):
        col = np.arange(4, dtype=np.float32)
        out = np.empty((4, 6), dtype=np.float32)
        BroadcastColTPP(4, 6)(col, out)
        assert np.array_equal(out, np.tile(col.reshape(4, 1), (1, 6)))

    def test_wrong_vector_length_raises(self):
        with pytest.raises(ValueError):
            BroadcastRowTPP(4, 6)(np.zeros(5), np.zeros((4, 6)))


class TestBinary:
    CASES = [(AddTPP, np.add), (SubTPP, np.subtract), (MulTPP, np.multiply),
             (MaxTPP, np.maximum), (MinTPP, np.minimum)]

    @pytest.mark.parametrize("tpp_cls,ref", CASES)
    def test_matches_numpy(self, tpp_cls, ref):
        a, b = blk(seed=6), blk(seed=7)
        out = np.empty_like(a)
        tpp_cls(4, 6)(a, b, out)
        assert np.allclose(out, ref(a, b))

    def test_div(self):
        a, b = blk(seed=8), np.abs(blk(seed=9)) + 1.0
        out = np.empty_like(a)
        DivTPP(4, 6)(a, b, out)
        assert np.allclose(out, a / b)

    def test_inplace_default(self):
        a, b = blk(seed=10), blk(seed=11)
        ref = a + b
        AddTPP(4, 6)(a, b)
        assert np.allclose(a, ref)

    def test_bias_add(self):
        a = blk(seed=12)
        bias = np.arange(6, dtype=np.float32)
        out = np.empty_like(a)
        BiasAddTPP(4, 6)(a, bias, out)
        assert np.allclose(out, a + bias)

    def test_bias_wrong_length(self):
        with pytest.raises(ValueError):
            BiasAddTPP(4, 6)(blk(), np.zeros(4, dtype=np.float32))

    def test_scale_scalar(self):
        a = blk(seed=13)
        out = np.empty_like(a)
        ScaleTPP(4, 6)(a, 2.5, out)
        assert np.allclose(out, a * 2.5)

    def test_scale_row_vector(self):
        a = blk(seed=14)
        f = np.arange(1, 7, dtype=np.float32)
        out = np.empty_like(a)
        ScaleTPP(4, 6)(a, f, out)
        assert np.allclose(out, a * f)

    def test_scale_col_vector(self):
        a = blk(seed=15)
        f = np.arange(1, 5, dtype=np.float32)
        out = np.empty_like(a)
        ScaleTPP(4, 6)(a, f, out)
        assert np.allclose(out, a * f.reshape(4, 1))

    def test_scale_bad_vector(self):
        with pytest.raises(ValueError):
            ScaleTPP(4, 6)(blk(), np.zeros(5, dtype=np.float32))

    def test_muladd_accumulates(self):
        a, b = blk(seed=16), blk(seed=17)
        c = blk(seed=18)
        ref = c + a * b
        MulAddTPP(4, 6)(a, b, c)
        assert np.allclose(c, ref)

    def test_bf16_precision_path(self):
        p = Precision.of(DType.BF16)
        a, b = blk(seed=19), blk(seed=20)
        out = np.empty_like(a)
        AddTPP(4, 6, p)(a, b, out)
        from repro.tpp.dtypes import is_bf16_representable
        assert is_bf16_representable(out)
        assert np.allclose(out, a + b, atol=0.05)
