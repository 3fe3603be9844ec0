"""The 2D-block contract every ``BlockTPP`` shares, and the activation
formulas the scalar and the stacked TPPs share."""

import numpy as np
import pytest

from repro.tpp import DType, GeluTPP, Precision, ReluTPP, bf16_round
from repro.tpp.base import BlockTPP
from repro.tpp.batched import batched_unary


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


BLOCK_TPPS = sorted(set(_subclasses(BlockTPP)), key=lambda c: c.__name__)


def test_every_2d_block_tpp_is_covered():
    names = {c.__name__ for c in BLOCK_TPPS}
    assert {"UnaryTPP", "BinaryTPP", "SoftmaxTPP", "SoftmaxBwdTPP",
            "LayerNormTPP", "LayerNormBwdTPP", "BatchNormStatsTPP",
            "BatchNormApplyTPP", "ReduceTPP", "DropoutTPP", "DropoutBwdTPP",
            "TransposeTPP"} <= names


@pytest.mark.parametrize("cls", BLOCK_TPPS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("dims", [(0, 4), (4, 0), (-1, 4)])
def test_non_positive_dims_raise(cls, dims):
    with pytest.raises(ValueError, match="TPP block dims must be positive"):
        cls(*dims)


@pytest.mark.parametrize("dtype", [DType.F32, DType.BF16])
@pytest.mark.parametrize("op,cls", [("relu", ReluTPP), ("gelu", GeluTPP)])
def test_batched_activation_matches_the_tpp_block_by_block(op, cls, dtype):
    rng = np.random.default_rng(7)
    stack = (rng.standard_normal((6, 8, 12)) * 3).astype(np.float32)
    if dtype is DType.BF16:
        stack = bf16_round(stack)
    assert not np.array_equal(stack, np.round(stack))   # not integer-valued
    prec = Precision.of(dtype)
    tpp = cls(8, 12, prec)
    want = np.stack([tpp(blk.copy()) for blk in stack])
    got = batched_unary(stack, op, prec)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
