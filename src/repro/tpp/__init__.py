"""Tensor Processing Primitives (TPP): a compact, versatile set of 2D-tensor
operators (Georganas et al. SC'21), reproduced functionally in NumPy with a
platform-specific backend-configuration layer.

A TPP holds its shape, its precision and its arithmetic.  The 2D-block
operators share :class:`~repro.tpp.base.BlockTPP`, which validates the
``(m, n)`` block once; BRGEMM, GEMM and Block-SpMM take three block dims.
What a call costs is not a TPP's business: the event builders of
:mod:`repro.simulator.cost` price it."""

from .base import TPP
from .binary import (AddTPP, BiasAddColTPP, BiasAddTPP, BinaryTPP, DivTPP,
                     MaxTPP, MinTPP, MulAddTPP, MulTPP, ScaleTPP, SubTPP)
from .dropout import DropoutBwdTPP, DropoutTPP
from .dtypes import (DType, Precision, bf16_round, from_compute,
                     is_bf16_representable, to_compute, tolerance_for)
from .gemm import BRGemmTPP, GemmTPP
from .layernorm import (BatchNormApplyTPP, BatchNormStatsTPP, LayerNormBwdTPP,
                        LayerNormTPP)
from .memory import Ptr
from .reduce import ReduceAxis, ReduceKind, ReduceTPP
from .softmax import SoftmaxBwdTPP, SoftmaxTPP, softmax_equation
from .sparse import BCSCMatrix, BlockSpMMTPP
from .transform import (TransposeTPP, block_2d, mmla_pack_a, mmla_pack_b,
                        mmla_unpack_a, mmla_unpack_b, unblock_2d, vnni_pack,
                        vnni_unpack)
from .unary import (BroadcastColTPP, BroadcastRowTPP, CopyTPP, ExpTPP,
                    GeluBwdTPP, GeluTPP, IdentityTPP, NegTPP, RcpTPP,
                    ReluBwdTPP, ReluTPP, SigmoidTPP, SqrtTPP, SquareTPP,
                    TanhTPP, UnaryTPP, ZeroTPP)

__all__ = [
    "TPP",
    "DType", "Precision", "bf16_round", "from_compute", "to_compute",
    "is_bf16_representable", "tolerance_for",
    "Ptr",
    "GemmTPP", "BRGemmTPP",
    "BCSCMatrix", "BlockSpMMTPP",
    "UnaryTPP", "ZeroTPP", "CopyTPP", "IdentityTPP", "ReluTPP", "ReluBwdTPP",
    "GeluTPP", "GeluBwdTPP", "TanhTPP", "SigmoidTPP", "ExpTPP", "SqrtTPP",
    "RcpTPP", "SquareTPP", "NegTPP", "BroadcastRowTPP", "BroadcastColTPP",
    "BinaryTPP", "AddTPP", "SubTPP", "MulTPP", "DivTPP", "MaxTPP", "MinTPP",
    "BiasAddTPP", "BiasAddColTPP", "ScaleTPP", "MulAddTPP",
    "ReduceTPP", "ReduceKind", "ReduceAxis",
    "SoftmaxTPP", "SoftmaxBwdTPP", "softmax_equation",
    "LayerNormTPP", "LayerNormBwdTPP", "BatchNormStatsTPP", "BatchNormApplyTPP",
    "DropoutTPP", "DropoutBwdTPP",
    "TransposeTPP", "vnni_pack", "vnni_unpack", "mmla_pack_a", "mmla_unpack_a",
    "mmla_pack_b", "mmla_unpack_b", "block_2d", "unblock_2d",
]
