"""Block-sparse BERT inference (§IV-B, Fig 10).

The dense encoder's tensor contractions are replaced by Block-SpMM
kernels over an 80 %, 8x8 block-sparse model.  The roofline of Fig 10
assumes a maximal 5x speedup on the contractions (from the 80 % sparsity)
and no speedup elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.stacks import STACKS
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from .bert import BertConfig
from .opsim import OpCostModel

__all__ = ["SparseBertResult", "sparse_bert_inference",
           "sparse_bert_roofline", "PAPER_SPARSE_F1"]

#: accuracy results the paper reports for the 80% 8x8 block-sparse model
PAPER_SPARSE_F1 = {"dense": 88.23, "sparse": 87.1}


@dataclass(frozen=True)
class SparseBertResult:
    dense_s: float
    sparse_s: float
    roofline_s: float

    @property
    def speedup(self) -> float:
        return self.dense_s / self.sparse_s

    @property
    def roofline_fraction(self) -> float:
        """How much of the ideal-roofline speedup was realised."""
        return (self.dense_s / self.roofline_s) and \
            (self.roofline_s / self.sparse_s)


def _encoder_times(config: BertConfig, machine: MachineModel, batch: int,
                   seq: int, dtype: DType, sparsity: float, block: int,
                   num_threads: int | None):
    cost = OpCostModel(machine, STACKS["parlooper"],
                       num_threads=num_threads)
    tokens = batch * seq
    h, i, L = config.hidden, config.intermediate, config.layers

    def contractions(sparse: bool):
        def g(M, N, K):
            if sparse:
                return cost.spmm_seconds(M, N, K, dtype, sparsity, block)
            return cost.gemm_seconds(M, N, K, dtype)
        t = L * (3 * g(h, tokens, h) + g(h, tokens, h)
                 + g(i, tokens, h) + g(h, tokens, i))
        return t

    attn = config.layers * cost.batched_gemm_seconds(
        seq, seq, config.head_dim, dtype, count=2 * batch * config.heads)
    elt = L * (cost.eltwise_seconds(tokens * h, dtype, 2.0, 4)
               + cost.eltwise_seconds(tokens * i, dtype, 4.0, 2)
               + cost.eltwise_seconds(batch * config.heads * seq * seq,
                                      dtype, 6.0, 3))
    rest = attn + elt
    return contractions(False), contractions(True), rest


def sparse_bert_inference(config: BertConfig, machine: MachineModel,
                          batch: int = 1, seq: int = 384,
                          dtype: DType = DType.BF16,
                          sparsity: float = 0.8, block: int = 8,
                          num_threads: int | None = 8) -> SparseBertResult:
    """Dense vs block-sparse latency plus the Fig 10 roofline.

    The paper pins 8 cores per instance for the BS=1 latency experiment.
    """
    dense_c, sparse_c, rest = _encoder_times(
        config, machine, batch, seq, dtype, sparsity, block, num_threads)
    dense = dense_c + rest
    sparse = sparse_c + rest
    roofline = dense_c / 5.0 + rest   # "maximal speedup of 5x on the
    # contractions ... the rest components do not anticipate speedup"
    return SparseBertResult(dense, sparse, roofline)


def sparse_bert_roofline(result: SparseBertResult) -> float:
    """Fraction of the roofline the sparse run achieves (paper: 71-88%)."""
    return result.roofline_s / result.sparse_s
