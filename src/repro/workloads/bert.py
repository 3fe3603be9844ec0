"""BERT via PARLOOPER/TPP (§IV-A, Listing 6).

Four fused layers are implemented exactly as the paper describes its
PyTorch C++ extensions, but functionally in TPPs:

* **BertEmbeddings** — embedding lookups + layernorm + dropout;
* **BertSelfAttention** — QKV contractions fused with scale, add
  (mask), dropout and softmax TPP blocks;
* **BertSelfOutput / BertOutput** — BRGEMM fused with bias, dropout,
  residual-add and layernorm-equation TPPs on 2D-block granularity;
* **BertIntermediate** — BRGEMM + bias + GELU.

The performance side composes per-layer operator times with
:class:`~repro.workloads.opsim.OpCostModel`, including the Unpad
Optimization and stack-specific fusion behaviour (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.stacks import STACKS
from ..platform.machine import MachineModel
from ..tpp.dropout import DropoutTPP
from ..tpp.dtypes import DType
from ..tpp.layernorm import LayerNormTPP
from ..tpp.softmax import SoftmaxTPP
from ..tpp.unary import GeluTPP
from .opsim import OpCostModel

__all__ = ["BertConfig", "BERT_BASE", "BERT_LARGE", "BertLayer",
           "BertEmbeddings", "bert_training_performance",
           "bert_inference_performance"]


@dataclass(frozen=True)
class BertConfig:
    """Transformer-encoder hyperparameters (Devlin et al.)."""

    name: str
    layers: int
    hidden: int
    heads: int
    intermediate: int
    vocab: int = 30522
    max_seq: int = 512

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def encoder_gemm_flops(self, tokens: int) -> float:
        """Dense contraction flops of one encoder pass over *tokens*."""
        h, i = self.hidden, self.intermediate
        per_layer = 2.0 * tokens * h * (3 * h + h + 2 * i)
        return self.layers * per_layer


BERT_BASE = BertConfig("BERT-Base", 12, 768, 12, 3072)
BERT_LARGE = BertConfig("BERT-Large", 24, 1024, 16, 4096)


def _linear(x, w, b):
    y = x @ w.T
    if b is not None:
        y += b
    return y


class BertEmbeddings:
    """Embedding lookups + layernorm + dropout (§IV-A)."""

    def __init__(self, config: BertConfig, seed: int = 0, p_drop=0.1):
        rng = np.random.default_rng(seed)
        h = config.hidden
        self.word = rng.standard_normal((config.vocab, h)).astype(
            np.float32) * 0.02
        self.position = rng.standard_normal((config.max_seq, h)).astype(
            np.float32) * 0.02
        self.gamma = np.ones(h, dtype=np.float32)
        self.beta = np.zeros(h, dtype=np.float32)
        self.p_drop = p_drop

    def __call__(self, token_ids: np.ndarray, training: bool = False
                 ) -> np.ndarray:
        b, s = token_ids.shape
        x = self.word[token_ids] + self.position[:s][None, :, :]
        flat = x.reshape(b * s, -1)
        ln = LayerNormTPP(flat.shape[0], flat.shape[1])
        ln(flat, self.gamma, self.beta)
        if training and self.p_drop > 0:
            DropoutTPP(flat.shape[0], flat.shape[1], self.p_drop,
                       seed=1)(flat, training=True)
        return flat.reshape(b, s, -1)


class BertLayer:
    """One encoder layer: fused self-attention + output + intermediate."""

    def __init__(self, config: BertConfig, seed: int = 0, p_drop: float = 0.0):
        rng = np.random.default_rng(seed)
        h, i = config.hidden, config.intermediate
        sd = 0.02
        self.config = config
        self.p_drop = p_drop
        self.wq = (rng.standard_normal((h, h)) * sd).astype(np.float32)
        self.wk = (rng.standard_normal((h, h)) * sd).astype(np.float32)
        self.wv = (rng.standard_normal((h, h)) * sd).astype(np.float32)
        self.wo = (rng.standard_normal((h, h)) * sd).astype(np.float32)
        self.w1 = (rng.standard_normal((i, h)) * sd).astype(np.float32)
        self.w2 = (rng.standard_normal((h, i)) * sd).astype(np.float32)
        self.bq, self.bk, self.bv, self.bo = (np.zeros(h, np.float32)
                                              for _ in range(4))
        self.b1 = np.zeros(i, np.float32)
        self.b2 = np.zeros(h, np.float32)
        self.ln1_g = np.ones(h, np.float32)
        self.ln1_b = np.zeros(h, np.float32)
        self.ln2_g = np.ones(h, np.float32)
        self.ln2_b = np.zeros(h, np.float32)

    # -- fused sub-layers --------------------------------------------------
    def self_attention(self, x: np.ndarray, mask: np.ndarray | None = None
                       ) -> np.ndarray:
        """Scaled-dot-product attention with softmax TPP per head."""
        cfg = self.config
        b, s, h = x.shape
        nh, dh = cfg.heads, cfg.head_dim
        q = _linear(x.reshape(-1, h), self.wq, self.bq)
        k = _linear(x.reshape(-1, h), self.wk, self.bk)
        v = _linear(x.reshape(-1, h), self.wv, self.bv)

        def heads(t):
            return t.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)

        q, k, v = heads(q), heads(k), heads(v)
        scores = np.einsum("bhqd,bhkd->bhqk", q, k) / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask[:, None, None, :] * -1e9
        softmax = SoftmaxTPP(s, s)
        for bi in range(b):
            for hi in range(nh):
                blk = np.ascontiguousarray(scores[bi, hi])
                softmax(blk)
                scores[bi, hi] = blk
        ctx = np.einsum("bhqk,bhkd->bhqd", scores, v)
        return ctx.transpose(0, 2, 1, 3).reshape(b, s, h)

    def self_output(self, attn: np.ndarray, residual: np.ndarray,
                    training: bool = False) -> np.ndarray:
        """Listing 6: BRGEMM + bias + dropout + residual + layernorm."""
        b, s, h = attn.shape
        y = _linear(attn.reshape(-1, h), self.wo, self.bo)
        if training and self.p_drop > 0:
            DropoutTPP(y.shape[0], y.shape[1], self.p_drop, seed=2)(
                y, training=True)
        y += residual.reshape(-1, h)
        LayerNormTPP(y.shape[0], h)(y, self.ln1_g, self.ln1_b)
        return y.reshape(b, s, h)

    def intermediate(self, x: np.ndarray) -> np.ndarray:
        """BRGEMM + bias + GELU (§IV-A)."""
        b, s, h = x.shape
        y = _linear(x.reshape(-1, h), self.w1, self.b1)
        GeluTPP(y.shape[0], y.shape[1])(y)
        return y.reshape(b, s, -1)

    def output(self, inter: np.ndarray, residual: np.ndarray,
               training: bool = False) -> np.ndarray:
        b, s, i = inter.shape
        h = self.config.hidden
        y = _linear(inter.reshape(-1, i), self.w2, self.b2)
        if training and self.p_drop > 0:
            DropoutTPP(y.shape[0], y.shape[1], self.p_drop, seed=3)(
                y, training=True)
        y += residual.reshape(-1, h)
        LayerNormTPP(y.shape[0], h)(y, self.ln2_g, self.ln2_b)
        return y.reshape(b, s, h)

    def __call__(self, x: np.ndarray, mask: np.ndarray | None = None,
                 training: bool = False) -> np.ndarray:
        attn = self.self_attention(x, mask)
        y = self.self_output(attn, x, training)
        inter = self.intermediate(y)
        return self.output(inter, y, training)


# -- performance composition ---------------------------------------------

def _encoder_step_seconds(config: BertConfig, batch: int, seq: int,
                          cost: OpCostModel, dtype: DType,
                          valid_fraction: float,
                          backward: bool) -> float:
    """One fwd (+bwd) encoder pass."""
    frac = cost.seq_fraction(valid_fraction)
    tokens = max(1, int(round(batch * seq * frac)))
    h, i = config.hidden, config.intermediate
    L = config.layers

    # contraction ops per layer: QKV (3), attn out (1), MLP (2)
    t = 0.0
    t += L * 3 * cost.gemm_seconds(h, tokens, h, dtype)
    t += L * cost.gemm_seconds(h, tokens, h, dtype)
    t += L * cost.gemm_seconds(i, tokens, h, dtype)
    t += L * cost.gemm_seconds(h, tokens, i, dtype)
    # attention score/context contractions (per head, seq x seq),
    # batched into one blocked loop per layer in the fused stacks
    seq_eff = max(1, int(round(seq * frac)))
    t += L * cost.batched_gemm_seconds(seq_eff, seq_eff, config.head_dim,
                                       dtype, count=2 * batch * config.heads)
    # elementwise chains: bias+dropout+residual+layernorm (4 ops on h),
    # bias+gelu (2 ops on i), scale+mask+dropout+softmax on scores
    t += L * cost.eltwise_seconds(tokens * h, dtype, 2.0, n_ops=4)
    t += L * cost.eltwise_seconds(tokens * i, dtype, 4.0, n_ops=2)
    t += L * cost.eltwise_seconds(batch * config.heads * seq_eff * seq_eff,
                                  dtype, 6.0, n_ops=3)
    if backward:
        # dgrad + wgrad: ~2x the forward contraction work + optimizer
        t *= 3.0
        t += cost.bandwidth_seconds(
            L * (4 * h * h + 2 * h * i) * dtype.nbytes * 3)
    return t


def bert_training_performance(config: BertConfig, machine: MachineModel,
                              stack_name: str = "parlooper",
                              batch: int = 32, seq: int = 384,
                              dtype: DType = DType.BF16,
                              valid_fraction: float = 0.45) -> float:
    """SQuAD fine-tuning throughput in sequences/second (Fig 9)."""
    stack = STACKS[stack_name]
    cost = OpCostModel(machine, stack)
    step = _encoder_step_seconds(config, batch, seq, cost, dtype,
                                 valid_fraction, backward=True)
    # embeddings + heads are bandwidth-level costs
    step += cost.bandwidth_seconds(batch * seq * config.hidden
                                   * dtype.nbytes * 4)
    return batch / step


def bert_inference_performance(config: BertConfig, machine: MachineModel,
                               stack_name: str = "parlooper",
                               batch: int = 1, seq: int = 384,
                               dtype: DType = DType.BF16,
                               valid_fraction: float = 1.0,
                               num_threads: int | None = None) -> float:
    """Inference latency in seconds per batch (Fig 10 dense side)."""
    stack = STACKS[stack_name]
    cost = OpCostModel(machine, stack, num_threads=num_threads)
    return _encoder_step_seconds(config, batch, seq, cost, dtype,
                                 valid_fraction, backward=False)
