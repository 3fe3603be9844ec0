"""Pricing one serving step of a mixed (prefill + decode) batch.

:class:`ServeCostModel` extends :class:`~repro.workloads.opsim.
OpCostModel` with the ragged shapes a continuous-batching step executes:
every in-flight sequence multiplies the same weight panels by its own
token count (prefill chunks bring many tokens, decode sequences bring
one), so fused stacks run one concatenated GEMM per op and stream the
weights *once per step* — the economics that make batched decode
throughput scale until compute binds.  Attention is per-sequence: score/
value contractions for prefill chunks, KV-cache streaming for decode.

All prices come from the same engine/roofline machinery as the BS=1
Fig 11 model, so serving numbers are directly comparable with the
single-request latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.stacks import STACKS
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from ..workloads.llm import LlmConfig
from ..workloads.opsim import GIGA, OpCostModel

__all__ = ["ServeCostModel"]


@dataclass
class ServeCostModel(OpCostModel):
    """Prices serving steps of one LLM on one machine under one stack."""

    config: LlmConfig = None
    dtype: DType = DType.BF16

    #: bound on memoized step signatures (FIFO eviction); a steady-state
    #: serving run cycles through far fewer distinct batch shapes
    STEP_CACHE_MAX = 4096

    def __post_init__(self):
        super().__post_init__()
        if self.config is None:
            raise ValueError("ServeCostModel needs an LlmConfig")
        # batch-signature -> (head, eltwise, lm-head) partial sums; see
        # step_seconds
        self._step_cache: dict = {}
        # the decode KV stream's two fixed factors, so a step prices it
        # as bandwidth_seconds(cfg.kv_bytes(n, dt)) does: the same int
        # product over the same float divisor
        self._kv_token_bytes = self.config.kv_bytes_per_token(self.dtype)
        self._dram_bytes_per_s = self.machine.dram_bw_gbytes * GIGA

    @staticmethod
    def _round(dim: int) -> int:
        """Coarser pricing buckets than the base model: powers of two
        above 64.  A serving run sees hundreds of distinct ragged token
        counts; geometric bucketing bounds the number of engine-priced
        shapes (prices rescale linearly within a bucket, as in the base
        model) so simulation cost stays flat as traffic grows."""
        if dim <= 64:
            return OpCostModel._round(dim)
        b = 64
        while b < dim:
            b *= 2
        return b

    #: engine-priced reference token count for prefill-shaped GEMMs —
    #: the Fig 11 prompt length, so serving reuses the exact anchor the
    #: BS=1 experiment prices
    PREFILL_ANCHOR_N = 1024

    def _price_gemm(self, M: int, N: int, K: int, dtype) -> float:
        """Bounded-cost pricing for serving's open-ended shape stream.

        Decode-regime shapes (N ≤ 64) are GEMV-like and roofline-priced;
        prefill-regime shapes anchor on one engine-priced ``N = 1024``
        instance per weight panel and scale linearly in tokens.  A whole
        serving sweep thus costs a handful of engine runs — the same
        ones Fig 11 performs."""
        if N <= 64:
            return self._roofline_gemm(M, N, K, dtype, self._block(M),
                                       self._block(N), self._block(K))
        akey = ("anchor", M, K, dtype)
        base = self._gemm_cache.get(akey)
        if base is None:
            base = super()._price_gemm(M, self.PREFILL_ANCHOR_N, K, dtype)
            self._gemm_cache[akey] = base
        return base * N / self.PREFILL_ANCHOR_N

    def prime(self) -> None:
        """Engine-price the weight-panel anchors every prefill step uses
        (QKV and attention out, up/gate, down) now, so the steps of a
        run that follows are plain float arithmetic.  Anchors are
        memoized, so priming a warm model costs three lookups."""
        cfg, dt = self.config, self.dtype
        h, i = cfg.hidden, cfg.intermediate
        for m, k in ((h, h), (i, h), (h, i)):
            self.gemm_seconds(m, self.PREFILL_ANCHOR_N, k, dt)

    @classmethod
    def for_stack(cls, config: LlmConfig, machine: MachineModel,
                  stack_name: str = "parlooper",
                  dtype: DType = DType.BF16,
                  tuner=None) -> "ServeCostModel":
        return cls(machine, STACKS[stack_name], config=config, dtype=dtype,
                   tuner=tuner)

    # -- step pricing ---------------------------------------------------
    def step_seconds(self, prefill_chunks=(), decode_contexts=(),
                     n_emit: int = 0) -> float:
        """One model pass over a mixed batch.

        ``prefill_chunks`` — ``(new_tokens, prior_context)`` per chunk
        (prior context > 0 means chunked prefill re-attending cached KV);
        ``decode_contexts`` — cached positions per decoding sequence;
        ``n_emit`` — sequences sampling a token this step (LM head rows).

        Memoized on the batch *shape signature* (prefill chunk shapes,
        decode count, emit count): every term except the decode KV-cache
        stream depends only on the signature, so a steady-state serving
        run re-prices only the KV bandwidth per step.  The partial sums
        are cached, not the result, keeping the accumulation order — and
        hence the float result — identical to the unmemoized pass.
        """
        if not decode_contexts and all(t <= 0 for t, _ in prefill_chunks):
            return 0.0
        sig = (tuple((int(tk), int(ctx)) for (tk, ctx) in prefill_chunks)
               if prefill_chunks else (), len(decode_contexts), int(n_emit))
        cached = self._step_cache.get(sig)
        obs = _obs()
        if obs.enabled:
            obs.inc("serve_price_cache",
                    kind="hit" if cached is not None else "miss")
        if cached is None:
            cfg, dt = self.config, self.dtype
            h, i, L = cfg.hidden, cfg.intermediate, cfg.layers
            n_list = [t for (t, _) in prefill_chunks if t > 0] \
                + [1] * len(decode_contexts)
            head = 0.0
            # linear ops: ragged over the whole batch, weights shared
            head += L * 3 * self.ragged_gemm_seconds(h, n_list, h, dt)  # QKV
            head += L * self.ragged_gemm_seconds(h, n_list, h, dt)  # attn out
            head += L * (cfg.mlp_matrices - 1) \
                * self.ragged_gemm_seconds(i, n_list, h, dt)       # up(/gate)
            head += L * self.ragged_gemm_seconds(h, n_list, i, dt)  # down
            # attention: compute-shaped for prefill chunks ...
            for (tk, ctx) in prefill_chunks:
                if tk <= 0:
                    continue
                head += L * self.batched_gemm_seconds(
                    tk, ctx + tk, cfg.head_dim, dt, count=2 * cfg.heads)
                if ctx:
                    # chunked prefill re-streams the earlier chunks' KV
                    head += self.bandwidth_seconds(cfg.kv_bytes(ctx, dt))
            elt = L * self.eltwise_seconds(sum(n_list) * (2 * h + i), dt,
                                           3.0, n_ops=4)
            lm = (self.gemm_seconds(cfg.vocab, n_emit, h, dt)
                  if n_emit > 0 else 0.0)
            cached = (head, elt, lm)
            if len(self._step_cache) >= self.STEP_CACHE_MAX:
                self._step_cache.pop(next(iter(self._step_cache)))
            self._step_cache[sig] = cached
        head, elt, lm = cached
        t = head
        # ... bandwidth-shaped for decode (GEMV over the KV cache)
        if decode_contexts:
            kv_positions = sum(decode_contexts) + len(decode_contexts)
            t += kv_positions * self._kv_token_bytes / self._dram_bytes_per_s
        t += elt
        if n_emit > 0:
            t += lm                                           # LM head
        return t

    def decode_step_seconds(self, contexts) -> float:
        """Pure-decode step: every sequence contributes one token."""
        contexts = list(contexts)
        return self.step_seconds(decode_contexts=contexts,
                                 n_emit=len(contexts))
