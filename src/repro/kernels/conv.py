"""Direct convolution via PARLOOPER/TPP — the paper's Listing 4 (§III-B).

Seven logical loops traverse the iteration space::

    a = N (minibatch)     b = Cb (input-channel blocks)
    c = Kb (output-channel blocks)   d = P (output rows, step h_step)
    e = Q (output cols, step w_step) f = R, g = S (filter taps)

The body folds ``c_step * r_step * s_step`` contraction steps into one
batch-reduce GEMM of shape (w_step pixels) x (bk out-channels) x (bc
in-channels); R = S = 1 convolutions degenerate to the stride-based
BRGEMM, others use gathered-address blocks (the offset-based variant of
the paper).

Tensor layouts (Listing 4 lines 1-3)::

    I[N][Cb][H][W][bc]    W[Kb][Cb][R][S][bc][bk]    O[N][Kb][P][Q][bk]

The input is expected *pre-padded* (physical padding, the common TPP/
LIBXSMM deployment choice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.loop_spec import LoopSpecs
from ..platform.machine import MachineModel
from ..simulator.cost import brgemm_event
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.unary import ZeroTPP
from .abft import conv_check
from .base import ParlooperKernel
from .batched import conv_batched_ok, conv_trace_builder, run_conv_batched
from .common import as_dtype, divisible

__all__ = ["ConvSpec", "ParlooperConv", "DEFAULT_CONV_SPEC"]

#: untuned default: parallelize (minibatch x out-channel blocks)
DEFAULT_CONV_SPEC = "ACbdefg"


@dataclass(frozen=True)
class ConvSpec:
    """Shape of one convolution layer (paper notation, §III-B)."""

    N: int            # minibatch
    C: int            # input feature maps
    K: int            # output feature maps
    H: int            # padded input height
    W: int            # padded input width
    R: int = 3        # filter height
    S: int = 3        # filter width
    stride: int = 1

    @property
    def P(self) -> int:
        return (self.H - self.R) // self.stride + 1

    @property
    def Q(self) -> int:
        return (self.W - self.S) // self.stride + 1

    @property
    def flops(self) -> int:
        return 2 * self.N * self.K * self.C * self.P * self.Q \
            * self.R * self.S


class ParlooperConv(ParlooperKernel):
    """Forward convolution kernel (Listing 4)."""

    kind = "conv"

    def __init__(self, spec: ConvSpec, bc: int = 64, bk: int = 64,
                 w_step: int | None = None, c_step: int = 1,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_CONV_SPEC,
                 num_threads: int | None = None,
                 block_steps=None,
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(spec.C, bc, "C")
        divisible(spec.K, bk, "K")
        self.spec = spec
        self.bc, self.bk = bc, bk
        self.Cb, self.Kb = spec.C // bc, spec.K // bk
        self.w_step = spec.Q if w_step is None else w_step
        divisible(spec.Q, self.w_step, "Q")
        self.c_step = c_step
        divisible(self.Cb, c_step, "Cb")
        self.dtype = dtype

        prec = Precision.of(dtype)
        self.zero_tpp = ZeroTPP(self.w_step, bk, prec)
        # GEMM view: M = w_step pixels, N = bk out-channels, K = bc
        self.brgemm_tpp = BRGemmTPP(self.w_step, bk, bc, variant="address",
                                    beta=1.0, precision=prec)

        bs = block_steps or [()] * 7
        super().__init__(
            [LoopSpecs(0, spec.N, 1, bs[0]),               # a: minibatch
             LoopSpecs(0, self.Cb, c_step, bs[1]),         # b: C blocks
             LoopSpecs(0, self.Kb, 1, bs[2]),              # c: K blocks
             LoopSpecs(0, spec.P, 1, bs[3]),               # d: out rows
             LoopSpecs(0, spec.Q, self.w_step, bs[4]),     # e: out cols
             LoopSpecs(0, spec.R, spec.R, bs[5]),          # f: filter rows
             LoopSpecs(0, spec.S, spec.S, bs[6])],         # g: filter cols
            spec_string, num_threads, backend, abft)

    # -- layout ------------------------------------------------------------
    def pack_input(self, x: np.ndarray) -> np.ndarray:
        """(N, C, H, W) -> I[N][Cb][H][W][bc]."""
        n, c, h, w = x.shape
        blocked = x.reshape(n, self.Cb, self.bc, h, w) \
            .transpose(0, 1, 3, 4, 2)
        return np.ascontiguousarray(as_dtype(blocked, self.dtype))

    def pack_weights(self, wt: np.ndarray) -> np.ndarray:
        """(K, C, R, S) -> W[Kb][Cb][R][S][bc][bk]."""
        k, c, r, s = wt.shape
        blocked = wt.reshape(self.Kb, self.bk, self.Cb, self.bc, r, s) \
            .transpose(0, 2, 4, 5, 3, 1)
        return np.ascontiguousarray(as_dtype(blocked, self.dtype))

    def alloc_output(self) -> np.ndarray:
        sp = self.spec
        return np.zeros((sp.N, self.Kb, sp.P, sp.Q, self.bk),
                        dtype=self.dtype.np)

    def unpack_output(self, o: np.ndarray) -> np.ndarray:
        """O[N][Kb][P][Q][bk] -> (N, K, P, Q)."""
        return np.ascontiguousarray(o.transpose(0, 1, 4, 2, 3).reshape(
            self.spec.N, self.spec.K, self.spec.P, self.spec.Q))

    # -- functional -------------------------------------------------------
    def __call__(self, I: np.ndarray, Wt: np.ndarray, O: np.ndarray
                 ) -> np.ndarray:
        self._compute(I, Wt, O)
        return O

    def _batched_ok(self) -> tuple:
        return conv_batched_ok(self)

    def _run_batched(self, I, Wt, O):
        run_conv_batched(self, I, Wt, O)

    def _interp_body(self, I, Wt, O):
        sp = self.spec
        st = sp.stride

        def body(ind):
            in_, ic, ik, ih, iw, ir, is_ = ind
            if ic == 0 and ir == 0 and is_ == 0:
                self.zero_tpp(O[in_][ik][ih, iw:iw + self.w_step])
            a_blocks = []
            b_blocks = []
            for c in range(ic, ic + self.c_step):
                for r in range(ir, ir + sp.R):
                    for s in range(is_, is_ + sp.S):
                        row = ih * st + r
                        col0 = iw * st + s
                        a_blocks.append(
                            I[in_, c, row,
                              col0:col0 + self.w_step * st:st, :])
                        b_blocks.append(Wt[ik, c, r, s])
            brcount = len(a_blocks)
            self.brgemm_tpp(a_blocks, b_blocks,
                            O[in_][ik][ih, iw:iw + self.w_step], brcount)
        return body

    def _final_tile(self, I, Wt, O):
        c_final = self.Cb - self.c_step
        ws = self.w_step
        return (lambda ind: O[ind[0]][ind[2]][ind[3], ind[4]:ind[4] + ws]
                if ind[1] == c_final else None)

    def _checksum(self, I, Wt, O):
        # the channel-sum checksum detects but cannot locate within the
        # summed-out axis: the ladder recomputes the nest
        return conv_check(self, I, Wt, O)

    def run(self, x: np.ndarray, wt: np.ndarray) -> np.ndarray:
        """Convenience: NCHW in, NKPQ out (input must be pre-padded)."""
        I = self.pack_input(x)
        W = self.pack_weights(wt)
        O = self.alloc_output()
        self(I, W, O)
        return self.unpack_output(O)

    # -- performance ------------------------------------------------------
    @property
    def flops(self) -> int:
        return self.spec.flops

    def sim_body(self, machine: MachineModel):
        sp = self.spec
        brcount = self.c_step * sp.R * sp.S

        def body(ind):
            in_, ic, ik, ih, iw, ir, is_ = ind
            # input rows touched: one slice per (c-block, input row)
            a_keys = [("I", in_, c, ih * sp.stride + r)
                      for c in range(ic, ic + self.c_step)
                      for r in range(sp.R)]
            b_keys = [("Wt", ik, c, r, s)
                      for c in range(ic, ic + self.c_step)
                      for r in range(sp.R) for s in range(sp.S)]
            return brgemm_event(
                machine, self.dtype, self.w_step, self.bk, self.bc,
                brcount, a_keys, b_keys, ("O", in_, ik, ih, iw),
                beta=1.0, c_first_touch=(ic == 0))
        return body

    def trace_builder(self, machine: MachineModel):
        """``tid -> CompiledTrace`` twin of :meth:`sim_body`."""
        return conv_trace_builder(self, machine)

    def _key_fields(self) -> tuple:
        return (self.spec, self.bc, self.bk, self.w_step, self.c_step,
                self.dtype)
