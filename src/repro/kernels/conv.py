"""Direct convolution via PARLOOPER/TPP — the paper's Listing 4 (§III-B).

Seven logical loops traverse the iteration space::

    a = N (minibatch)     b = Cb (input-channel blocks)
    c = Kb (output-channel blocks)   d = P (output rows, step h_step)
    e = Q (output cols, step w_step) f = R, g = S (filter taps)

The body folds ``c_step * R * S`` contraction steps into one
address-based batch-reduce GEMM of shape (w_step pixels) x (bk
out-channels) x (bc in-channels).

Tensor layouts (Listing 4 lines 1-3)::

    I[N][Cb][H][W][bc]    W[Kb][Cb][R][S][bc][bk]    O[N][Kb][P][Q][bk]

The input is expected *pre-padded* (physical padding, the common TPP/
LIBXSMM deployment choice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.loop_spec import LoopSpecs
from ..simulator.cost import brgemm_event
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.unary import ZeroTPP
from .abft import conv_check
from .base import BlockMap, ParlooperKernel
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
    tensors = ("I", "Wt", "O")

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

    # -- the block map and its executors -----------------------------------
    def block_map(self, ind) -> BlockMap:
        """Listing 4's addresses: call ``(n, c, k, h, w, r, s)`` reduces,
        per folded (channel block, tap), the ``w_step``-pixel input window
        at ``I[n][c][h*stride + r]``, column ``w*stride + s``, against
        ``W[k][c][r][s]`` into window ``O[n][k][h]``, column ``w``."""
        n, ic, ik, ih, iw, ir, is_ = ind
        sp = self.spec
        taps = [(ic + c, ir + r, is_ + s) for c in range(self.c_step)
                for r in range(sp.R) for s in range(sp.S)]
        return BlockMap(
            reads=([(n, c, ih * sp.stride + r, iw * sp.stride + s)
                    for c, r, s in taps],
                   [(ik, c, r, s) for c, r, s in taps]),
            write=(n, ik, ih, iw), first=(ic == 0) & (ir == 0) & (is_ == 0),
            last=ic == self.Cb - self.c_step)

    def _blocks(self, I, Wt, O):
        return ((_windows(I, self.w_step, self.spec.stride), Wt),
                _windows(O, self.w_step, 1))

    def _tpp_call(self, m, ins, o_blk, I, Wt, O):
        """Listing 4's body: zero the output window on the first
        reduction step, then one address-based BRGEMM."""
        if m.first:
            self.zero_tpp(o_blk)
        a = [ins[0][x] for x in m.reads[0]]
        self.brgemm_tpp(a, [ins[1][x] for x in m.reads[1]], o_blk, len(a))

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

    def _slices(self, m: BlockMap) -> tuple:
        # one input-row slice per (channel block, filter row): the
        # row's first tap without its column
        return [c[:3] for c in m.reads[0][::self.spec.S]], m.reads[1]

    def _events(self, machine, keys, o_key, first, last):
        return brgemm_event(
            machine, self.dtype, self.w_step, self.bk, self.bc,
            len(keys[1]), *keys, o_key, beta=1.0, c_first_touch=first)

    def _key_fields(self) -> tuple:
        return (self.spec, self.bc, self.bk, self.w_step, self.c_step,
                self.dtype)


def _windows(x: np.ndarray, width: int, stride: int) -> np.ndarray:
    """``x[n][c][h][w][ch]`` as windows ``[n][c][h][w0]`` of *width*
    pixels *stride* columns apart, starting at column ``w0``."""
    return np.lib.stride_tricks.sliding_window_view(
        x, (width - 1) * stride + 1, axis=3,
        writeable=True)[..., ::stride].swapaxes(-1, -2)
