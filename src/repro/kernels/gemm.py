"""GEMM written with PARLOOPER and TPPs — the paper's Listing 1.

The kernel body is expressed with exactly two TPPs (``zero_tpp`` and the
stride-based ``brgemm_tpp``) over the logical loop indices; all loop
instantiation decisions live in the ``loop_spec_string`` knob.  The same
object also produces the simulator description of itself (``sim_body``),
so functional runs and performance simulation share one source of truth
about what each body invocation touches.
"""

from __future__ import annotations

import numpy as np

from ..core.loop_spec import LoopSpecs
from ..simulator.cost import brgemm_event, eltwise_event
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.batched import batched_bias_add_col, batched_unary
from ..tpp.binary import BiasAddColTPP
from ..tpp.memory import Ptr
from ..tpp.unary import GeluTPP, ReluTPP, ZeroTPP
from .abft import gemm_check, gemm_correct_single
from .base import BlockMap, ParlooperKernel
from .common import (alloc_blocked_c, as_dtype, divisible, pack_a_blocked,
                     pack_b_blocked, tiles, unpack_c_blocked)

__all__ = ["ParlooperGemm", "DEFAULT_GEMM_SPEC"]

#: a sensible untuned default: collapse the (M, N) block space
DEFAULT_GEMM_SPEC = "aBC"

_ACTIVATIONS = {"none": None, "relu": ReluTPP, "gelu": GeluTPP}


class ParlooperGemm(ParlooperKernel):
    """C = A x B over blocked layouts, instantiated by a spec string.

    Logical loops (Listing 1): ``a`` = K blocks, ``b`` = M blocks,
    ``c`` = N blocks.  ``k_step`` folds that many K blocks into one
    batch-reduce call (``k_step = Kb`` turns the whole reduction into a
    single BRGEMM, the common tuned configuration).

    Parameters
    ----------
    activation / bias:
        Optional epilogue fused on the 2D block after the last K update
        (§III-A1) — this is how the MLP kernel extends GEMM.
    flat_b:
        Use a flat (non-blocked) B layout.  Functionally identical;
        the simulator charges the conflict-miss footprint inflation the
        paper attributes to oneDNN's layout at ld=4096 (§V-A1).
    backend:
        ``"interp"`` (default) runs one body call per iteration;
        ``"batched"`` lowers eligible nests to tile-level stacked NumPy
        (:mod:`repro.kernels.batched`), falling back to the interpreter
        otherwise.  Simulation and prediction are backend-independent.
    """

    kind = "gemm"
    tensors = ("A", "B", "C")

    def __init__(self, M: int, N: int, K: int,
                 bm: int = 64, bn: int = 64, bk: int = 64,
                 k_step: int | None = None,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_GEMM_SPEC,
                 num_threads: int | None = None,
                 block_steps=((), (), ()),
                 activation: str = "none",
                 bias: bool = False,
                 flat_b: bool = False,
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(M, bm, "M")
        divisible(N, bn, "N")
        divisible(K, bk, "K")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"expected one of {sorted(_ACTIVATIONS)}")
        self.M, self.N, self.K = M, N, K
        self.bm, self.bn, self.bk = bm, bn, bk
        self.Mb, self.Nb, self.Kb = M // bm, N // bn, K // bk
        self.k_step = self.Kb if k_step is None else k_step
        if self.Kb % self.k_step:
            raise ValueError(
                f"k_step={self.k_step} must divide Kb={self.Kb}")
        self.dtype = dtype
        self.activation = activation
        self.bias = bias
        self.flat_b = flat_b
        if flat_b:
            self._layout_gate = "flat-B layout gathers per-iteration " \
                                "address blocks"

        prec = Precision.of(dtype)
        self.zero_tpp = ZeroTPP(bm, bn, prec)
        self.brgemm_tpp = BRGemmTPP(
            bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn,
            beta=1.0, precision=prec)
        # flat B has no block stride: its blocks are gathered by address
        self.addr_tpp = BRGemmTPP(bm, bn, bk, variant="address", beta=1.0,
                                  precision=prec)
        self.act_tpp = (_ACTIVATIONS[activation](bm, bn, prec)
                        if _ACTIVATIONS[activation] else None)
        self.bias_tpp = BiasAddColTPP(bm, bn, prec) if bias else None

        super().__init__(
            [LoopSpecs(0, self.Kb, self.k_step, block_steps[0]),
             LoopSpecs(0, self.Mb, 1, block_steps[1]),
             LoopSpecs(0, self.Nb, 1, block_steps[2])],
            spec_string, num_threads, backend, abft)

    # -- layout ------------------------------------------------------------
    def pack_a(self, a: np.ndarray) -> np.ndarray:
        return pack_a_blocked(a, self.bm, self.bk, self.dtype)

    def pack_b(self, b: np.ndarray) -> np.ndarray:
        if self.flat_b:
            return np.ascontiguousarray(as_dtype(b, self.dtype))
        return pack_b_blocked(b, self.bk, self.bn, self.dtype)

    def alloc_c(self) -> np.ndarray:
        return alloc_blocked_c(self.M, self.N, self.bm, self.bn, self.dtype)

    def unpack_c(self, cb: np.ndarray) -> np.ndarray:
        return unpack_c_blocked(cb)

    # -- functional execution ------------------------------------------------
    def __call__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                 bias_vec: np.ndarray | None = None) -> np.ndarray:
        """Run the kernel (Listing 1 lines 11-17).

        With ``abft != "off"`` the fused epilogue is deferred: the nest
        computes the *linear* C, the Huang–Abraham checksums verify (and
        in ``"correct"`` mode repair or recompute) it, and the same
        bias/activation is applied afterwards — the epilogue is not
        invertible, the linear part is.
        """
        if self.bias and bias_vec is None:
            raise ValueError("kernel was built with bias=True; pass bias_vec")
        defer = self.abft != "off" and (self.bias_tpp is not None
                                        or self.act_tpp is not None)
        self._compute(A, B, C, bias_vec, defer)
        if defer:
            stack = C.reshape(-1, self.bm, self.bn)
            stack[:] = self._epilogue(
                stack, np.divmod(np.arange(len(stack)), self.Mb), A, B, C,
                bias_vec, False)
        return C

    # -- the block map and its executors -----------------------------------
    def block_map(self, ind) -> BlockMap:
        """Listing 1's addresses: call ``(ik, im, in)`` reduces
        ``A[im][ik + i]`` x ``B[in][ik + i]``, ``i < k_step``, into
        ``C[in][im]``, starting it at ``ik = 0`` and finishing it at the
        last K step."""
        ik, im, in_ = ind[0], ind[1], ind[2]
        ks = [ik + i for i in range(self.k_step)]
        return BlockMap(reads=([(im, k) for k in ks], [(in_, k) for k in ks]),
                        write=(in_, im), first=ik == 0,
                        last=ik == self.Kb - self.k_step)

    def _blocks(self, A, B, C, bias_vec, defer):
        if self.flat_b:          # the flat (K, N) B as [Nb][Kb] blocks
            B = tiles(B, self.bk, self.bn).swapaxes(0, 1)
        return (A, B), C

    def _tpp_call(self, m, ins, c_blk, A, B, C, bias_vec, defer):
        """Listing 1 lines 13-16, plus the fused epilogue (§III-A1) on
        the call that finishes its block."""
        a, b = m.reads
        if m.first:
            self.zero_tpp(c_blk)
        if self.flat_b:
            self.addr_tpp([A[x] for x in a], [ins[1][x] for x in b], c_blk,
                          self.k_step)
        else:
            self.brgemm_tpp(Ptr.of(A, *a[0]), Ptr.of(B, *b[0]), c_blk,
                            self.k_step)
        if m.last and not defer:
            if self.bias_tpp is not None:
                # per-output-feature bias: broadcast down the minibatch
                im = a[0][0]
                self.bias_tpp(c_blk, bias_vec[im * self.bm:
                                              (im + 1) * self.bm])
            if self.act_tpp is not None:
                self.act_tpp(c_blk)

    def _epilogue(self, stack, write, A, B, C, bias_vec, defer):
        """Bias + activation on stacked C tiles, by the batched twins of
        the epilogue TPPs (which round alike); deferred under ABFT."""
        prec = Precision.of(self.dtype)
        if self.bias_tpp is not None and not defer:
            bias = np.asarray(bias_vec).reshape(self.Mb, self.bm)
            stack = batched_bias_add_col(stack, bias[write[1]], prec)
        if self.act_tpp is not None and not defer:
            stack = batched_unary(stack, self.activation, prec)
        return stack

    def _checksum(self, A, B, C, bias_vec, defer):
        return gemm_check(self, A, B, C)

    def _correct(self, check, A, B, C, bias_vec, defer) -> bool:
        """A single located element is repaired in place; several (or an
        unrepairable single) leave the ladder to recompute the nest."""
        if not check.single:
            return False
        gemm_correct_single(self, A, B, C, check)
        return not gemm_check(self, A, B, C).corrupt

    def run_flat(self, a: np.ndarray, b: np.ndarray,
                 bias_vec: np.ndarray | None = None) -> np.ndarray:
        """Convenience: flat (M,K) x (K,N) in, flat (M,N) out."""
        A, B, C = self.pack_a(a), self.pack_b(b), self.alloc_c()
        self(A, B, C, bias_vec)
        return self.unpack_c(C)

    # -- performance ------------------------------------------------------
    @property
    def flops(self) -> int:
        return 2 * self.M * self.N * self.K

    def _events(self, machine, keys, c_key, first, last):
        events = [brgemm_event(
            machine, self.dtype, self.bm, self.bn, self.bk, self.k_step,
            *keys, c_key, beta=1.0, c_first_touch=first,
            b_footprint_scale=self._conflict_scale())]
        if last and (self.act_tpp is not None or self.bias_tpp is not None):
            events.append(eltwise_event(
                machine, self.dtype, self.bm, self.bn, [c_key], c_key,
                flops_per_elem=2.0 if self.bias else 1.0))
        return events

    def _conflict_scale(self) -> float:
        """Cache-footprint inflation for flat-B with a large power-of-two
        leading dimension: columns of a B panel map to few sets, causing
        'extraneous cache-conflict misses' (§V-A1)."""
        if not self.flat_b:
            return 1.0
        ld = self.N
        if ld >= 2048 and (ld & (ld - 1)) == 0:
            return 2.1
        return 1.25

    def _key_fields(self) -> tuple:
        return (self.M, self.N, self.K, self.bm, self.bn, self.bk,
                self.k_step, self.dtype, self.activation, self.bias,
                self._conflict_scale())

    def with_spec(self, spec_string: str, block_steps=None,
                  num_threads=None) -> "ParlooperGemm":
        """Zero-code-change re-instantiation (the auto-tuning contract).

        The thread count carries over unless overridden — a retuned
        kernel must stay comparable to the one it replaces."""
        return ParlooperGemm(
            self.M, self.N, self.K, self.bm, self.bn, self.bk,
            k_step=self.k_step, dtype=self.dtype, spec_string=spec_string,
            num_threads=num_threads if num_threads is not None
            else self.num_threads,
            block_steps=block_steps if block_steps is not None
            else ((), (), ()),
            activation=self.activation, bias=self.bias, flat_b=self.flat_b,
            backend=self.backend, abft=self.abft)
