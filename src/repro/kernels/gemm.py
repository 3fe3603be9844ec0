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
from ..platform.machine import MachineModel
from ..simulator.cost import brgemm_event, eltwise_event
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.memory import Ptr
from ..tpp.unary import GeluTPP, ReluTPP, ZeroTPP
from ..tpp.binary import BiasAddColTPP
from .abft import gemm_check, gemm_correct_single
from .base import ParlooperKernel
from .batched import gemm_batched_ok, run_gemm_batched
from .common import (alloc_blocked_c, divisible, pack_a_blocked,
                     pack_b_blocked, unpack_c_blocked)

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

        prec = Precision.of(dtype)
        self.zero_tpp = ZeroTPP(bm, bn, prec)
        self.brgemm_tpp = BRGemmTPP(
            bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn,
            beta=1.0, precision=prec)
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
            from .common import as_dtype
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
        in ``"correct"`` mode repair or recompute) it, and the identical
        per-block bias/activation TPPs are applied afterwards — the
        epilogue is not invertible, the linear part is.
        """
        if self.bias and bias_vec is None:
            raise ValueError("kernel was built with bias=True; pass bias_vec")
        defer = self.abft != "off" and (self.bias_tpp is not None
                                        or self.act_tpp is not None)
        self._compute(A, B, C, bias_vec, defer)
        if defer:
            self._apply_epilogue(C, bias_vec)
        return C

    def _batched_ok(self) -> tuple:
        return gemm_batched_ok(self)

    def _run_batched(self, A, B, C, bias_vec, defer):
        run_gemm_batched(self, A, B, C, bias_vec, defer_epilogue=defer)

    def _interp_body(self, A, B, C, bias_vec, defer):
        last_k = self.Kb - self.k_step

        def body(ind):
            ik, im, in_ = ind[0], ind[1], ind[2]
            brcount = self.k_step
            c_blk = C[in_][im]
            if ik == 0:
                self.zero_tpp(c_blk)
            if self.flat_b:
                b_blocks = [B[k * self.bk:(k + 1) * self.bk,
                              in_ * self.bn:(in_ + 1) * self.bn]
                            for k in range(ik, ik + brcount)]
                a_blocks = [A[im, k] for k in range(ik, ik + brcount)]
                self._addr_brgemm(a_blocks, b_blocks, c_blk, brcount)
            else:
                self.brgemm_tpp(Ptr.of(A, im, ik), Ptr.of(B, in_, ik),
                                c_blk, brcount)
            if ik == last_k and not defer:
                if self.bias_tpp is not None:
                    # per-output-feature bias: broadcast down the minibatch
                    self.bias_tpp(c_blk, bias_vec[im * self.bm:
                                                  (im + 1) * self.bm])
                if self.act_tpp is not None:
                    self.act_tpp(c_blk)
        return body

    def _final_tile(self, A, B, C, bias_vec, defer):
        last_k = self.Kb - self.k_step
        return lambda ind: C[ind[2]][ind[1]] if ind[0] == last_k else None

    def _checksum(self, A, B, C, bias_vec, defer):
        return gemm_check(self, A, B, C)

    def _correct(self, check, A, B, C, bias_vec, defer) -> bool:
        """A single located element is repaired in place; several (or an
        unrepairable single) leave the ladder to recompute the nest."""
        if not check.single:
            return False
        gemm_correct_single(self, A, B, C, check)
        return not gemm_check(self, A, B, C).corrupt

    def _apply_epilogue(self, C, bias_vec):
        """The deferred fused epilogue, applied over the whole stacked
        tile set at once — elementwise identical to the fused path (the
        batched TPP equivalents round exactly like the per-block TPPs,
        and are far cheaper than Mb*Nb Python calls)."""
        if self.bias_tpp is None and self.act_tpp is None:
            return
        from ..tpp.batched import batched_bias_add_col, batched_unary
        prec = Precision.of(self.dtype)
        tiles = C.reshape(-1, self.bm, self.bn)
        stored = tiles
        if self.bias_tpp is not None:
            bias_blocks = np.asarray(bias_vec).reshape(self.Mb, self.bm)
            ims = np.tile(np.arange(self.Mb), self.Nb)
            stored = batched_bias_add_col(stored, bias_blocks[ims], prec)
        if self.act_tpp is not None:
            stored = batched_unary(stored, self.activation, prec)
        tiles[:] = stored

    def _addr_brgemm(self, a_blocks, b_blocks, c_blk, brcount):
        tpp = getattr(self, "_addr_tpp", None)
        if tpp is None:
            tpp = BRGemmTPP(self.bm, self.bn, self.bk, variant="address",
                            beta=1.0, precision=Precision.of(self.dtype))
            self._addr_tpp = tpp
        tpp(a_blocks, b_blocks, c_blk, brcount)

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

    def sim_body(self, machine: MachineModel, names=("A", "B", "C")):
        """Simulator description of one body invocation.

        *names* label the A, B and C tensors: an MLP layer passes its
        weights and the activations it reads and writes, so the engine
        sees one layer's output as the next layer's input."""
        a_name, b_name, c_name = names
        scale = self._conflict_scale()
        last_k = self.Kb - self.k_step

        def body(ind):
            ik, im, in_ = ind[0], ind[1], ind[2]
            a_keys = [(a_name, im, k) for k in range(ik, ik + self.k_step)]
            b_keys = [(b_name, in_, k) for k in range(ik, ik + self.k_step)]
            events = [brgemm_event(
                machine, self.dtype, self.bm, self.bn, self.bk, self.k_step,
                a_keys, b_keys, (c_name, in_, im), beta=1.0,
                c_first_touch=(ik == 0),
                b_footprint_scale=scale)]
            if ik == last_k and (self.act_tpp or self.bias_tpp):
                events.append(eltwise_event(
                    machine, self.dtype, self.bm, self.bn,
                    [(c_name, in_, im)], (c_name, in_, im),
                    flops_per_elem=2.0 if self.bias else 1.0))
            return events
        return body

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
