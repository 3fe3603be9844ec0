"""Multi-Layer Perceptron via cascading PARLOOPER GEMMs (§III-A1).

"An MLP within the PARLOOPER framework is just another loop around the
GEMM primitive to capture the cascading GEMMs.  The tensor W_l of each
layer corresponds to the A tensor ... the output matrix O_l of a layer l
is subsequently the input matrix I_{l+1} of the next layer."

The layer-to-layer activation handoff is what makes MLP performance
LLC-bandwidth-sensitive on SPR (Fig 3): activations written by one core
are read by every core in the next layer.  The simulation path keys
activations per layer so the engine sees exactly that traffic.
"""

from __future__ import annotations

import numpy as np

from ..platform.machine import MachineModel
from ..simulator.engine import SimResult, simulate_traces
from ..simulator.reuse import concat_traces
from ..tpp.dtypes import DType
from .base import _session
from .common import unpack_c_blocked
from .gemm import DEFAULT_GEMM_SPEC, ParlooperGemm

__all__ = ["ParlooperMlp", "MlpLayer"]


class MlpLayer:
    """One fully-connected layer: O = act(W x I + bias)."""

    def __init__(self, in_features: int, out_features: int, minibatch: int,
                 bm: int = 64, bn: int = 64, bk: int = 64,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_GEMM_SPEC,
                 num_threads: int | None = None,
                 activation: str = "relu", bias: bool = True,
                 backend: str = "interp", abft: str = "off"):
        # GEMM dims: M = out_features, K = in_features, N = minibatch
        self.in_features = in_features
        self.out_features = out_features
        self.minibatch = minibatch
        self.gemm = ParlooperGemm(
            out_features, minibatch, in_features, bm, bn, bk,
            dtype=dtype, spec_string=spec_string, num_threads=num_threads,
            activation=activation, bias=bias, backend=backend, abft=abft)
        self.backend = self.gemm.backend
        self.abft = self.gemm.abft

    def __call__(self, W_blocked: np.ndarray, I_blocked: np.ndarray,
                 bias_vec: np.ndarray | None) -> np.ndarray:
        O = self.gemm.alloc_c()
        self.gemm(W_blocked, I_blocked, O, bias_vec)
        return O


class ParlooperMlp:
    """A stack of fully-connected layers with fused bias + activation.

    ``sizes = [f0, f1, ..., fL]`` declares L layers; layer l maps
    ``f_l -> f_{l+1}`` features over a fixed minibatch.  Layer l's
    output blocks are layer l+1's input blocks, so ``bm`` must equal
    ``bk``.
    """

    def __init__(self, sizes, minibatch: int,
                 bm: int = 64, bn: int = 64, bk: int = 64,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_GEMM_SPEC,
                 num_threads: int | None = None,
                 activation: str = "relu", bias: bool = True, seed: int = 0,
                 backend: str = "interp", abft: str = "off"):
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least one layer (two sizes)")
        if bm != bk:
            raise ValueError(
                f"an MLP needs bm == bk, so that a layer's output blocks "
                f"are the next layer's input blocks; got bm={bm}, bk={bk}")
        self.sizes = list(sizes)
        self.minibatch = minibatch
        self.dtype = dtype
        self.activation = activation
        self.bias = bias
        self.layers = [
            MlpLayer(sizes[l], sizes[l + 1], minibatch, bm, bn, bk, dtype,
                     spec_string, num_threads, activation, bias,
                     backend=backend, abft=abft)
            for l in range(len(sizes) - 1)
        ]
        self.backend = self.layers[0].backend
        self.abft = self.layers[0].abft
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for l, layer in enumerate(self.layers):
            w = rng.standard_normal(
                (sizes[l + 1], sizes[l])).astype(np.float32)
            w *= np.sqrt(2.0 / sizes[l])
            self.weights.append(layer.gemm.pack_a(w))
            self.biases.append(
                rng.standard_normal(sizes[l + 1]).astype(np.float32) * 0.01
                if bias else None)

    # -- functional -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """x: (f0, minibatch) activations in, (fL, minibatch) out."""
        act = self.layers[0].gemm.pack_b(x)
        for layer, w, b in zip(self.layers, self.weights, self.biases):
            out = layer(w, act, b)
            # O[Nb][Mb][bm][bn] is the B layout (K=M rows) of the next
            # layer, as bk == bm: the cascading property
            act = out
        return unpack_c_blocked(act)

    # -- performance ------------------------------------------------------
    @property
    def flops(self) -> int:
        return sum(layer.gemm.flops for layer in self.layers)

    @staticmethod
    def _names(l: int) -> tuple:
        """Layer *l*'s A, B and C tensors: its weights, the activations
        it reads (layer l-1's output) and the activations it writes."""
        return (f"W{l}", f"ACT{l}", f"ACT{l + 1}")

    def _layer_sim_body(self, l: int, machine: MachineModel):
        """Simulator body of layer *l*: its GEMM's, over the layer's
        tensor names, so the engine sees one layer's output tensor as
        the next's input."""
        return self.layers[l].gemm._cached_sim_body(machine, self._names(l))

    def simulate(self, machine: MachineModel, session=None) -> SimResult:
        """Simulate the full cascade as one run so activations written in
        layer l are the slices read in layer l+1 (core-to-core traffic).

        Each layer's compiled thread traces come from the session's (or
        the default) trace cache, and each thread's layers are joined
        with :func:`~repro.simulator.reuse.concat_traces`.  The run
        reports into the same session's observability scope."""
        sess = _session(session)
        with sess.activate(), sess.obs.span(
                "mlp_simulate", layers=len(self.layers),
                machine=machine.name):
            layers = [sess.trace_cache.compiled_thread_traces(
                layer.gemm.loop, self._layer_sim_body(l, machine),
                range(layer.gemm.num_threads),
                body_key=layer.gemm._body_key(machine, self._names(l)))
                for l, layer in enumerate(self.layers)]
            return simulate_traces(list(map(concat_traces, zip(*layers))),
                                   machine)

    def predict(self, machine: MachineModel, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`.

        Composed layer by layer through the session's memoized predict
        path (the model ignores data sharing, so the cascade's
        core-to-core handoff costs nothing here anyway): seconds and
        flops sum, per-thread seconds add elementwise, hit fractions
        average weighted by layer time.
        """
        from ..simulator.perfmodel import PerfPrediction
        preds = [layer.gemm._predict(machine, session, sample_threads,
                                     self._names(l))
                 for l, layer in enumerate(self.layers)]
        seconds = sum(p.seconds for p in preds)
        per_thread = tuple(
            sum(vals) for vals in zip(*(p.per_thread_seconds
                                        for p in preds)))
        if seconds > 0.0:
            n_frac = len(preds[0].hit_fractions)
            hit_fractions = tuple(
                sum(p.seconds * p.hit_fractions[i] for p in preds) / seconds
                for i in range(n_frac))
        else:
            hit_fractions = preds[0].hit_fractions
        return PerfPrediction(
            seconds=seconds,
            total_flops=sum(p.total_flops for p in preds),
            per_thread_seconds=per_thread,
            hit_fractions=hit_fractions)

    def efficiency(self, machine: MachineModel, session=None) -> float:
        """Fraction of machine peak achieved (the Fig 3 dashed lines)."""
        res = self.simulate(machine, session=session)
        return res.gflops / machine.peak_gflops(self.dtype)
