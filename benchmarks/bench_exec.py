"""Batched tile-level execution vs the interpreter: the PR-8 headline.

Three claims, all machine-checkable:

* **Speedup** — lowering the compiled loop nest to block-granular NumPy
  (one stacked ``einsum`` per blocking level instead of one Python body
  call per innermost iteration) runs a 2048^3 GEMM and the Fig 3 MLP
  testbed at least ``REPRO_EXEC_MIN_SPEEDUP``x (default 3x) faster than
  the interpreter on the same machine.
* **Bit-identity** — the batched backend reproduces the interpreter's
  outputs *exactly* (``np.array_equal``): same numbers, only faster.
* **Allocation-free serving** — the serve step loop (preallocated batch
  scratch + memoized step pricing) performs zero NumPy array
  allocations across a 10^5-request serving run's steady-state steps.

Sizes are environment-overridable (``REPRO_EXEC_GEMM_DIM``,
``REPRO_EXEC_MLP_WIDTH``, ``REPRO_EXEC_SERVE_REQUESTS``) so local runs
can shrink them; the asserted thresholds do not change.
"""

import os
import time

import numpy as np

from repro.bench import ExperimentTable
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.platform import SPR
from repro.serve import ServeCostModel, ServeSimulator, TrafficGenerator
from repro.tpp.dtypes import DType
from repro.workloads import LlmConfig

MIN_SPEEDUP = float(os.environ.get("REPRO_EXEC_MIN_SPEEDUP", "3"))
GEMM_DIM = int(os.environ.get("REPRO_EXEC_GEMM_DIM", "2048"))
MLP_WIDTH = int(os.environ.get("REPRO_EXEC_MLP_WIDTH", "1024"))
SERVE_REQUESTS = int(os.environ.get("REPRO_EXEC_SERVE_REQUESTS", "100000"))

#: numpy module-level array constructors patched by the zero-allocation
#: guard; everything the serving stack could use to materialize an array
_NP_CONSTRUCTORS = ("zeros", "empty", "ones", "full", "array", "asarray",
                    "ascontiguousarray", "arange", "concatenate", "stack",
                    "frombuffer", "fromiter", "copy")


def _int_array(rng, shape):
    """Small-integer float32 values: exact under any summation order, so
    interpreter-vs-batched comparison can demand bit-identity."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def _timed(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_exec_speedup(benchmark):
    table = ExperimentTable(
        "Batched tile-level execution vs interpreter (SPR spec)",
        ["workload", "interp (s)", "batched (s)", "speedup",
         "bit-identical"])
    rng = np.random.default_rng(0xD1CE)

    # -- 2048^3 GEMM ---------------------------------------------------
    d = GEMM_DIM
    a = _int_array(rng, (d, d))
    b = _int_array(rng, (d, d))
    kern_i = ParlooperGemm(d, d, d, 32, 32, 32, k_step=4, num_threads=4)
    kern_b = ParlooperGemm(d, d, d, 32, 32, 32, k_step=4, num_threads=4,
                           backend="batched")
    A, B = kern_i.pack_a(a), kern_i.pack_b(b)
    C_i, C_b = kern_i.alloc_c(), kern_b.alloc_c()
    t_interp = _timed(lambda: kern_i(A, B, C_i))
    t_batched = _timed(lambda: kern_b(A, B, C_b), repeats=3)
    gemm_speedup = t_interp / t_batched
    gemm_exact = bool(np.array_equal(C_i, C_b))
    table.add(f"GEMM {d}^3 (f32, 32^3 blocks, k_step=4)", t_interp,
              t_batched, f"{gemm_speedup:.1f}x", str(gemm_exact))

    # -- the Fig 3 MLP testbed: bias+ReLU cascade over N=512 -----------
    w = MLP_WIDTH
    x = _int_array(rng, (w, 512))
    mlp_i = ParlooperMlp([w] * 4, 512, bm=16, bn=16, bk=16,
                         dtype=DType.BF16)
    mlp_b = ParlooperMlp([w] * 4, 512, bm=16, bn=16, bk=16,
                         dtype=DType.BF16, backend="batched")
    t_interp_mlp = _timed(lambda: mlp_i.forward(x))
    t_batched_mlp = _timed(lambda: mlp_b.forward(x), repeats=3)
    mlp_speedup = t_interp_mlp / t_batched_mlp
    mlp_exact = bool(np.array_equal(mlp_i.forward(x), mlp_b.forward(x)))
    table.add(f"MLP [{w}]x4, N=512 (bf16, 16^3 blocks, bias+relu)",
              t_interp_mlp,
              t_batched_mlp, f"{mlp_speedup:.1f}x", str(mlp_exact))

    table.note(f"threshold {MIN_SPEEDUP}x (REPRO_EXEC_MIN_SPEEDUP); "
               f"sizes GEMM {d}^3, MLP width {w} "
               f"(REPRO_EXEC_GEMM_DIM / REPRO_EXEC_MLP_WIDTH)")
    table.show()
    table.write_json("EXEC")

    assert gemm_exact and mlp_exact
    assert gemm_speedup >= MIN_SPEEDUP, \
        f"GEMM speedup {gemm_speedup:.2f}x below {MIN_SPEEDUP}x"
    assert mlp_speedup >= MIN_SPEEDUP, \
        f"MLP speedup {mlp_speedup:.2f}x below {MIN_SPEEDUP}x"

    # the representative kernel: one batched mid-size GEMM
    small_i = ParlooperGemm(512, 512, 512, 32, 32, 32, k_step=4)
    small_b = ParlooperGemm(512, 512, 512, 32, 32, 32, k_step=4,
                            backend="batched")
    sa, sb = _int_array(rng, (512, 512)), _int_array(rng, (512, 512))
    SA, SB, SC = small_b.pack_a(sa), small_b.pack_b(sb), small_b.alloc_c()
    assert np.array_equal(small_i.run_flat(sa, sb),
                          small_b.run_flat(sa, sb))
    benchmark(lambda: small_b(SA, SB, SC))


class _AllocCounter:
    """Counts numpy module-level array-constructor calls while active."""

    def __init__(self):
        self.count = 0
        self._saved = {}

    def __enter__(self):
        def wrap(fn):
            def counting(*args, **kwargs):
                self.count += 1
                return fn(*args, **kwargs)
            return counting
        for name in _NP_CONSTRUCTORS:
            self._saved[name] = getattr(np, name)
            setattr(np, name, wrap(self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(np, name, fn)
        return False


def test_serve_step_loop_allocation_free():
    """A 10^5-request serving run performs zero NumPy array allocations
    inside its step loop: batch scratch is preallocated on the run
    state and memoized step pricing is plain-float arithmetic."""
    tiny = LlmConfig("tiny", layers=2, hidden=256, heads=8,
                     intermediate=512, vocab=4096)
    reqs = TrafficGenerator(
        rate_rps=2000.0, seed=11, mean_prompt=96, max_prompt=512,
        mean_new_tokens=12, max_new_tokens=48).generate(SERVE_REQUESTS)
    sim = ServeSimulator(tiny, SPR, mem_fraction=0.01,
                         cost=ServeCostModel.for_stack(tiny, SPR))
    sim.begin(reqs, max_steps=10_000_000, validate=True)
    with _AllocCounter() as alloc:
        while sim.advance():
            pass
    report = sim.finish()
    assert report.summary.n_finished > 0
    assert report.n_steps > 1000           # a real steady-state run
    assert alloc.count == 0, \
        (f"serve step loop allocated {alloc.count} numpy arrays over "
         f"{report.n_steps} steps")
