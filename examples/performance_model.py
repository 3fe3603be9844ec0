"""The Box-B3 performance-modeling tool (§II-E, Fig 6): score a set of
loop instantiations with the per-thread LRU slice-trace model and compare
against the full measurement engine.

Run:  python examples/performance_model.py
"""

from repro.core import LoopSpecs
from repro.kernels import ParlooperGemm
from repro.platform import SPR
from repro.simulator.perfmodel import predict
from repro.tpp.dtypes import DType

M = N = K = 2048
bm = bn = bk = 64
Kb, Mb, Nb = K // bk, M // bm, N // bn

CANDIDATES = [
    ("aBC", ((), (), ())),          # full collapse — good concurrency
    ("aBCbc", ((), (4,), (4,))),    # collapse + L2 tiles
    ("Bac", ((), (), ())),          # M-only parallel, K inner
    ("aBbc", ((), (8,), ())),       # parallelize only 4 chunks — starved
    ("Cab", ((), (), ())),          # N-only parallel
]

print(f"{'spec':14s} {'modeled GF':>12s} {'measured GF':>12s}")
for spec, blocks in CANDIDATES:
    kernel = ParlooperGemm(M, N, K, bm, bn, bk, dtype=DType.BF16,
                           spec_string=spec, block_steps=blocks,
                           num_threads=112)
    model = predict(kernel.loop, kernel.sim_body(SPR), SPR,
                    sample_threads=4, total_flops=kernel.flops)
    engine = kernel.simulate(SPR)
    print(f"{spec:14s} {model.score:12,.0f} {engine.gflops:12,.0f}")

print("\nthe model ranks poor-locality / low-concurrency schedules low "
      "(§II-E); its top class contains the best measured instantiation "
      "(Fig 6)")
