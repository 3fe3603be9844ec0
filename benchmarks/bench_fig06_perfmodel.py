"""Figure 6: performance-model vs measured correlation over many
loop_spec_strings on SPR and Zen4.

Paper shape: the lightweight Box-B3 model tracks the measured trend —
poor-locality / low-concurrency schedules get low scores — and the top-5
modeled classes always contain the best measured instantiation.
"""

import numpy as np
import pytest

from repro.bench import ExperimentTable
from repro.core import LoopSpecs
from repro.kernels import ParlooperGemm
from repro.platform import SPR, ZEN4
from repro.simulator import brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import TuningConstraints, generate_candidates


def _spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    if np.std(ra) == 0 or np.std(rb) == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


@pytest.mark.parametrize("machine,dtype,threads", [
    (SPR, DType.BF16, 32), (ZEN4, DType.F32, 16)],
    ids=["SPR-bf16", "Zen4-fp32"])
def test_fig6_model_vs_measured(benchmark, machine, dtype, threads):
    M = N = K = 2048
    bm = bn = bk = 64
    Kb, Mb, Nb = K // bk, M // bm, N // bn
    specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1), LoopSpecs(0, Nb, 1)]
    cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                             parallelizable=frozenset({"b", "c"}),
                             max_candidates=24, seed=1)
    cands = generate_candidates(specs, cons)

    from repro.simulator.perfmodel import predict
    table = ExperimentTable(
        f"Fig 6 — model vs measured on {machine.name}",
        ["spec", "modeled GF", "measured GF"])
    modeled, measured = [], []
    for cand in cands:
        kernel = ParlooperGemm(M, N, K, bm, bn, bk, dtype=dtype,
                               spec_string=cand.spec_string,
                               block_steps=cand.block_steps,
                               num_threads=threads)
        p = predict(kernel.loop, kernel.sim_body(machine), machine,
                    sample_threads=4, total_flops=kernel.flops)
        e = kernel.simulate(machine)
        modeled.append(p.score)
        measured.append(e.gflops)
        table.add(cand.label(), p.score, e.gflops)
    rho = _spearman(modeled, measured)
    # paper claim: the top-5 modeled classes contain the most performant
    # instantiation; many schedules tie at the measured optimum
    # (compute-bound), so "best" means within 2% of the measured maximum
    modeled = np.asarray(modeled)
    measured = np.asarray(measured)
    top5 = np.argsort(modeled)[::-1][:5]
    best_measured = measured.max()
    hit = bool(np.any(measured[top5] >= 0.98 * best_measured))
    # and the model must not rank a near-best schedule at the bottom
    bottom5 = np.argsort(modeled)[:5]
    bottom_clean = bool(np.all(measured[bottom5] <= 0.9 * best_measured))
    table.note(f"Spearman rank correlation {rho:.2f}; top-5 modeled "
               f"contains a best-class schedule: {hit} (paper: always); "
               f"bottom-5 free of best-class schedules: {bottom_clean}")
    table.show()

    assert rho > 0.25
    assert hit
    assert bottom_clean

    kernel = ParlooperGemm(512, 512, 512, num_threads=8, dtype=dtype)
    benchmark(lambda: predict(kernel.loop, kernel.sim_body(machine),
                              machine, sample_threads=2,
                              total_flops=kernel.flops))
