"""ABFT oracle: cross-check checksum verdicts against golden outputs.

The fuzzer (:mod:`repro.verify.fuzz`) proves spec instantiations safe;
this module proves the *ABFT verdicts* honest.  For seeded random cases
over every checksummed kernel family (GEMM / conv / SpMM / MLP) it runs
the kernel twice — once clean (the golden serial output) and once under
a seeded :class:`~repro.resilience.sdc.SdcPlan` bit flip — and demands
that the checksum verdict agree with the ground truth only the oracle
can see:

* **no misses** — whenever the injected output differs from the golden
  output, ``abft="detect"`` must have raised
  :class:`~repro.core.errors.SdcDetectedError`;
* **no false alarms** — whenever the outputs agree bit-exactly (and on
  every clean run), the kernel must return without raising.

Injected cases use small-integer tensors (checksum residuals are exact,
so a minimum-delta flip is never diluted away); the clean sweep uses
full-range float tensors — including BF16 and fused bias/activation
epilogues — because that is where a mis-derived tolerance would false-
positive.  All randomness is seeded: a red case replays from its
``(kind, seed, backend)`` triple alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import SdcDetectedError
from ..resilience.sdc import SdcPlan, sdc_injection
from ..tpp.dtypes import DType

__all__ = ["OracleResult", "run_oracle", "clean_sweep"]


@dataclass
class OracleResult:
    """Outcome of one oracle run."""

    cases: int = 0
    detections: int = 0        # injected cases the checksum caught
    clean_passes: int = 0      # clean cases that (correctly) stayed quiet
    #: (kind, backend, seed, why) for every verdict/ground-truth split
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        return (f"abft oracle: {self.cases} cases | "
                f"{self.detections} detected, {self.clean_passes} clean | "
                f"{len(self.failures)} verdict failures")


def _ints(rng, *shape):
    """Small-integer float32 tensors: checksum residuals are exact, so
    detection of any single bit flip is guaranteed (no dilution)."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


# -- one (golden, injected) trial per kernel family -----------------------

def _gemm_trial(rng, backend, abft):
    from ..kernels.gemm import ParlooperGemm
    kern = ParlooperGemm(64, 64, 64, 16, 16, 16, k_step=2,
                         backend=backend, abft=abft)
    A = kern.pack_a(_ints(rng, 64, 64))
    B = kern.pack_b(_ints(rng, 64, 64))

    def run():
        C = kern.alloc_c()
        kern(A, B, C)
        return C
    return run


def _conv_trial(rng, backend, abft):
    from ..kernels.conv import ConvSpec, ParlooperConv
    spec = ConvSpec(N=1, C=32, K=32, H=6, W=6)
    kern = ParlooperConv(spec, bc=16, bk=16, w_step=2,
                         backend=backend, abft=abft)
    I = kern.pack_input(_ints(rng, spec.N, spec.C, spec.H, spec.W))
    Wt = kern.pack_weights(_ints(rng, spec.K, spec.C, spec.R, spec.S))

    def run():
        O = kern.alloc_output()
        kern(I, Wt, O)
        return O
    return run


def _spmm_trial(rng, backend, abft):
    from ..kernels.spmm import ParlooperSpmm
    from ..tpp.sparse import BCSCMatrix
    dense = _ints(rng, 64, 64)
    for i in range(0, 64, 32):          # knock out some 16x16 blocks
        dense[i:i + 16, i:i + 16] = 0.0
    a = BCSCMatrix.from_dense(dense, 16, 16)
    kern = ParlooperSpmm(a, 64, bn=16, backend=backend, abft=abft)
    B = kern.pack_b(_ints(rng, 64, 64))

    def run():
        C = kern.alloc_c()
        kern(B, C)
        return C
    return run


def _mlp_trial(rng, backend, abft):
    from ..kernels.mlp import ParlooperMlp
    mlp = ParlooperMlp([64, 64], 64, bm=16, bn=16, bk=16,
                       backend=backend, abft=abft,
                       seed=int(rng.integers(2**31)))
    for l, layer in enumerate(mlp.layers):
        mlp.weights[l] = layer.gemm.pack_a(_ints(rng, 64, 64))
        mlp.biases[l] = _ints(rng, 64)
    x = _ints(rng, 64, 64)

    def run():
        return mlp.forward(x)
    return run


_TRIALS = {
    "gemm": _gemm_trial,
    "conv": _conv_trial,
    "spmm": _spmm_trial,
    "mlp": _mlp_trial,
}


def run_oracle(kinds=("gemm", "conv", "spmm", "mlp"),
               cases_per_kind: int = 8, backend: str = "interp",
               seed: int = 0) -> OracleResult:
    """Cross-check ABFT verdicts against golden outputs.

    Each case runs one kernel family on fresh seeded integer inputs:
    once clean (must stay quiet, output is the golden reference) and
    once under a seeded single bit flip (the ``abft="detect"`` kernel
    must raise exactly when the surviving output differs from golden).
    """
    res = OracleResult()
    for kind in kinds:
        trial = _TRIALS[kind]
        for case in range(cases_per_kind):
            kind_tag = int.from_bytes(kind.encode(), "little") % (2**31)
            case_seed = int(np.random.default_rng(
                (seed, kind_tag, case)).integers(2**31))
            res.cases += 1
            rng = np.random.default_rng(case_seed)
            run = trial(rng, backend, "detect")
            # clean pass: the golden output, and a quietness check
            try:
                golden = run().copy()
            except SdcDetectedError as exc:
                res.failures.append(
                    (kind, backend, case_seed,
                     f"false positive on clean run: {exc}"))
                continue
            res.clean_passes += 1
            # injected pass: verdict must match the golden diff
            plan = SdcPlan.single_flip(seed=case_seed)
            detected = False
            try:
                with sdc_injection(plan) as inj:
                    out = run()
            except SdcDetectedError:
                detected = True
                out = None
            if not inj.flips:
                res.failures.append(
                    (kind, backend, case_seed,
                     "the kernel offered the injector no final tile"))
                continue
            corrupted = out is None or not np.array_equal(out, golden)
            if detected and not corrupted:
                res.failures.append(
                    (kind, backend, case_seed,
                     "verdict=detected but output equals golden"))
            elif corrupted and not detected:
                res.failures.append(
                    (kind, backend, case_seed,
                     f"miss: output corrupted ({len(inj.flips)} flips) "
                     f"but checksum stayed quiet"))
            else:
                res.detections += 1
    return res


def clean_sweep(n_cases: int = 200, backend: str = "interp",
                seed: int = 0) -> OracleResult:
    """*n_cases* clean runs over full-range float inputs — the
    tolerance-calibration half of the oracle.  Any raise is a false
    positive (a mis-derived threshold); the acceptance bar is zero."""
    from ..kernels.gemm import ParlooperGemm
    res = OracleResult()
    rng = np.random.default_rng((seed, 0xAB41))
    for case in range(n_cases):
        res.cases += 1
        dtype = DType.BF16 if case % 3 == 0 else DType.F32
        fused = case % 2 == 1
        scale = float(rng.choice([0.01, 1.0, 100.0]))
        kern = ParlooperGemm(
            64, 64, 64, 16, 16, 16, k_step=2, dtype=dtype,
            activation="relu" if fused else "none", bias=fused,
            backend=backend, abft="detect")
        a = (rng.standard_normal((64, 64)) * scale).astype(np.float32)
        b = (rng.standard_normal((64, 64)) * scale).astype(np.float32)
        bias = (rng.standard_normal(64).astype(np.float32)
                if fused else None)
        A, B, C = kern.pack_a(a), kern.pack_b(b), kern.alloc_c()
        try:
            kern(A, B, C, bias)
        except SdcDetectedError as exc:
            res.failures.append(
                ("gemm", backend, case, f"false positive: {exc}"))
        else:
            res.clean_passes += 1
    return res
