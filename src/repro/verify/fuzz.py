"""Seeded differential spec fuzzer for the PARLOOPER stack.

The spec-string grammar is tiny, but its interaction surface is not:
blocking chains x orderings x collapse groups x ``{R:n}`` grids x
schedules x barriers.  The fuzzer drives that whole surface with random
*valid* and *near-valid* strings over small instances of every shipped
kernel family (GEMM / MLP / conv / SpMM) and cross-checks three oracles:

* **differential numerics** — ``execution="serial"`` (serialized spec,
  one thread) vs ``execution="threads"`` must agree *bit-exactly*.
  Inputs are small-integer-valued float32 tensors, so every summation
  order produces the identical result and exact comparison is sound.
  Every exact case then runs a **backend oracle**: the same kernel built
  with ``backend="batched"`` must reproduce the serial reference
  bit-exactly too (through the tile-level executor where eligible,
  through its interpreter fallback otherwise).
* **race analysis** — when :func:`~repro.verify.races.detect_races`
  flags a spec (e.g. a capitalized reduction loop), the numerics really
  may diverge, so the run is counted ``racy`` and the comparison is
  skipped; when it reports a BARRIER hazard the threads run would
  deadlock and is skipped too.  A numeric mismatch *without* a race
  report is a detector hole and fails the fuzz run.
* **coverage** — every valid spec must pass
  :func:`~repro.verify.coverage.check_coverage`; a dropped or duplicated
  iteration is a generator/blocking bug.
* **diagnostics** — near-valid strings must be rejected with a
  :class:`~repro.core.errors.SpecError` that carries a character span
  (renders a caret), never accepted and never crashed.

Case counts default to :data:`DEFAULT_CASES` and are overridden by the
``REPRO_FUZZ_CASES`` environment variable (the CI fuzz job runs ~200 per
family); all randomness is seeded, so failures replay.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import SpecError
from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from ..platform import SPR
from ..simulator.trace import _serialize_spec
from ..tuner.constraints import prefix_products
from .coverage import check_coverage
from .races import detect_races

__all__ = ["FuzzFamily", "FuzzResult", "default_families", "fuzz_family",
           "run_fuzz", "dump_failures", "DEFAULT_CASES"]

DEFAULT_CASES = 30
_SCHEDULES = ("", "", "schedule(static)", "schedule(static,2)",
              "schedule(dynamic)", "schedule(dynamic,2)")


def default_case_count() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_FUZZ_CASES", DEFAULT_CASES)))
    except ValueError:
        return DEFAULT_CASES


@dataclass(frozen=True)
class FuzzFamily:
    """One fuzzable kernel family.

    ``build(spec, block_steps, num_threads, execution)`` returns
    ``(loop, run, sim_body)`` where ``run()`` executes the kernel on the
    family's fixed inputs and returns the output array.  With
    ``execution="serial"`` the kernel runs the *serialized* spec on one
    thread (the reference); with ``"threads"`` it runs the candidate spec
    on real threads; with ``"batched"`` it runs the candidate spec on the
    batched backend.  ``make(spec, block_steps, num_threads, backend)``
    returns the bare kernel those runs use.
    """

    name: str
    base_specs: tuple          # LoopSpecs per logical loop, no block chains
    build: object
    make: object


@dataclass
class FuzzResult:
    """Outcome of one family's fuzz run."""

    family: str
    cases: int = 0
    passed: int = 0            # valid specs with exact numeric agreement
    racy: int = 0              # valid specs flagged racy (numerics skipped)
    hazards: int = 0           # valid specs with barrier deadlock hazards
    rejected: int = 0          # near-valid specs rejected with a span
    backend_checked: int = 0   # cases the batched-backend oracle also ran
    mismatches: list = field(default_factory=list)        # (spec, why)
    coverage_failures: list = field(default_factory=list)  # (spec, why)
    span_failures: list = field(default_factory=list)      # (spec, why)

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.coverage_failures
                    or self.span_failures)

    def failures(self) -> list:
        return self.mismatches + self.coverage_failures + self.span_failures

    def describe(self) -> str:
        return (f"{self.family}: {self.cases} cases | {self.passed} exact, "
                f"{self.backend_checked} backend-checked, "
                f"{self.racy} racy, {self.hazards} barrier hazards, "
                f"{self.rejected} near-valid rejected | "
                f"{len(self.mismatches)} numeric mismatches, "
                f"{len(self.coverage_failures)} coverage failures, "
                f"{len(self.span_failures)} diagnostic failures")


# -- kernel families -------------------------------------------------------

def _int_array(rng, shape):
    """Small-integer float32 values: exact under any summation order."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def _family(name: str, base: tuple, make, run) -> FuzzFamily:
    """A family over the kernels ``make(spec, block_steps, num_threads,
    backend)`` builds, each executed by ``run(kernel)``."""

    def build(spec, block_steps, num_threads, execution):
        if execution == "batched":
            kern = make(spec, block_steps, num_threads, "batched")
        else:
            kern = make(_serialize_spec(spec), block_steps, None, "interp")
        if execution == "threads":
            kern.loop = ThreadedLoop(kern.loop.specs, spec,
                                     num_threads=num_threads,
                                     execution="threads")
        return kern.loop, lambda: run(kern), kern.sim_body(SPR)

    return FuzzFamily(name, base, build, make)


def _gemm_family(name: str = "gemm", mlp: bool = False) -> FuzzFamily:
    from ..kernels.gemm import ParlooperGemm
    M = N = K = 64
    blk = 16
    rng = np.random.default_rng(0xC0FFEE)
    a = _int_array(rng, (M, K))
    b = _int_array(rng, (K, N))
    bias = _int_array(rng, (M,)) if mlp else None
    # k_step=1 keeps the K-block loop 'a' a real 4-trip reduction, so
    # capitalizing it is a genuine (detectable) race
    base = (LoopSpecs(0, K // blk, 1), LoopSpecs(0, M // blk, 1),
            LoopSpecs(0, N // blk, 1))

    def make(spec, block_steps, num_threads, backend):
        return ParlooperGemm(
            M, N, K, blk, blk, blk, k_step=1, spec_string=spec,
            num_threads=num_threads,
            block_steps=block_steps or ((), (), ()),
            activation="relu" if mlp else "none", bias=mlp,
            backend=backend)

    return _family(name, base, make, lambda k: k.run_flat(a, b, bias))


def _conv_family() -> FuzzFamily:
    from ..kernels.conv import ConvSpec, ParlooperConv
    cs = ConvSpec(N=2, C=32, K=32, H=6, W=6, R=3, S=3)
    w_step = 2
    rng = np.random.default_rng(0xBEEF)
    x = _int_array(rng, (cs.N, cs.C, cs.H, cs.W))
    wt = _int_array(rng, (cs.K, cs.C, cs.R, cs.S))
    base = (LoopSpecs(0, cs.N, 1), LoopSpecs(0, 2, 1), LoopSpecs(0, 2, 1),
            LoopSpecs(0, cs.P, 1), LoopSpecs(0, cs.Q, w_step),
            LoopSpecs(0, cs.R, cs.R), LoopSpecs(0, cs.S, cs.S))

    def make(spec, block_steps, num_threads, backend):
        return ParlooperConv(
            cs, bc=16, bk=16, w_step=w_step, spec_string=spec,
            num_threads=num_threads,
            block_steps=list(block_steps) if block_steps else None,
            backend=backend)

    return _family("conv", base, make, lambda k: k.run(x, wt))


def _spmm_family() -> FuzzFamily:
    from ..kernels.spmm import ParlooperSpmm
    from ..tpp.sparse import BCSCMatrix
    rng = np.random.default_rng(0xFEED)
    dense = _int_array(rng, (64, 64))
    for bi in range(4):          # knock out ~half the 16x16 blocks
        for bj in range(4):
            if rng.random() < 0.5:
                dense[bi * 16:(bi + 1) * 16, bj * 16:(bj + 1) * 16] = 0.0
    bmat = _int_array(rng, (64, 64))
    amat = BCSCMatrix.from_dense(dense, 16, 16)
    base = (LoopSpecs(0, amat.n_block_rows, 1), LoopSpecs(0, 4, 1))

    def make(spec, block_steps, num_threads, backend):
        return ParlooperSpmm(amat, 64, bn=16, spec_string=spec,
                             num_threads=num_threads,
                             block_steps=block_steps or ((), ()),
                             backend=backend)

    return _family("spmm", base, make, lambda k: k.run(bmat))


def default_families() -> tuple:
    return (_gemm_family(), _gemm_family("mlp", mlp=True),
            _conv_family(), _spmm_family())


# -- spec generation -------------------------------------------------------

def _valid_case(rng: random.Random, family: FuzzFamily):
    """A random valid (spec, block_steps, num_threads) for this family."""
    specs = family.base_specs
    chars = [chr(ord("a") + i) for i in range(len(specs))]
    letters: list = []
    blocks: list = []
    for ch, s in zip(chars, specs):
        trips = (s.bound - s.start) // s.step
        factors = [p * s.step for p in prefix_products(trips)]
        if factors and rng.random() < 0.3:
            blocks.append((rng.choice(factors),))
            letters.extend([ch, ch])
        else:
            blocks.append(())
            letters.append(ch)
    rng.shuffle(letters)

    num_threads = None
    directive = ""
    roll = rng.random()
    if roll < 0.1:
        pass                                         # serial instantiation
    elif roll < 0.65:                                # PAR-MODE 1: collapse
        start = rng.randrange(len(letters))
        width = 1
        if (start + 1 < len(letters) and letters[start + 1] != letters[start]
                and rng.random() < 0.5):
            width = 2
        for i in range(start, start + width):
            letters[i] = letters[i].upper()
        num_threads = rng.randint(2, 4)
        directive = rng.choice(_SCHEDULES)
    else:                                            # PAR-MODE 2: grid
        cands = []
        for ch, s, b in zip(chars, specs, blocks):
            step0 = b[0] if b else s.step
            t0 = (s.bound - s.start) // step0
            if t0 >= 2:
                cands.append((ch, t0))
        rng.shuffle(cands)
        take = 1 if len(cands) < 2 or rng.random() < 0.5 else 2
        for (ch, t0), axis in zip(cands[:take], ("R", "C")):
            ways = rng.randint(2, min(t0, 4))
            i = letters.index(ch)                    # grid occurrence 0
            letters[i] = f"{ch.upper()}{{{axis}:{ways}}}"

    if rng.random() < 0.2:
        letters[rng.randrange(len(letters))] += "|"

    spec = "".join(letters)
    if directive:
        spec += f" @ {directive}"
    return spec, tuple(blocks), num_threads


def _near_valid_spec(rng: random.Random, family: FuzzFamily) -> str:
    """A spec one mutation away from valid — must be rejected with a span."""
    n = len(family.base_specs)
    letters = [chr(ord("a") + i) for i in range(n)]
    rng.shuffle(letters)
    body = "".join(letters)
    kind = rng.randrange(8)
    i = rng.randrange(len(body))
    if kind == 0:
        return body[:i] + "?" + body[i:]                 # stray character
    if kind == 1 and n < 26:
        return body + chr(ord("a") + n)                  # undeclared loop
    if kind == 2 and n >= 2:
        return body.replace(body[i], "")                 # dropped loop
    if kind == 3 and n >= 3:
        return body[0].upper() + body[1:-1] + body[-1].upper()  # split caps
    if kind == 4:
        return body[:i + 1] + "{R:2}" + body[i + 1:]     # grid on lowercase
    if kind == 5:
        return body[:i] + body[i].upper() + "{C:2}" + body[i + 1:]  # bad axis
    if kind == 6:
        return body[:i] + body[i].upper() + "{R:997}" + body[i + 1:]  # ways
    if kind == 7:
        return body[:i] + body[i].upper() * 2 + body[i + 1:]  # doubled par
    return body + "?"


# -- case execution --------------------------------------------------------

def _run_valid_case(family: FuzzFamily, spec: str, blocks, num_threads,
                    res: FuzzResult) -> None:
    try:
        loop, run, sim_body = family.build(spec, blocks, num_threads,
                                           "threads")
    except SpecError as exc:
        res.span_failures.append(
            (spec, f"generator emitted a rejected spec: {exc}"))
        return

    cov = check_coverage(loop)
    if not cov.ok:
        res.coverage_failures.append((spec, cov.message))
        return

    races = detect_races(loop, sim_body)
    if any(r.kind == "BARRIER" for r in races):
        res.hazards += 1           # real threads would deadlock: skip
        return
    if races:
        res.racy += 1              # numerics legitimately diverge: skip
        return

    _loop, run_serial, _sb = family.build(spec, blocks, None, "serial")
    ref = run_serial()
    try:
        out = run()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        res.mismatches.append(
            (spec, f"threads run raised {type(exc).__name__}: {exc}"))
        return
    if np.array_equal(ref, out):
        res.passed += 1
    else:
        diff = float(np.max(np.abs(
            np.asarray(ref, dtype=np.float64) - np.asarray(out, np.float64))))
        res.mismatches.append(
            (spec, f"serial vs threads max abs diff {diff} "
                   f"(no race was reported)"))
        return

    if "|" not in spec:
        # barrier specs cannot instantiate on the serial nest the batched
        # build uses (serial emulation cannot interleave); the executor
        # falls back for them anyway, so there is nothing to cross-check
        _run_batched_oracle(family, spec, blocks, num_threads, ref, res)


def _run_batched_oracle(family: FuzzFamily, spec: str, blocks, num_threads,
                        ref, res: FuzzResult) -> None:
    """The backend oracle: the batched backend (tile-level executor or
    its interpreter fallback) must match the serial reference
    bit-exactly."""
    try:
        _loop, run, _sb = family.build(spec, blocks, num_threads,
                                       "batched")
        out = run()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        res.mismatches.append(
            (spec, f"batched backend raised {type(exc).__name__}: {exc}"))
        return
    if not np.array_equal(ref, out):
        diff = float(np.max(np.abs(
            np.asarray(ref, dtype=np.float64) - np.asarray(out, np.float64))))
        res.mismatches.append(
            (spec, f"serial vs batched backend max abs diff {diff}"))
        return
    res.backend_checked += 1


def _run_invalid_case(family: FuzzFamily, spec: str,
                      res: FuzzResult) -> None:
    try:
        ThreadedLoop(family.base_specs, spec, execution="threads")
    except SpecError as exc:
        if exc.spec and exc.span is not None and exc.render_caret():
            res.rejected += 1
        else:
            res.span_failures.append(
                (spec, f"rejected without a caret span: {exc!r}"))
    except Exception as exc:  # noqa: BLE001 - wrong error class is a bug
        res.span_failures.append(
            (spec, f"wrong error type {type(exc).__name__}: {exc}"))
    else:
        res.span_failures.append((spec, "malformed spec was accepted"))


def fuzz_family(family: FuzzFamily, cases: int | None = None, seed: int = 0,
                invalid_fraction: float = 0.25) -> FuzzResult:
    """Fuzz one family; deterministic for a given (family, seed, cases)."""
    if cases is None:
        cases = default_case_count()
    rng = random.Random(f"{seed}:{family.name}")
    res = FuzzResult(family.name)
    for _ in range(cases):
        res.cases += 1
        if rng.random() < invalid_fraction:
            _run_invalid_case(family, _near_valid_spec(rng, family), res)
        else:
            spec, blocks, num_threads = _valid_case(rng, family)
            _run_valid_case(family, spec, blocks, num_threads, res)
    return res


def run_fuzz(families=None, cases: int | None = None, seed: int = 0) -> list:
    """Fuzz every family; returns one :class:`FuzzResult` per family."""
    if families is None:
        families = default_families()
    return [fuzz_family(f, cases=cases, seed=seed) for f in families]


def dump_failures(results, path: str) -> int:
    """Write failing specs (tab-separated) to *path*; returns the count.

    CI uploads this file as an artifact so a red fuzz job carries its
    repro cases.
    """
    lines = []
    for r in results:
        for spec, why in r.failures():
            lines.append(f"{r.family}\t{spec}\t{why}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)
