"""The four ledger workloads.

Each workload is a fixed list of operation *kinds* that the runner issues
round-robin, one after another, from one process (a closed loop with one
client and no think time).  A workload object

* generates every random input from the seed when it is constructed,
  together with the independent references its checks compare against
  (benchmark-side work, not timed);
* builds the program's state in :meth:`setup` and runs one warm-up pass
  that fills lazy caches (timed as set-up);
* runs one operation per :meth:`run` call (timed), after an untimed
  :meth:`prepare` that resets what the operation must find cold;
* checks each output (:meth:`check`), condenses it to a deterministic
  summary for the output digest (:meth:`summary`) and to the few
  measured numbers its headline metrics need (:meth:`record`), and
  checks relations across kinds once the window closes
  (:meth:`cross_check`).

Why these four: ``kernels`` runs real numerics through core, tpp and
kernels and never touches the simulator; ``pricing`` is dominated by
engine trace capture and lock-step replay; ``tune`` uses the simulator
through the perf model, reuse distances and the learned screen, with no
engine replay; ``serving`` is pure serve/fleet event-loop work over
warmed cost models.  A change to one layer shows on the workloads that
use it and should read as no change on the others.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import statistics
import time

import numpy as np

# traced entry points are called through their modules, so that the span
# recorder's wrappers (rebound module attributes) see the calls
import repro.tuner
import repro.workloads
from repro.bench import PAPER
from repro.core import LoopSpecs, NestCache
from repro.core.batched import clear_enumeration_cache
from repro.core.cache import global_nest_cache
from repro.fleet import PoissonTrace
from repro.kernels import (ConvSpec, ParlooperConv, ParlooperGemm,
                           ParlooperMlp, ParlooperSpmm)
from repro.obs import ObsConfig
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.resilience import (FleetFaultPlan, ReplicaFault, ResilienceConfig,
                              check_fleet_invariants, check_invariants)
from repro.serve import ServeCostModel, ServeSimulator, TrafficGenerator
from repro.session import Session
from repro.simulator import TraceCache, brgemm_event
from repro.simulator.memo import global_trace_cache
from repro.tpp.backend.dispatch import global_dispatch_cache
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix
from repro.tuner import TuningConstraints
from repro.tuner.generator import generate_candidates
from repro.workloads import BERT_LARGE, GPTJ_6B, BertConfig, LlmConfig

__all__ = ["WORKLOADS", "reset_process_caches"]


def reset_process_caches() -> None:
    """Empty the program's process-wide caches, so each set-up starts
    cold apart from imported modules."""
    global_nest_cache().clear()
    global_trace_cache().clear()
    global_dispatch_cache().clear()
    clear_enumeration_cache()


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Workload:
    """Base: subclasses fill :attr:`kinds` and the hooks below."""

    name = ""
    kinds: tuple = ()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, kind: str):
        return None

    def run(self, kind: str, arg):
        raise NotImplementedError

    def check(self, kind: str, out) -> list:
        return []

    def summary(self, kind: str, out):
        """A JSON-able value that equal outputs, and only they, share."""
        raise NotImplementedError

    def record(self, kind: str, out) -> dict:
        return {}

    def cross_check(self, summaries: dict) -> list:
        return []

    def details(self, samples: dict, records: dict,
                summaries: dict) -> dict:
        """``{name: (value, unit, n)}``: the workload's own headline
        numbers, printed next to the end-to-end metrics.  *samples* and
        *records* map each kind to its per-operation wall times and
        :meth:`record` dicts; *summaries* to its first summary."""
        return {}


# -- kernels ------------------------------------------------------------------

class Kernels(Workload):
    """Real numerics through core -> tpp -> kernels.

    GEMMs on the batched and interpreter backends, BF16 with and without
    ABFT checksums, the Fig 3 MLP, an RN50-style 3x3 convolution, a
    block-sparse SpMM, and a compile phase that JITs distinct tuner
    candidates into a fresh nest cache.  Inputs are small integers, so
    every F32 result is exact and is compared for equality with a NumPy
    float64 reference; BF16 results must lie within
    ``BF16_BOUND * max|ref|`` of it."""

    name = "kernels"
    kinds = ("gemm.f32", "gemm.bf16", "gemm.bf16_abft", "gemm.interp_f32",
             "mlp.bf16", "conv.f32", "spmm.f32", "compile")
    #: BF16 stores round to 8 significant bits (2**-9 relative) at every
    #: K-step and layer; the bounds leave headroom over the worst error
    #: seen across seeds (GEMM ~2**-9, MLP ~2**-7)
    BF16_BOUND = {"gemm": 2.0 ** -6, "mlp": 2.0 ** -4}

    FULL = dict(gemm=1024, interp=512, mlp=1024, mlp_n=512, conv_n=4,
                conv_hw=56, spmm=1024, spmm_n=1024, compile=160)
    SMOKE = dict(gemm=256, interp=128, mlp=256, mlp_n=128, conv_n=1,
                 conv_hw=14, spmm=256, spmm_n=256, compile=40)

    def __init__(self, seed: int, smoke: bool):
        self.size = size = self.SMOKE if smoke else self.FULL
        rng = np.random.default_rng(_sub_seed(seed, 1))

        def ints(shape):
            return rng.integers(-2, 3, size=shape).astype(np.float32)

        def ref(a, b):
            return a.astype(np.float64) @ b

        g, i = size["gemm"], size["interp"]
        self.a, self.b = ints((g, g)), ints((g, g))
        self.ai, self.bi = ints((i, i)), ints((i, i))

        # MLP: weights and biases are multiples of 2**-5 / 2**-6 inside
        # BF16's exact range, so only activation stores round
        w, n = size["mlp"], size["mlp_n"]
        self.mlp_x = ints((w, n))
        self.mlp_w = [ints((w, w)) / 32 for _ in range(3)]
        self.mlp_b = [ints((w,)) / 64 for _ in range(3)]
        h = self.mlp_x.astype(np.float64)
        for wl, bl in zip(self.mlp_w, self.mlp_b):
            h = np.maximum(ref(wl, h) + bl[:, None], 0.0)

        cn, hw = size["conv_n"], size["conv_hw"]
        self.conv_x = ints((cn, 64, hw + 2, hw + 2))
        self.conv_w = ints((64, 64, 3, 3))
        conv = np.zeros((cn, 64, hw, hw))
        for r in range(3):
            for s in range(3):
                conv += np.einsum("nchw,kc->nkhw",
                                  self.conv_x[:, :, r:r + hw, s:s + hw],
                                  self.conv_w[:, :, r, s].astype(np.float64))

        m, sn = size["spmm"], size["spmm_n"]
        keep = rng.random((m // 32, m // 32)) >= 0.8      # 80 % sparse
        self.spmm_a = ints((m, m)) * np.kron(keep, np.ones((32, 32),
                                                           np.float32))
        self.spmm_b = ints((m, sn))

        gemm = ref(self.a, self.b)
        self.ref = {"gemm.f32": gemm, "gemm.bf16": gemm,
                    "gemm.bf16_abft": gemm,
                    "gemm.interp_f32": ref(self.ai, self.bi),
                    "mlp.bf16": h, "conv.f32": conv,
                    "spmm.f32": ref(self.spmm_a, self.spmm_b)}

        kb = g // 32
        self.cand_specs = [LoopSpecs(0, kb, 1), LoopSpecs(0, kb, 1),
                           LoopSpecs(0, kb, 1)]
        self.candidates = generate_candidates(
            self.cand_specs, TuningConstraints(
                max_occurrences={"a": 2, "b": 2, "c": 2},
                parallelizable=frozenset({"b", "c"}),
                max_candidates=size["compile"],
                seed=_sub_seed(seed, 2)))

    def setup(self) -> None:
        g, size = self.size["gemm"], self.size
        self.k = {}
        for kind, dtype, abft in (("gemm.f32", DType.F32, "off"),
                                  ("gemm.bf16", DType.BF16, "off"),
                                  ("gemm.bf16_abft", DType.BF16, "detect")):
            kern = ParlooperGemm(g, g, g, 32, 32, 32, k_step=4, dtype=dtype,
                                 backend="batched", abft=abft)
            self.k[kind] = (kern, kern.pack_a(self.a), kern.pack_b(self.b),
                            kern.alloc_c())
        i = size["interp"]
        kern = ParlooperGemm(i, i, i, 32, 32, 32, k_step=4)
        self.k["gemm.interp_f32"] = (kern, kern.pack_a(self.ai),
                                     kern.pack_b(self.bi), kern.alloc_c())
        mlp = ParlooperMlp([size["mlp"]] * 4, size["mlp_n"], bm=16, bn=16,
                           bk=16, dtype=DType.BF16, backend="batched")
        for l, (layer, wl) in enumerate(zip(mlp.layers, self.mlp_w)):
            mlp.weights[l] = layer.gemm.pack_a(wl)
            mlp.biases[l] = self.mlp_b[l]
        self.k["mlp.bf16"] = (mlp,)
        hw = size["conv_hw"]
        conv = ParlooperConv(ConvSpec(size["conv_n"], 64, 64, hw + 2, hw + 2),
                             bc=64, bk=64, backend="batched")
        self.k["conv.f32"] = (conv, conv.pack_input(self.conv_x),
                              conv.pack_weights(self.conv_w),
                              conv.alloc_output())
        spmm = ParlooperSpmm(BCSCMatrix.from_dense(self.spmm_a, 32, 32),
                             size["spmm_n"], bn=64, backend="batched")
        self.k["spmm.f32"] = (spmm, spmm.pack_b(self.spmm_b), spmm.alloc_c())
        for kind in self.kinds:               # warm-up pass
            self.run(kind, None)

    def run(self, kind: str, arg):
        if kind == "compile":
            cache = NestCache()
            loops, times = [], []
            for cand in self.candidates:
                t0 = time.perf_counter()
                loops.append(cand.build_loop(self.cand_specs, cache=cache))
                times.append(time.perf_counter() - t0)
            return cache, loops, times
        kern, *args = self.k[kind]
        if kind == "mlp.bf16":
            return kern.forward(self.mlp_x)
        return kern(*args)

    def _result(self, kind, out):
        if kind.startswith("gemm"):
            return self.k[kind][0].unpack_c(out)
        if kind == "conv.f32":
            return self.k[kind][0].unpack_output(out)
        return out

    def check(self, kind: str, out) -> list:
        if kind == "compile":
            cache = out[0]
            n = len(self.candidates)
            if cache.misses != n or len(cache) != n:
                return [f"compile: {n} candidates gave {cache.misses} "
                        f"misses / {len(cache)} nests"]
            return []
        got, ref = self._result(kind, out), self.ref[kind]
        if "bf16" not in kind:
            if not np.array_equal(got, ref.astype(np.float32)):
                return [f"{kind}: differs from the float64 reference"]
            return []
        bound = self.BF16_BOUND[kind.split(".")[0]] * np.abs(ref).max()
        err = float(np.abs(got - ref).max())
        if not err <= bound:
            return [f"{kind}: max error {err:.4g} > BF16 bound {bound:.4g}"]
        return []

    def summary(self, kind: str, out):
        h = hashlib.blake2b(digest_size=16)
        if kind == "compile":
            for loop in out[1]:
                h.update(loop.generated_source.encode())
        else:
            h.update(np.ascontiguousarray(self._result(kind, out)).data)
        return h.hexdigest()

    def record(self, kind: str, out) -> dict:
        return {"compile_s": out[2]} if kind == "compile" else {}

    def details(self, samples: dict, records: dict,
                summaries: dict) -> dict:
        flops = {kind: (kern.actual_flops if kind == "spmm.f32"
                        else kern.flops)
                 for kind, (kern, *_args) in self.k.items()}
        work = sum(flops[k] * len(samples[k]) for k in flops)
        wall = sum(sum(samples[k]) for k in flops)
        compile_ms = [t * 1e3 for rec in records["compile"]
                      for t in rec["compile_s"]]
        out = {"kernels.gflops": (work / wall / 1e9 if wall else 0.0,
                                  "GFLOP/s",
                                  sum(len(samples[k]) for k in flops)),
               "kernels.compile_ms_p50": (_median(compile_ms), "ms",
                                          len(compile_ms))}
        if len(compile_ms) >= 100:
            out["kernels.compile_ms_p90"] = (
                statistics.quantiles(compile_ms, n=10)[-1], "ms",
                len(compile_ms))
        return out


# -- pricing ------------------------------------------------------------------

class Pricing(Workload):
    """Paper workloads priced from cold cost models (Fig 11, Fig 9).

    Every operation prices one configuration with a fresh cost model and
    an empty process trace cache, as a fresh Fig 9/11 regeneration does,
    so engine trace capture and lock-step replay dominate.  GPT-J-6B is
    priced on SPR in BF16 and F32 and a BERT-Large fine-tuning step on
    SPR for PARLOOPER and the static-loop TPP stack.  The prompt (128
    tokens instead of Fig 11's 1024) and the BERT batch (4 instead of
    32) are cut so one configuration prices in about a second and a run
    holds several passes; the paper's who-wins orderings still hold at
    these sizes.  Pricing is deterministic; the seed is only recorded."""

    name = "pricing"
    kinds = ("fig11.spr.parlooper.bf16", "fig11.spr.parlooper.f32",
             "fig9.spr.parlooper", "fig9.spr.tpp_static")

    def __init__(self, seed: int, smoke: bool):
        if smoke:
            self.llm = LlmConfig("gptj-smoke", 28, 1024, 16, 4096, 50400)
            self.prompt = 256
            self.bert = BertConfig("bert-smoke", 24, 256, 4, 1024)
            self.bert_shape = dict(batch=8, seq=128)
        else:
            self.llm, self.prompt = GPTJ_6B, 128
            self.bert, self.bert_shape = BERT_LARGE, dict(batch=4)

    def setup(self) -> None:
        # warm-up: the same code paths on small models
        tiny = LlmConfig("tiny", 2, 256, 4, 1024, 1000)
        for dtype in (DType.BF16, DType.F32):
            repro.workloads.llm_inference_latency(tiny, SPR, "parlooper",
                                                  dtype, prompt=128)
        tiny_bert = BertConfig("tiny", 2, 256, 4, 1024)
        for stack in ("parlooper", "tpp_static"):
            repro.workloads.bert_training_performance(tiny_bert, SPR, stack,
                                                     batch=4, seq=64)

    def prepare(self, kind: str):
        global_trace_cache().clear()
        gc.collect()

    def run(self, kind: str, arg):
        _fig, _machine, stack, *dtype = kind.split(".")
        if dtype:
            lat = repro.workloads.llm_inference_latency(
                self.llm, SPR, stack,
                DType.BF16 if dtype == ["bf16"] else DType.F32,
                prompt=self.prompt)
            return (lat.first_token_s, lat.per_next_token_s)
        return (repro.workloads.bert_training_performance(
            self.bert, SPR, stack, **self.bert_shape),)

    def check(self, kind: str, out) -> list:
        if not all(math.isfinite(v) and v > 0 for v in out):
            return [f"{kind}: price {out} is not finite and positive"]
        return []

    def summary(self, kind: str, out):
        return [repr(v) for v in out]

    def _claims(self, summaries: dict) -> dict:
        """``{claim: (simulated, paper)}`` for the claims whose inputs
        ran."""
        got = {k: [float(v) for v in s] for k, s in summaries.items()}
        claims = {}
        bf16 = got.get("fig11.spr.parlooper.bf16")
        f32 = got.get("fig11.spr.parlooper.f32")
        if bf16 and f32:
            claims["fig11.bf16_first_token"] = (
                f32[0] / bf16[0], PAPER["fig11"]["bf16_first_token"])
            claims["fig11.bf16_next_token"] = (
                f32[1] / bf16[1], PAPER["fig11"]["bf16_next_token"])
        pl = got.get("fig9.spr.parlooper")
        st = got.get("fig9.spr.tpp_static")
        if pl:
            claims["fig9.spr_parlooper"] = (
                pl[0], PAPER["fig9"]["spr_parlooper"])
        if pl and st:
            claims["fig9.vs_tpp_static"] = (
                pl[0] / st[0], PAPER["fig9"]["vs_tpp_static"])
        return claims

    def cross_check(self, summaries: dict) -> list:
        """Who wins, as in the paper: BF16 beats F32 on both tokens and
        helps the compute-bound first token more; PARLOOPER beats the
        static-loop TPP stack."""
        claims = self._claims(summaries)
        errs = []
        if "fig11.bf16_first_token" in claims:
            first = claims["fig11.bf16_first_token"][0]
            nxt = claims["fig11.bf16_next_token"][0]
            if not first > nxt > 1.0:
                errs.append(f"fig11: BF16 speedups first {first:.3f} / "
                            f"next {nxt:.3f} break first > next > 1")
        if "fig9.vs_tpp_static" in claims:
            ratio = claims["fig9.vs_tpp_static"][0]
            if not ratio > 1.0:
                errs.append(f"fig9: PARLOOPER / tpp_static = {ratio:.3f} "
                            "is not > 1")
        return errs

    def details(self, samples: dict, records: dict,
                summaries: dict) -> dict:
        claims = self._claims(summaries)
        err = statistics.fmean(abs(math.log(sim / paper))
                               for sim, paper in claims.values()) \
            if claims else 0.0
        return {"pricing.sweep_s": (sum(_median(s) for s in
                                        samples.values()), "s",
                                    min(len(s) for s in samples.values())),
                "pricing.paper_log_err": (err, "", len(claims))}


# -- tune ---------------------------------------------------------------------

class Tune(Workload):
    """``tune()`` on Fig 4 GEMM testbed shapes, guided and exhaustive.

    Guided jobs (learned screen + beam, 32 exact evaluations, a
    400-candidate pool) run on SPR, GVT3, Zen4 and ADL; exhaustive jobs
    on SPR and ADL are the oracle the guided top-1 score must match.
    Every job gets a fresh trace cache; evaluation goes through the perf
    model with 2 sampled threads (no engine replay).  The 512^3 and
    1024^3 shapes keep a pass short enough for several per run.
    Deterministic; the seed is only recorded."""

    name = "tune"
    MACHINES = {m.name: m for m in (SPR, GVT3, ZEN4, ADL)}
    ORACLE = ("SPR", "ADL")

    def __init__(self, seed: int, smoke: bool):
        self.shapes = (256, 512) if smoke else (512, 1024)
        self.pool = 100 if smoke else 400
        self.budget = 16 if smoke else 32
        self.kinds = tuple(
            f"{strategy}.{d}.{m}" for d in self.shapes
            for strategy, machines in (("guided", self.MACHINES),
                                       ("exhaustive", self.ORACLE))
            for m in machines)

    def _job(self, d: int, machine):
        bm = bn = bk = 64
        kb = mb = nb = d // 64
        specs = [LoopSpecs(0, kb, kb), LoopSpecs(0, mb, 1),
                 LoopSpecs(0, nb, 1)]
        cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                                 parallelizable=frozenset({"b", "c"}),
                                 max_candidates=self.pool)

        def body(ind):
            _ik, im, inn = ind
            return brgemm_event(machine, DType.F32, bm, bn, bk, kb,
                                [("A", im, k) for k in range(kb)],
                                [("B", inn, k) for k in range(kb)],
                                ("C", inn, im), beta=1.0, c_first_touch=True)

        return specs, dict(machine=machine, sim_body=body, constraints=cons,
                           num_threads=112, sample_threads=2,
                           total_flops=2.0 * d ** 3)

    def setup(self) -> None:
        self.jobs = {}
        for kind in self.kinds:
            _strategy, d, m = kind.split(".")
            self.jobs[kind] = self._job(int(d), self.MACHINES[m])
        # warm-up: JIT every pool candidate's nest once per shape
        for d in self.shapes:
            specs, shared = self.jobs[f"guided.{d}.SPR"]
            for cand in generate_candidates(specs, shared["constraints"]):
                cand.build_loop(specs, num_threads=shared["num_threads"])

    def run(self, kind: str, arg):
        specs, shared = self.jobs[kind]
        if kind.startswith("guided"):
            return repro.tuner.tune(specs, strategy="guided",
                                    exact_budget=self.budget,
                                    trace_cache=TraceCache(), **shared)
        return repro.tuner.tune(specs, strategy="exhaustive",
                                trace_cache=TraceCache(), **shared)

    def check(self, kind: str, out) -> list:
        errs = []
        if not out.outcomes:
            errs.append(f"{kind}: no valid candidate")
        if out.failures:
            errs.append(f"{kind}: {len(out.failures)} evaluations failed")
        if kind.startswith("guided") and out.n_exact_evals > self.budget:
            errs.append(f"{kind}: {out.n_exact_evals} exact evaluations "
                        f"exceed the budget {self.budget}")
        return errs

    def summary(self, kind: str, out):
        return [out.best.candidate.label(), repr(out.best.score),
                out.n_exact_evals, out.n_model_evals]

    def record(self, kind: str, out) -> dict:
        return {"exact_evals": out.n_exact_evals}

    def cross_check(self, summaries: dict) -> list:
        """The guided top-1 score equals the exhaustive one (labels may
        differ across exact ties)."""
        errs = []
        for d in self.shapes:
            for m in self.ORACLE:
                g = summaries.get(f"guided.{d}.{m}")
                e = summaries.get(f"exhaustive.{d}.{m}")
                if g and e and g[1] != e[1]:
                    errs.append(f"tune {d}^3 on {m}: guided best {g[1]} != "
                                f"exhaustive best {e[1]}")
        return errs

    def details(self, samples: dict, records: dict,
                summaries: dict) -> dict:
        evals = sum(r["exact_evals"] for k, recs in records.items()
                    if k.startswith("exhaustive") for r in recs)
        wall = sum(sum(s) for k, s in samples.items()
                   if k.startswith("exhaustive"))
        guided = [t for k, s in samples.items() if k.startswith("guided")
                  for t in s]
        return {"tune.cands_per_s": (evals / wall if wall else 0.0, "1/s",
                                     evals),
                "tune.guided_s_p50": (_median(guided), "s", len(guided))}


# -- serving ------------------------------------------------------------------

class Serving(Workload):
    """The serve and fleet event loops over warmed cost models.

    ``serve``: one ServeSimulator (tiny 2-layer decoder on SPR) over
    open-loop Poisson arrivals at 2000 req/s: deep batches on one
    replica.  ``fleet``: six SPR replicas behind the default guard
    (detection, breakers, hedging, retry budget), gray faults (two
    slowdowns, a flaky window, a partition, 1 % probe loss) and Poisson
    arrivals at 150 req/s: shallow batches on many replicas.  The fault
    windows overlap within the fleet trace's ten simulated seconds.
    Arrivals are in simulated time only; nothing is scheduled on the
    wall clock.  The seed draws both traces and the probe-loss draws."""

    name = "serving"
    kinds = ("serve", "fleet")
    SERVE_CFG = LlmConfig("tiny", layers=2, hidden=256, heads=8,
                          intermediate=512, vocab=4096)
    FLEET_CFG = LlmConfig("tiny", layers=4, hidden=256, heads=8,
                          intermediate=1024, vocab=8192)

    def __init__(self, seed: int, smoke: bool):
        n_serve, n_fleet = (1000, 300) if smoke else (5000, 1500)
        self.serve_reqs = TrafficGenerator(
            rate_rps=2000.0, seed=_sub_seed(seed, 1), mean_prompt=96,
            max_prompt=512, mean_new_tokens=12,
            max_new_tokens=48).generate(n_serve)
        self.fleet_reqs = PoissonTrace(
            seed=_sub_seed(seed, 2), n_requests=n_fleet, rate_rps=150,
            mean_prompt=384, max_prompt=1024, mean_new_tokens=48,
            max_new_tokens=160).generate()
        self.faults = FleetFaultPlan(seed=_sub_seed(seed, 3), grays=(
            ReplicaFault(replica=0, at_s=0.25, kind="slowdown", until_s=4.5,
                         value=600.0),
            ReplicaFault(replica=1, at_s=3.5, kind="slowdown", until_s=7.5,
                         value=400.0),
            ReplicaFault(replica=2, at_s=5.5, kind="flaky", until_s=8.5,
                         value=0.3),
            ReplicaFault(replica=3, at_s=2.0, kind="partition", until_s=4.0),
        ), p_probe_loss=0.01)

    def setup(self) -> None:
        self.cost = ServeCostModel.for_stack(self.SERVE_CFG, SPR)
        self.costs: dict = {}
        # warm-up: prices the engine anchors and the common step shapes
        self.run("serve", copy.deepcopy(self.serve_reqs[:1000]))
        self.run("fleet", copy.deepcopy(self.fleet_reqs[:300]))

    def prepare(self, kind: str):
        reqs = self.serve_reqs if kind == "serve" else self.fleet_reqs
        return copy.deepcopy(reqs)            # a run mutates its requests

    def run(self, kind: str, arg):
        if kind == "serve":
            sim = ServeSimulator(self.SERVE_CFG, SPR, mem_fraction=0.01,
                                 cost=self.cost)
            return len(arg), sim, sim.run(arg)
        fleet = Session(obs=ObsConfig.disabled()).fleet(
            self.FLEET_CFG, machines="homo6", router="round_robin",
            faults=self.faults,
            resilience=ResilienceConfig(deadline_s=120.0, degrade=None),
            mem_fraction=0.02, guard="default", costs=self.costs)
        return len(arg), fleet, fleet.run(arg, keep_requests=True)

    def check(self, kind: str, out) -> list:
        n, sim, report = out
        s = report.summary
        if kind == "serve":
            errs = check_invariants(sim, report)
            if s.n_terminal != n:
                errs.append(f"{s.n_terminal} terminal != {n} injected")
        else:
            errs = check_fleet_invariants(sim, report)
            if not s.n_terminal == s.n_injected == n:
                errs.append(f"{s.n_terminal} terminal / {s.n_injected} "
                            f"injected != {n}")
        return [f"{kind}: {e}" for e in errs[:5]]

    def summary(self, kind: str, out):
        return out[2].summary.to_dict()

    def record(self, kind: str, out) -> dict:
        return {"terminal": out[2].summary.n_terminal}

    def details(self, samples: dict, records: dict,
                summaries: dict) -> dict:
        out = {}
        for kind in self.kinds:
            reqs = sum(r["terminal"] for r in records[kind])
            wall = sum(samples[kind])
            out[f"{kind}.req_per_s"] = (reqs / wall if wall else 0.0, "1/s",
                                        len(samples[kind]))
        return out


WORKLOADS = {w.name: w for w in (Kernels, Pricing, Tune, Serving)}
