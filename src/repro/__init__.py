"""PARLOOPER/TPP reproduction.

A from-scratch Python implementation of *"Harnessing Deep Learning and
HPC Kernels via High-Level Loop and Tensor Abstractions on CPU
Architectures"* (Georganas et al., IPDPS 2024):

* :mod:`repro.core` — PARLOOPER: declarative logical loops + the
  ``loop_spec_string`` knob, JIT loop-nest generation with caching;
* :mod:`repro.tpp` — the Tensor Processing Primitives collection
  (BRGEMM, elementwise, normalisation, Block-SpMM/BCSC, layout
  transforms) with BF16 emulation and an ISA-aware backend;
* :mod:`repro.platform` / :mod:`repro.simulator` — machine models of the
  paper's testbeds and the trace-driven performance substrate (the §II-E
  methodology, as both the lightweight Box-B3 model and the richer
  measurement engine);
* :mod:`repro.tuner` — the Box-B2 auto-tuning infrastructure;
* :mod:`repro.kernels` — GEMM / MLP / convolution / Block-SpMM kernels
  (Listings 1, 4, 5);
* :mod:`repro.workloads` — BERT, sparse BERT, GPT-J/Llama2 inference,
  ResNet-50, block pruning + distillation;
* :mod:`repro.baselines` — modeled comparators (oneDNN, AOCL, TVM, Mojo,
  HF/IPEX stacks, DeepSparse);
* :mod:`repro.serve` — LLM inference serving: synthetic traffic,
  continuous batching, paged KV-cache pool, SLO-aware scheduling over
  the same cost substrate;
* :mod:`repro.verify` — nest verification: static race detection over
  tensor-slice traces, iteration-space coverage proofs, and a seeded
  differential spec fuzzer.
"""

from .core import LoopSpecs, SpecError, ThreadedLoop
from .kernels import (ConvSpec, ParlooperConv, ParlooperGemm, ParlooperMlp,
                      ParlooperSpmm)
from .obs import ObsConfig
from .platform import ADL, GVT3, SPR, ZEN4, MachineModel
from .serve import ServeSimulator, TrafficGenerator
from .fleet import FleetSimulator
from .session import Session, default_session, predict, simulate, tune
from .tpp import BCSCMatrix, BRGemmTPP, DType, Precision, Ptr
from .tuner import TuneReport, TuningConstraints
from .verify import (check_coverage, detect_races, run_fuzz, verify_nest,
                     VerificationError)

__version__ = "1.15.0"

__all__ = [
    # facade
    "Session", "ObsConfig", "default_session",
    # core
    "ThreadedLoop", "LoopSpecs", "SpecError",
    # kernels
    "ParlooperGemm", "ParlooperMlp", "ParlooperConv", "ParlooperSpmm",
    "ConvSpec",
    # tpp
    "BRGemmTPP", "BCSCMatrix", "DType", "Precision", "Ptr",
    # platform
    "MachineModel", "SPR", "GVT3", "ZEN4", "ADL",
    # simulator (default-session wrappers)
    "simulate", "predict",
    # serve
    "ServeSimulator", "TrafficGenerator",
    # fleet
    "FleetSimulator",
    # tuner
    "TuningConstraints", "TuneReport", "tune",
    # verify
    "verify_nest", "detect_races", "check_coverage", "run_fuzz",
    "VerificationError",
    "__version__",
]
