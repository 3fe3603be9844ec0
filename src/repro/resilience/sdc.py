"""Seeded silent-data-corruption (SDC) injection.

A defective core does not crash: it returns wrong bits.  This module
models that failure mode with the same counter-keyed discipline as
:class:`repro.resilience.faults.FaultPlan` — every decision (which
kernel call, which tile, which element, which bit) is a pure function
of ``(seed, stream tag, counters)``, so any corruption a chaos sweep
finds replays from a single integer.

Two injection surfaces share one :class:`SdcPlan`:

* **kernel level** — an :class:`SdcInjector` installed via
  :func:`sdc_injection` flips a bit inside finalised output tiles.  Both
  kernel executors offer each tile a body call finalises, read off the
  kernel's block map (`repro.kernels.batched.offer_final_tiles`), in
  call order.  The flip is keyed on ``(call index, body index tuple)``
  and the tile-local flat element index, so the two backends corrupt
  the *same bit of the same element* — the property the differential
  tests rely on.
* **serve level** — the serving simulator prices tokens, it does not
  compute them, so :meth:`SdcPlan.step_corrupts` abstracts a corrupted
  step the way :meth:`FaultPlan.step_fails` abstracts a lost one, and
  :meth:`SdcPlan.correctable` draws whether ABFT could fix it in place
  (single-element) or must recompute the step (multi-element).

By default a flip targets the float32 exponent MSB (bit 30), which
provably moves any finite value by at least 2.0 (or lands on Inf/NaN)
— the "guaranteed detectable" setting the acceptance tests use.  Set
``bit`` explicitly to exercise mantissa flips near the ABFT threshold.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core.inject import clear_injector, set_injector
from .faults import hash01

__all__ = ["SdcPlan", "SdcInjector", "FlipRecord", "sdc_injection",
           "flip_bit", "EXPONENT_MSB"]

# stream tags (disjoint from the faults.py tags 11..43 and 47)
_TAG_TILE = 53
_TAG_ELEM = 59
_TAG_STEP = 61
_TAG_CORR = 67

#: float32 exponent MSB — flipping it changes any finite value by
#: at least 2.0 in magnitude (or produces Inf/NaN), so detection is
#: guaranteed for any sane ABFT threshold
EXPONENT_MSB = 30


def flip_bit(arr: np.ndarray, flat: int, bit: int):
    """Flip *bit* of element *flat* (C-order) of float32 array *arr*
    in place; returns ``(old, new)`` as float32 scalars.  Works on
    non-contiguous views (the interpreter hands out strided tiles)."""
    idx = np.unravel_index(flat, arr.shape)
    old = np.float32(arr[idx])
    new = (old.view(np.uint32) ^ np.uint32(1 << bit)).view(np.float32)
    arr[idx] = new
    return old, new


@dataclass(frozen=True)
class FlipRecord:
    """One injected flip, enough to replay or audit it."""

    call_index: int
    ind: tuple
    flat: int
    bit: int
    old: float
    new: float


@dataclass(frozen=True)
class SdcPlan:
    """A replayable silent-corruption scenario, pure in its fields.

    Kernel-level knobs drive :class:`SdcInjector`; serve-level knobs
    drive :meth:`step_corrupts` / :meth:`correctable` in the serving
    simulator.  A single plan may carry both (a fleet "bad core"
    scenario corrupts serve steps; a kernel chaos test flips tiles)."""

    seed: int = 0
    # -- kernel level ---------------------------------------------------
    #: per-finalised-tile corruption probability
    p_tile: float = 0.0
    #: cap on total flips per injector lifetime (None: unlimited)
    max_flips: int | None = None
    #: eligible tiles to pass over before the first flip — a seeded way
    #: to move a guaranteed single flip around the output
    skip: int = 0
    #: bit to flip (0-30 of the float32 container); None: exponent MSB.
    #: BF16 containers keep their low 16 bits zero, so meaningful BF16
    #: flips live in bits 16-30.
    bit: int | None = None
    #: kernel-call window ``[call_start, call_end)`` where injection is
    #: live (call indices count nest executions under one injector)
    call_start: int = 0
    call_end: float = math.inf
    # -- serve level ----------------------------------------------------
    #: flat per-step corruption probability
    p_step: float = 0.0
    #: windows raising the per-step probability to their ``value``
    step_windows: tuple = ()
    #: fraction of detected corruptions ABFT can fix in place
    #: (single-element); the rest force a step recompute
    p_correctable: float = 0.5

    # -- kernel-level queries -------------------------------------------
    def injects(self, call_index: int) -> bool:
        """Is injection live for nest execution *call_index*?"""
        return self.call_start <= call_index < self.call_end

    def tile_corrupts(self, call_index: int, ind: tuple) -> bool:
        """Does the tile finalised by body index *ind* of call
        *call_index* get a flip?  Counter-keyed: identical across
        backends and replays."""
        if self.p_tile <= 0.0:
            return False
        return hash01(self.seed, _TAG_TILE, call_index,
                      *ind) < self.p_tile

    def element_of(self, call_index: int, ind: tuple, size: int) -> int:
        """Seeded flat element index inside a tile of *size* elements."""
        rng = np.random.default_rng(
            (self.seed, _TAG_ELEM, call_index, *ind))
        return int(rng.integers(size))

    # -- serve-level queries --------------------------------------------
    def step_corrupts(self, step_index: int,
                      now_s: float | None = None) -> bool:
        """Does serving step *step_index* compute corrupt results?
        Keyed on the step index alone (windows only raise the
        probability), so a rolled-back step re-draws at its new index —
        the same discipline as :meth:`FaultPlan.step_fails`."""
        p = self.p_step
        if now_s is not None:
            for w in self.step_windows:
                if w.active(now_s):
                    p = max(p, w.value)
        if p <= 0.0:
            return False
        return hash01(self.seed, _TAG_STEP, step_index) < p

    def correctable(self, step_index: int) -> bool:
        """Is the corruption in *step_index* single-element (ABFT fixes
        it in place) rather than multi-element (recompute)?"""
        if self.p_correctable >= 1.0:
            return True
        return hash01(self.seed, _TAG_CORR,
                      step_index) < self.p_correctable

    def next_boundary(self, now_s: float) -> float | None:
        """Earliest finite step-window edge strictly after *now_s*."""
        edges = [t for w in self.step_windows
                 for t in (w.start_s, w.end_s)
                 if math.isfinite(t) and t > now_s]
        return min(edges) if edges else None

    # -- construction ---------------------------------------------------
    @classmethod
    def single_flip(cls, seed: int, skip: int | None = None,
                    bit: int | None = None) -> "SdcPlan":
        """Exactly one guaranteed flip, at a seed-chosen position: every
        finalised tile is a candidate (``p_tile=1``), the first ``skip``
        candidates are passed over, and the cap stops after one flip."""
        if skip is None:
            skip = int(np.random.default_rng(
                (seed, _TAG_TILE)).integers(8))
        return cls(seed=seed, p_tile=1.0, max_flips=1, skip=skip,
                   bit=bit)


class SdcInjector:
    """Mutable carrier of one injection run: counts kernel calls,
    applies the plan's flips, and records them for audit.

    Kernels announce each nest execution with :meth:`begin_call`, then
    offer every finalised output tile to :meth:`maybe_flip` with the
    body index tuple that finalised it — the same tuples, in the same
    order, from either backend, so both flip identically."""

    def __init__(self, plan: SdcPlan):
        self.plan = plan
        self.call_index = -1
        self.n_flips = 0
        self.flips: list[FlipRecord] = []
        self._skipped = 0

    def begin_call(self) -> int:
        """Announce one nest execution; returns its call index."""
        self.call_index += 1
        return self.call_index

    def maybe_flip(self, tile: np.ndarray, ind: tuple) -> bool:
        """Offer one finalised *tile*; flips it iff the plan says so."""
        plan, call = self.plan, self.call_index
        if call < 0 or not plan.injects(call):
            return False
        if plan.max_flips is not None and self.n_flips >= plan.max_flips:
            return False
        if not plan.tile_corrupts(call, ind):
            return False
        if self._skipped < plan.skip:
            self._skipped += 1
            return False
        flat = plan.element_of(call, ind, tile.size)
        bit = plan.bit if plan.bit is not None else EXPONENT_MSB
        old, new = flip_bit(tile, flat, bit)
        self.flips.append(FlipRecord(call, ind, flat, bit,
                                     float(old), float(new)))
        self.n_flips += 1
        return True


@contextmanager
def sdc_injection(plan: SdcPlan):
    """Install an :class:`SdcInjector` for *plan* over a ``with`` block;
    yields the injector (inspect ``.flips`` afterwards)."""
    injector = SdcInjector(plan)
    set_injector(injector)
    try:
        yield injector
    finally:
        clear_injector()
