"""The kernel protocol shared by the GEMM, conv and SpMM families.

In the paper each body call is one TPP call on block addresses
(Listings 1, 4, 5).  A family writes those addresses once, in
``block_map(ind)``: plain index arithmetic that maps one body index to
its :class:`BlockMap`, or one index column per loop to the maps of a
whole run of calls.  The interpreter, the batched executor all families
share (:mod:`repro.kernels.batched`), the SDC final-tile offer,
``sim_body`` and the column capture it hands the trace cache read it.
:class:`ParlooperKernel` owns the knobs, the executor choice, the ABFT
ladder and session-routed ``simulate`` / ``predict``.  Besides its
loops, ``kind`` and ``block_map``, a family supplies ``_blocks(*ops)``
(its ``__call__`` operands as input and output arrays of blocks),
``_tpp_call`` (one call's TPPs), ``_tpp_batched`` / ``_epilogue`` where
its body is not one bare BRGEMM, ``_layout_gate``, ``tensors`` /
``_slices`` / ``_events`` / ``_key_fields`` for the simulator, and
``_checksum`` / ``_correct`` for ABFT.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from ..core.batched import enumerate_inds, resolve_backend
from ..core.errors import SdcDetectedError
from ..core.inject import active_injector
from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from ..platform.machine import MachineModel
from ..simulator.columns import CallColumns
from ..simulator.engine import SimResult
from ..tpp.batched import batched_brgemm
from .abft import record_abft_outcome, resolve_abft
from .batched import batched_ok, offer_final_tiles, run_batched

__all__ = ["ParlooperKernel", "BlockMap"]


class BlockMap(NamedTuple):
    """A body call's block addresses: ``reads[j]``, the coordinates of
    the blocks it reads from input ``j``; ``write``, those of the output
    block; ``first`` / ``last``, whether it starts (zeroes) or finishes
    (epilogue, SDC offer) that block.  From index columns every entry is
    a column, and ragged reads pad to the longest call with ``count``."""

    reads: tuple
    write: tuple
    first: object
    last: object
    count: object = None


def _session(session):
    """*session*, or the default one: the session a kernel call caches
    through and reports into."""
    from ..session import resolve_session  # deferred: the facade sits
    return resolve_session(session)        # above the kernels


class ParlooperKernel:
    """Shared scaffolding of one kernel family; see the module docstring
    for what a family supplies."""

    #: the ``kernel`` label of the family's obs counters
    kind = ""

    def __init__(self, specs, spec_string: str, num_threads: int | None,
                 backend: str, abft: str):
        self.abft = resolve_abft(abft)
        self.backend = resolve_backend(backend)
        self.loop = ThreadedLoop(specs, spec_string, num_threads=num_threads)
        self._sim_bodies: dict = {}

    @property
    def num_threads(self) -> int:
        return self.loop.num_threads

    @property
    def spec_string(self) -> str:
        return self.loop.spec_string

    # -- functional execution ----------------------------------------------
    def _compute(self, *ops) -> None:
        """Execute the nest on *ops*; with ``abft`` on, verify the output
        and climb the ladder: raise (``"detect"``), repair in place, or
        recompute the whole nest once."""
        self._execute(*ops)
        if self.abft == "off":
            return
        check = self._checksum(*ops)
        if not check.corrupt:
            return
        record_abft_outcome(self.kind, "detected")
        if self.abft == "detect":
            raise SdcDetectedError(
                f"ABFT detected corruption: {check.describe()}",
                check=check)
        if self._correct(check, *ops):
            record_abft_outcome(self.kind, "corrected")
            return
        self._execute(*ops)
        record_abft_outcome(self.kind, "recomputed")
        check = self._checksum(*ops)
        if check.corrupt:
            raise SdcDetectedError(
                "ABFT recompute is still corrupt: " + check.describe(),
                check=check)

    def _execute(self, *ops) -> None:
        """One nest execution: the batched executor when the plan allows
        it, else the interpreter, counted on ``batched_exec`` for
        batched kernels.  Either way an active SDC injector is offered
        every output tile a call finalises."""
        injector = active_injector()
        if injector is not None:
            injector.begin_call()
        if self.backend == "batched":
            ok, reason = batched_ok(self)
            if _obs().enabled:
                _obs().inc("batched_exec", kernel=self.kind,
                           outcome="lowered" if ok else "fallback",
                           **({"reason": reason} if reason else {}))
            if ok:
                run_batched(self, *ops)
                return
        ins, out = self._blocks(*ops)

        def body(ind):
            m = self.block_map(ind)
            tile = out[m.write]
            self._tpp_call(m, ins, tile, *ops)
            if injector is not None:
                offer_final_tiles(injector, out, (m.write,), (m.last,),
                                  (ind,))

        self.loop(body)

    def _tpp_batched(self, reads, old):
        tpp = self.brgemm_tpp
        return batched_brgemm(*reads, old, tpp.beta, tpp.precision)

    def _epilogue(self, stored, write, *ops):
        return stored

    #: why the family's operand layout keeps the batched executor off
    _layout_gate = ""

    def _correct(self, check, *ops) -> bool:
        """Repair *check*'s corruption in place; False when the family's
        checksum cannot locate it."""
        return False

    # -- performance -------------------------------------------------------
    @property
    def _score_flops(self) -> int:
        """The flop count :meth:`predict` scores against."""
        return self.flops

    def _slices(self, m: BlockMap) -> tuple:
        """The cache slices a call of block map *m* charges, one list of
        coordinates per input: by default the blocks it reads."""
        return m.reads

    def sim_body(self, machine: MachineModel, names=None):
        """Simulator description of one body call, read off the slices
        of its block map.  *names* relabel the tensors: an MLP layer
        passes its weights and the activations it reads and writes, so
        the engine sees one layer's output as the next layer's input.

        The body also carries ``call_columns(loop, tids)``, the same
        calls of many threads at once, which the trace cache compiles
        without running the nest (:mod:`repro.simulator.columns`)."""
        names = names or self.tensors

        def body(ind):
            m = self.block_map(ind)
            keys = [[(t, *map(int, c)) for c in r]
                    for t, r in zip(names, self._slices(m))]
            return self._events(machine, keys, (names[-1], *m.write),
                                m.first, m.last)
        body.call_columns = partial(self._call_columns, machine, names)
        return body

    def _call_columns(self, machine: MachineModel, names, loop,
                      tids) -> CallColumns:
        """The body calls of threads *tids* of *loop*: one enumeration of
        their indices, one block map over it, and one ``_events`` call
        per call shape ``(count, first, last)``, with slot numbers for
        keys and each slice list cut to the call's ``count``."""
        inds, counts = enumerate_inds(loop.plan, loop.num_threads, tids)
        n = len(inds)
        m = self.block_map(inds.T)
        slots, reads = [], []
        for t, r in zip(names, self._slices(m)):
            reads.append(range(len(slots), len(slots) + len(r)))
            slots.extend((t, c) for c in r)
        slots.append((names[-1], m.write))
        count = max(map(len, reads)) if m.count is None else m.count
        shapes, shape = np.unique(4 * np.broadcast_to(count, n)
                                  + 2 * np.broadcast_to(m.first, n)
                                  + np.broadcast_to(m.last, n),
                                  return_inverse=True)
        templates = tuple(
            self._events(machine, [r[:s >> 2] for r in reads],
                         len(slots) - 1, bool(s & 2), bool(s & 1))
            for s in shapes.tolist())
        return CallColumns(counts, shape, templates, tuple(slots))

    def _cached_sim_body(self, machine: MachineModel, *sim_args):
        """One closure per (machine, sim args): repeated simulate/predict
        calls present a stable body identity to the trace cache."""
        key = (machine.name, *sim_args)
        body = self._sim_bodies.get(key)
        if body is None:
            body = self._sim_bodies[key] = self.sim_body(machine, *sim_args)
        return body

    def _body_key(self, machine: MachineModel, *sim_args) -> tuple:
        """Trace-cache key naming everything the body's events depend on
        (so equal-shape kernel instances share captured traces)."""
        return (type(self).__name__, *self._key_fields(), *sim_args,
                machine.name)

    def simulate(self, machine: MachineModel, session=None) -> SimResult:
        """Engine simulation through a session (the default one if None),
        so runs share its trace cache and report into its tracer."""
        return _session(session).simulate(
            self.loop, self._cached_sim_body(machine), machine,
            body_key=self._body_key(machine))

    def predict(self, machine: MachineModel, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`
        (:class:`~repro.simulator.perfmodel.PerfPrediction`)."""
        return self._predict(machine, session, sample_threads)

    def _predict(self, machine, session, sample_threads, *sim_args):
        return _session(session).predict(
            self.loop, self._cached_sim_body(machine, *sim_args), machine,
            sample_threads=sample_threads,
            total_flops=float(self._score_flops),
            body_key=self._body_key(machine, *sim_args))
