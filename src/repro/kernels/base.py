"""The kernel protocol shared by the GEMM, conv and SpMM families.

A kernel in the paper is a loop declaration, a spec string and a TPP
body (Listings 1, 4, 5).  :class:`ParlooperKernel` owns everything
around those: the ``backend`` / ``num_threads`` / ``abft`` knobs, the
choice between the batched executor and the interpreter, SDC injector
arming, the ABFT detect → correct → recompute ladder, the simulator-body
cache and session-routed :meth:`~ParlooperKernel.simulate` /
:meth:`~ParlooperKernel.predict`.  A family supplies

* its loop declaration, passed to ``__init__``, and ``kind``, the
  ``kernel`` label of its ``batched_exec`` / ``sdc_events`` counters;
* ``_interp_body(*ops)``, the interpreter body of one call, and
  ``_final_tile(*ops)``, which maps a body index to the output tile it
  finalised (``None`` when it finalised none);
* ``_batched_ok()``, ``(eligible, reason)`` for its batched lowering,
  and ``_run_batched(*ops)``, the lowering itself;
* ``sim_body(machine, *sim_args)`` and ``_key_fields()`` (the fields
  its trace-cache key needs besides the machine);
* ``_checksum(*ops)``, and ``_correct(check, *ops)`` where its checksum
  can repair in place.

``ops`` is the family's operand tuple, passed unchanged from its
``__call__`` through both executors and the ABFT ladder.
"""

from __future__ import annotations

from ..core.errors import SdcDetectedError
from ..core.inject import active_injector
from ..core.threaded_loop import ThreadedLoop
from ..platform.machine import MachineModel
from ..simulator.engine import SimResult
from .abft import record_abft_outcome, resolve_abft
from .batched import record_backend_outcome

__all__ = ["ParlooperKernel"]


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
        self.loop = ThreadedLoop(specs, spec_string,
                                 num_threads=num_threads, backend=backend)
        self._sim_bodies: dict = {}

    @property
    def backend(self) -> str:
        return self.loop.backend

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
        batched kernels.  The active SDC injector is armed either way;
        the interpreter's with the final-tile locator."""
        injector = active_injector()
        if self.backend == "batched":
            ok, reason = self._batched_ok()
            if ok:
                record_backend_outcome(self.kind, "lowered")
                if injector is not None:
                    injector.begin_call()
                self._run_batched(*ops)
                return
            record_backend_outcome(self.kind, "fallback", reason)
        body = self._interp_body(*ops)
        if injector is not None:
            injector.begin_call(self._final_tile(*ops))
        self.loop(body)

    def _correct(self, check, *ops) -> bool:
        """Repair *check*'s corruption in place; False when the family's
        checksum cannot locate it."""
        return False

    # -- performance -------------------------------------------------------
    @property
    def _score_flops(self) -> int:
        """The flop count :meth:`predict` scores against."""
        return self.flops

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
