"""Fault-injection registry for kernel execution.

Kernels need a way to hand each completed tile to an (optional)
corruption injector without importing the resilience package —
``repro.resilience`` already imports serve/kernel modules, so a direct
dependency here would be circular.  This module is the narrow waist: a
single module-global slot holding the active injector, set and cleared
by :func:`repro.resilience.sdc.sdc_injection`.

An injector is any object with the protocol :mod:`repro.kernels`
consumes:

* ``begin_call()`` — a kernel announces one nest execution; returns the
  call index.
* ``maybe_flip(tile, ind)`` — either executor offers each output tile a
  body call finalised, keyed by that call's body index tuple.

The nest runtime never sees the injector, so bare nests (tuner probes,
verifier replays) run untouched.  Everything here is dependency-free on
purpose; keep it that way.
"""

__all__ = ["set_injector", "active_injector", "clear_injector"]

_active = None


def set_injector(injector) -> None:
    """Install *injector* as the process-wide active injector."""
    global _active
    _active = injector


def active_injector():
    """Return the active injector, or ``None`` when nothing is armed."""
    return _active


def clear_injector() -> None:
    """Remove the active injector (idempotent)."""
    global _active
    _active = None
