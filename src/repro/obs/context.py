"""Ambient observability context.

Instrumentation sites throughout the repo never hold a tracer or
registry directly — they read the *ambient* :class:`ObsContext` via
:func:`current`.  The default context is fully disabled (shared no-op
tracer and registry), so uninstrumented use of the library pays only a
dict-free attribute read plus a no-op call per site.  A
:class:`~repro.session.Session` with observability enabled installs its
context for the duration of each API call with :func:`use`, which saves
and restores the previous context, so sessions nest and never leak.

:class:`ObsConfig` is the user-facing knob bundle: it decides whether
tracing/metrics are on, which clock the tracer reads (``"wall"`` for
real time, ``"tick"`` for deterministic replay, or any zero-argument
callable), and the event-buffer cap.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .clock import TickClock, wall_clock
from .metrics import MetricRegistry, NULL_METRICS
from .trace import Tracer, NULL_TRACER

__all__ = ["ObsConfig", "ObsContext", "OBS_OFF", "current", "install",
           "use"]


@dataclass(frozen=True)
class ObsConfig:
    """What a session's observability layer should record.

    ``clock`` selects the tracer's timestamp source: ``"wall"``
    (``time.perf_counter``), ``"tick"`` (a fresh
    :class:`~repro.obs.clock.TickClock` per session — bit-identical
    replays), or a zero-argument callable of your own.
    """

    tracing: bool = True
    metrics: bool = True
    clock: object = "wall"
    tick: float = 1e-6           # TickClock step when clock="tick"
    max_events: int = 1_000_000

    @classmethod
    def disabled(cls) -> "ObsConfig":
        return cls(tracing=False, metrics=False)

    @property
    def enabled(self) -> bool:
        return self.tracing or self.metrics

    def make_clock(self):
        if self.clock == "wall":
            return wall_clock
        if self.clock == "tick":
            return TickClock(tick=self.tick)
        if callable(self.clock):
            return self.clock
        raise ValueError(
            f"clock must be 'wall', 'tick', or a callable, "
            f"got {self.clock!r}")

    def make_context(self) -> "ObsContext":
        tracer = Tracer(clock=self.make_clock(),
                        max_events=self.max_events) \
            if self.tracing else NULL_TRACER
        metrics = MetricRegistry() if self.metrics else NULL_METRICS
        return ObsContext(tracer=tracer, metrics=metrics)


class ObsContext:
    """A (tracer, metrics) pair — what instrumentation sites talk to."""

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self, tracer=NULL_TRACER, metrics=NULL_METRICS):
        self.tracer = tracer
        self.metrics = metrics
        self.enabled = bool(tracer.enabled or metrics.enabled)

    # thin forwarding helpers so call sites stay one-liners
    def span(self, name: str, **args):
        return self.tracer.span(name, **args)

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        self.metrics.inc(name, amount, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.metrics.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.metrics.observe(name, value, **labels)


#: the permanent disabled context — ambient default
OBS_OFF = ObsContext()

_active = OBS_OFF


def current() -> ObsContext:
    """The ambient context instrumentation sites report into."""
    return _active


def install(ctx: ObsContext) -> ObsContext:
    """Make *ctx* ambient and return the context it replaces.  The
    caller restores that one in a ``finally``: :func:`use` without a
    generator frame, for loops that swap contexts once per step."""
    global _active
    prev = _active
    _active = ctx
    return prev


@contextmanager
def use(ctx: ObsContext):
    """Install *ctx* as ambient for the dynamic extent of the block."""
    prev = install(ctx)
    try:
        yield ctx
    finally:
        install(prev)
