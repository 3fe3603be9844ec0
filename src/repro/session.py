"""The public facade: one session owning caches + observability.

Everything the library does — compiling nests, predicting and
simulating kernels, tuning sweeps, serving runs — can be reached through
a :class:`Session`, which owns

* the JIT :class:`~repro.core.cache.NestCache`,
* the trace-capture :class:`~repro.simulator.memo.TraceCache`,
* a tuner :class:`~repro.tuner.evalcache.EvalCache`, and
* an observability context (tracer + metric registry) built from an
  :class:`~repro.obs.ObsConfig`.

Session methods install the session's observability context as ambient
(:mod:`repro.obs.context`) for the duration of the call, so every
instrumentation site across the stack reports into *this* session's
tracer/registry — and into cheap no-ops for sessions with observability
disabled.

The classic module-level entry points (``repro.predict``,
``repro.simulate``, ``repro.tune``) remain, as thin wrappers over a
shared **default session** whose observability is off and whose caches
are the process-global ones — existing code keeps its exact behavior.
"""

from __future__ import annotations

from .core.cache import NestCache, global_nest_cache
from .core.threaded_loop import ThreadedLoop
from .obs import ObsConfig, use
from .simulator.engine import simulate as _simulate
from .simulator.memo import TraceCache, global_trace_cache
from .simulator.perfmodel import predict as _predict
from .tuner.evalcache import EvalCache
from .tuner.search import search as _search
from .tuner.tune import tune as _tune

__all__ = ["Session", "default_session", "resolve_session",
           "predict", "simulate", "tune"]


class Session:
    """One configuration of machine + caches + observability.

    Parameters
    ----------
    machine:
        Default :class:`~repro.platform.machine.MachineModel` for calls
        that need one; can be overridden per call.
    obs:
        An :class:`~repro.obs.ObsConfig`.  ``None`` means fully enabled
        with the wall clock; pass ``ObsConfig.disabled()`` (or
        ``ObsConfig(clock="tick")`` for deterministic traces) to taste.
    nest_cache / trace_cache / eval_cache:
        Bring-your-own caches (e.g. persistent ones); fresh private
        instances by default.
    """

    def __init__(self, machine=None, obs: ObsConfig | None = None,
                 nest_cache: NestCache | None = None,
                 trace_cache: TraceCache | None = None,
                 eval_cache: EvalCache | None = None):
        if obs is None:
            obs = ObsConfig()
        if not isinstance(obs, ObsConfig):
            raise TypeError(f"obs must be an ObsConfig, got {obs!r}")
        self.machine = machine
        self.obs_config = obs
        self.obs = obs.make_context()
        self.nest_cache = nest_cache if nest_cache is not None \
            else NestCache()
        self.trace_cache = trace_cache if trace_cache is not None \
            else TraceCache()
        self.eval_cache = eval_cache if eval_cache is not None \
            else EvalCache()
        if self.obs.metrics.enabled:
            self.obs.metrics.register_collector(self._collect_caches)

    # -- observability surface -------------------------------------------
    @property
    def tracer(self):
        return self.obs.tracer

    @property
    def metrics(self):
        return self.obs.metrics

    def activate(self):
        """Install this session's observability context as ambient for
        the duration of a ``with`` block — for instrumented code the
        session does not wrap itself (e.g. calling ``loop(body)``
        directly)."""
        return use(self.obs)

    def write_trace(self, path: str) -> str:
        """Write the session's Chrome/Perfetto ``trace.json``."""
        return self.obs.tracer.write_chrome(path)

    def flamegraph(self) -> str:
        """The session's span tree as text (see also
        ``session.tracer.folded()`` for collapsed-stack lines)."""
        return self.obs.tracer.format_tree()

    def _collect_caches(self, reg) -> None:
        """Snapshot-time collector: lifetime cache totals + hit rates."""
        for name, hits, misses in (
                ("nest", self.nest_cache.hits, self.nest_cache.misses),
                ("trace", self.trace_cache.hits, self.trace_cache.misses),
                ("eval", self.eval_cache.hits, self.eval_cache.misses)):
            reg.set_gauge("cache_hits_total", hits, cache=name)
            reg.set_gauge("cache_misses_total", misses, cache=name)
            total = hits + misses
            reg.set_gauge("cache_hit_rate",
                          hits / total if total else 0.0, cache=name)
        reg.set_gauge("cache_disk_hits_total", self.nest_cache.disk_hits,
                      cache="nest")

    # -- core -------------------------------------------------------------
    def compile(self, specs, spec_string: str,
                num_threads: int | None = None,
                execution: str = "serial",
                backend: str = "interp") -> ThreadedLoop:
        """Build (or fetch from this session's nest cache) a
        :class:`~repro.core.threaded_loop.ThreadedLoop`.

        ``backend="batched"`` marks the loop for tile-level batched
        execution (see :mod:`repro.kernels.batched`); kernels holding
        the loop dispatch accordingly and fall back to the interpreter
        when :func:`repro.core.batched.batchable` says no."""
        with self.activate():
            return ThreadedLoop(specs, spec_string,
                                num_threads=num_threads,
                                execution=execution,
                                cache=self.nest_cache,
                                backend=backend)

    # -- simulator ---------------------------------------------------------
    def _resolve_machine(self, machine):
        m = machine if machine is not None else self.machine
        if m is None:
            raise ValueError(
                "no machine: pass machine= here or construct the "
                "Session with one")
        return m

    def predict(self, loop, sim_body, machine=None,
                sample_threads: int | None = None,
                total_flops: float | None = None, body_key=None):
        """Box-B3 performance prediction through the session's memoized
        trace cache (:func:`repro.simulator.perfmodel.predict`)."""
        with self.activate():
            return _predict(loop, sim_body, self._resolve_machine(machine),
                            sample_threads=sample_threads,
                            total_flops=total_flops,
                            trace_cache=self.trace_cache,
                            body_key=body_key)

    def simulate(self, loop, sim_body, machine=None,
                 dispatch_overhead: bool = True, body_key=None):
        """Full-engine simulation through the session's trace cache
        (:func:`repro.simulator.engine.simulate`)."""
        with self.activate():
            return _simulate(loop, sim_body, self._resolve_machine(machine),
                             dispatch_overhead=dispatch_overhead,
                             trace_cache=self.trace_cache,
                             body_key=body_key)

    # -- tuner -------------------------------------------------------------
    def tune(self, kernel_or_specs, machine=None, **kwargs):
        """One-call tuning (:func:`repro.tuner.tune.tune`) through this
        session's machine, caches and observability.

        Replaces the classic ``generate_candidates`` → evaluator →
        ``search`` three-call dance: pass a kernel (or bare spec
        declarations plus ``sim_body=``), pick
        ``strategy="exhaustive" | "guided"``, and read the
        returned :class:`~repro.tuner.tune.TuneReport`.  The session's
        trace cache backs evaluation, and its eval cache absorbs
        results whenever ``workload_sig=`` is given."""
        kwargs.setdefault("trace_cache", self.trace_cache)
        if "workload_sig" in kwargs:
            kwargs.setdefault("eval_cache", self.eval_cache)
        with self.activate():
            return _tune(kernel_or_specs,
                         machine=self._resolve_machine(machine), **kwargs)

    def search(self, candidates, evaluator, **kwargs):
        """A tuning sweep (:func:`repro.tuner.search.search`) reporting
        into this session's tracer/metrics.

        The classic low-level entry point; :meth:`tune` wraps candidate
        generation, evaluator construction and this sweep in one call."""
        with self.activate():
            return _search(candidates, evaluator, **kwargs)

    # -- serve -------------------------------------------------------------
    def serve(self, config, machine=None, **kwargs):
        """A :class:`~repro.serve.server.ServeSimulator` bound to this
        session's observability (request timelines land on its tracer,
        counters on its registry, whenever the simulator ``run``\\ s)."""
        from .serve.server import ServeSimulator  # deferred: keep the
        # facade importable without the serving stack's import cost
        return ServeSimulator(config, self._resolve_machine(machine),
                              obs=self.obs, **kwargs)

    def fleet(self, config, machines="hetero4", **kwargs):
        """A :class:`~repro.fleet.cluster.FleetSimulator` bound to this
        session's observability.  *machines* is a cluster-preset name
        (see :data:`repro.platform.CLUSTER_PRESETS`) or an iterable of
        machine models, one per replica slot.  Pass ``guard="default"``
        (or a :class:`~repro.fleet.guard.GuardPolicy` / preset name
        from :data:`repro.fleet.GUARD_PRESETS`) to enable the
        observed-health defense layer — failure detection, circuit
        breakers, hedged requests, and the retry budget."""
        from .fleet.cluster import FleetSimulator  # deferred, as above
        if isinstance(machines, str):
            from .platform.presets import cluster_preset
            machines = cluster_preset(machines)
        return FleetSimulator(config, machines, obs=self.obs, **kwargs)


_DEFAULT: Session | None = None


def default_session() -> Session:
    """The shared obs-disabled session behind the module-level API.

    Uses the process-global nest/trace caches, so the classic functions
    keep exactly their pre-session behavior and warm state.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session(obs=ObsConfig.disabled(),
                           nest_cache=global_nest_cache(),
                           trace_cache=global_trace_cache())
    return _DEFAULT


def resolve_session(session: Session | None) -> Session:
    """*session* or the default one — how kernel methods bind."""
    return session if session is not None else default_session()


# -- classic module-level entry points (thin default-session wrappers) ---

def predict(loop, sim_body, machine, sample_threads: int | None = None,
            total_flops: float | None = None, trace_cache=None,
            body_key=None):
    """Module-level :func:`repro.simulator.perfmodel.predict`, run in the
    default session's (disabled) observability scope.  Signature and
    results are unchanged: ``trace_cache`` stays opt-in here."""
    with default_session().activate():
        return _predict(loop, sim_body, machine,
                        sample_threads=sample_threads,
                        total_flops=total_flops, trace_cache=trace_cache,
                        body_key=body_key)


def simulate(loop, sim_body, machine, dispatch_overhead: bool = True,
             trace_cache=None, body_key=None):
    """Module-level :func:`repro.simulator.engine.simulate` over the
    default session."""
    with default_session().activate():
        return _simulate(loop, sim_body, machine,
                         dispatch_overhead=dispatch_overhead,
                         trace_cache=trace_cache, body_key=body_key)


def tune(kernel_or_specs, **kwargs):
    """Module-level :func:`repro.tuner.tune.tune` over the default
    session (``machine=`` is required there, since the default session
    has none)."""
    return default_session().tune(kernel_or_specs, **kwargs)
