"""JIT cache for generated loop nests.

"To avoid JIT overheads whenever possible, we cache the JITed target
loops: if we request a loop nest with the same loop_spec_string, we merely
return the function pointer of the already compiled and cached loop-nest"
(§II-B).  The key also includes the loop declarations, since the same
string over different bounds/steps yields different baked-in constants.

The cache also keeps the :class:`~repro.core.plan.LoopNestPlan` of each
(declarations, spec string) pair it is asked to plan
(:meth:`NestCache.plan`), so a repeated string costs one dict lookup
instead of a parse and a plan.  Only successful plans are kept: an
invalid string raises its :class:`~repro.core.errors.SpecError` again on
every call.  Plan lookups are not nest lookups and move no hit or miss
counter.  Plans sit in one store, :meth:`NestCache.derived`, with other
values that depend only on loop declarations, such as the tuner's
candidate pools; :meth:`NestCache.clear` drops that store and the nests
together.

Opt-in persistence: construct with ``persist_path=`` (or call
:meth:`NestCache.save`) to keep the *generated source* of every compiled
nest in a JSON file — ``{repr(cache_key): source}`` — and skip the
codegen step on the next run (the ``exec`` still happens once per
process; it is the source generation that dominates compile time).  The
file is trusted input: loading it executes the stored source, so only
point it at caches your own runs wrote.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings

from ..obs.context import current as _obs
from .codegen import GeneratedNest, compile_nest, compile_source
from .loop_spec import LoopSpecs
from .plan import LoopNestPlan, build_plan, plan_key

__all__ = ["NestCache", "global_nest_cache", "quarantine_corrupt",
           "write_json_atomic", "load_json_object"]

_MISSING = object()


def quarantine_corrupt(path: str) -> str:
    """Move a corrupt persisted-cache file out of the way.

    Renames *path* to ``<path>.corrupt`` — or ``<path>.corrupt.N`` for
    the first free ``N`` when earlier quarantines exist — so the next
    run starts from an empty cache instead of tripping over the same
    bad bytes, while keeping *every* piece of evidence around for
    diagnosis (repeated corruption of the same file is itself a
    finding, e.g. a bad core flipping bits on the write path)."""
    quarantined = path + ".corrupt"
    n = 0
    while os.path.exists(quarantined):
        n += 1
        quarantined = f"{path}.corrupt.{n}"
    os.replace(path, quarantined)
    return quarantined


def write_json_atomic(path: str, payload: str) -> str:
    """Replace *path* with the JSON text *payload* through a temp file in
    the same directory and ``os.replace``, so a reader sees the old file
    or the new one, never a torn write.  Returns *path*."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_json_object(path: str, what: str) -> dict:
    """The JSON object persisted at *path*.

    A corrupt file (truncated write, bad JSON, or a payload that is not
    a JSON object) is quarantined (:func:`quarantine_corrupt`) with a
    warning naming *what* was loaded, and an empty dict comes back, so
    the run starts from an empty cache instead of crashing."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(
                f"expected a JSON object, got {type(loaded).__name__}")
    except (json.JSONDecodeError, ValueError, UnicodeDecodeError) as exc:
        quarantined = quarantine_corrupt(path)
        warnings.warn(
            f"{what} at {path} is corrupt ({exc}); moved to "
            f"{quarantined} and starting empty", stacklevel=3)
        return {}
    return loaded


class NestCache:
    """Thread-safe (spec-string, specs) -> plan and compiled-nest cache."""

    def __init__(self, persist_path: str | None = None):
        self._lock = threading.Lock()
        self._derived: dict = {}     # plans, candidate pools, ...
        self._cache: dict[tuple, GeneratedNest] = {}
        self._sources: dict[str, str] = {}   # repr(key) -> generated source
        self.persist_path = persist_path
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.total_compile_seconds = 0.0
        if persist_path is not None and os.path.exists(persist_path):
            self.load(persist_path)

    def plan(self, specs, spec_string: str) -> LoopNestPlan:
        """The plan of *spec_string* over *specs*, built on the first
        request and returned from memory after that.  Raises
        :class:`~repro.core.errors.SpecError` like
        :func:`~repro.core.plan.build_plan` for a string that is invalid
        for these declarations."""
        specs = tuple(specs)
        if not (isinstance(spec_string, str)
                and all(isinstance(s, LoopSpecs) for s in specs)):
            return build_plan(specs, spec_string)   # raises its SpecError
        return self.derived(plan_key(specs, spec_string),
                            lambda: build_plan(specs, spec_string))

    def derived(self, key, build):
        """The value of ``build()`` for the hashable *key*, built on the
        first request and returned from memory until :meth:`clear`; a
        ``build()`` that raises stores nothing.  The caller keys it on
        every input *build* reads and must not mutate the value."""
        with self._lock:
            value = self._derived.get(key, _MISSING)
        if value is _MISSING:
            # build outside the lock; a racing duplicate keeps the first
            value = build()
            with self._lock:
                value = self._derived.setdefault(key, value)
        return value

    def get(self, plan: LoopNestPlan) -> GeneratedNest:
        obs = _obs()
        key = plan.cache_key()
        skey = repr(key)
        with self._lock:
            nest = self._cache.get(key)
            if nest is not None:
                self.hits += 1
                if obs.enabled:
                    obs.inc("cache_events", cache="nest", kind="hit")
                return nest
            source = self._sources.get(skey)
        # compile outside the lock; a racing duplicate compile is harmless
        t0 = time.perf_counter()
        with obs.span("codegen", spec=plan.spec_string,
                      from_disk=source is not None):
            if source is not None:
                nest = compile_source(source, plan)
            else:
                nest = compile_nest(plan)
        dt = time.perf_counter() - t0
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None:
                self.hits += 1
                if obs.enabled:
                    obs.inc("cache_events", cache="nest", kind="hit")
                return existing
            if source is not None:
                self.disk_hits += 1
                if obs.enabled:
                    obs.inc("cache_events", cache="nest", kind="disk_hit")
            else:
                self.misses += 1
                self.total_compile_seconds += dt
                if obs.enabled:
                    obs.inc("cache_events", cache="nest", kind="miss")
            self._cache[key] = nest
            self._sources[skey] = nest.source
            return nest

    def save(self, path: str | None = None) -> str:
        """Atomically persist all known nest sources; returns the path."""
        path = path or self.persist_path
        if path is None:
            raise ValueError("NestCache.save needs a path")
        obs = _obs()
        if obs.enabled:
            obs.inc("cache_events", cache="nest", kind="persist")
        with self._lock:
            payload = json.dumps(self._sources, indent=0, sort_keys=True)
        return write_json_atomic(path, payload)

    def load(self, path: str) -> int:
        """Merge persisted sources from *path*; returns how many.

        A corrupt file (truncated write, bad JSON, or a payload that is
        not the expected ``{key: source}`` dict) is *quarantined* —
        renamed to ``<path>.corrupt`` (``.corrupt.N`` when earlier
        evidence exists) with a warning — and the cache starts empty
        instead of crashing the run."""
        loaded = load_json_object(path, "nest cache")
        with self._lock:
            self._sources.update(loaded)
        return len(loaded)

    def clear(self) -> None:
        with self._lock:
            self._derived.clear()
            self._cache.clear()
            self._sources.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.total_compile_seconds = 0.0

    def __len__(self) -> int:
        return len(self._cache)


_GLOBAL = NestCache()


def global_nest_cache() -> NestCache:
    return _GLOBAL
