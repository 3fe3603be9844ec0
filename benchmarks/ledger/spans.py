"""Outside-in span recorder for the ledger benchmark (standard library only).

The recorder times calls *into* a program's layers without changing the
program: it rebinds the listed entry points to timing wrappers while a
traced operation runs and restores the originals afterwards.

* A module function is rebound in every loaded module of the package that
  holds the same function object, so aliases such as
  ``from .engine import simulate as _simulate`` are timed too.
* A method is wrapped on the class that defines it.
* Every span records its name, layer, start, end, its own id, the id of
  its parent span and the id of the operation it belongs to.  *Cold* layers keep one span per call.
  *Hot* layers (called per element, per step or per request) keep only a
  call count and self time, aggregated per layer and on the innermost
  enclosing cold span, so memory stays bounded.
* A layer's self time is its span's duration minus the time covered by
  its child spans.  Time inside an operation not covered by any layer is
  the operation root's self time.

Output is a Chrome trace-event file (open it in https://ui.perfetto.dev)
plus the per-layer table from :meth:`SpanRecorder.layer_stats`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

__all__ = ["Target", "SpanRecorder", "ROOT"]

#: layer name of the operation root spans the benchmark opens itself
ROOT = "root"
#: the package whose modules hold the wrapped functions and their aliases
PACKAGE = "repro"
#: cold spans kept for the Chrome trace; calls past it still count in the
#: per-layer table
MAX_SPANS = 100_000


class Target:
    """One entry point to wrap.

    *spec* is ``"module:function"``, ``"module:Class.method"`` or
    ``"module:Base.method+"``; the trailing ``+`` wraps *method* on
    ``Base`` and on every loaded subclass that defines its own.
    *observe*, if given, is called as ``observe(counters, bound_args,
    result)`` after each call (``bound_args`` from
    :func:`inspect.signature` binding, defaults applied)."""

    __slots__ = ("spec", "layer", "hot", "observe")

    def __init__(self, spec: str, layer: str, hot: bool = False,
                 observe=None):
        self.spec = spec
        self.layer = layer
        self.hot = hot
        self.observe = observe


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class SpanRecorder:
    """Records spans for calls into the wrapped entry points.

    *reach* lists ``(from_layer, to_layer)`` pairs: for each, the recorder
    counts the outermost calls into ``from_layer`` and how many of them
    started a ``to_layer`` call before returning (a cache lookup that
    reached the code it caches is a miss)."""

    def __init__(self, targets, reach):
        self.targets = list(targets)
        self.reach = tuple(reach)
        self._reach_from = {a: b for a, b in self.reach}
        self._sites: list = []          # (namespace, attr, original, wrapper)
        #: layer -> [calls, self seconds]
        self.stats: dict = {}
        #: free-form counters the observe hooks increment
        self.counters: dict = {}
        #: (from, to) -> [outermost calls, calls that reached *to*]
        self.reached: dict = {pair: [0, 0] for pair in self.reach}
        #: [name, layer, t0, dur, id, parent id, op, hot aggregates]
        self.spans: list = []
        self.dropped_spans = 0
        self._stack: list = []          # open frames, innermost last
        self._cold: list = []           # indices into _stack of cold frames
        self._started: dict = {}        # layer -> calls started so far
        self._active: dict = {}         # layer -> open frames of the layer
        self._op = 0
        self._next_id = 0
        self._t_base = time.perf_counter()

    # -- installation ---------------------------------------------------
    def prepare(self) -> None:
        """Resolve every target to the places that hold it.

        Import the program's modules before calling this, so that every
        alias exists; modules imported later see the wrapper whenever
        they import while it is installed."""
        self._sites = []
        done: dict = {}
        for t in self.targets:
            for owner, attr, fn in self._resolve(t.spec):
                key = id(fn)
                if key not in done:
                    done[key] = self._wrap(fn, t, attr)
                wrapper = done[key]
                if isinstance(owner, type):
                    self._sites.append((owner, attr, fn, wrapper))
                else:
                    for mod in list(sys.modules.values()):
                        name = getattr(mod, "__name__", "") or ""
                        if not (name == PACKAGE
                                or name.startswith(PACKAGE + ".")):
                            continue
                        for alias, value in list(vars(mod).items()):
                            if value is fn:
                                self._sites.append((mod, alias, fn, wrapper))

    def _resolve(self, spec: str):
        mod_name, _, path = spec.partition(":")
        mod = importlib.import_module(mod_name)
        if "." not in path:
            return [(mod, path, getattr(mod, path))]
        cls_name, meth = path.split(".", 1)
        every = meth.endswith("+")
        meth = meth.rstrip("+")
        classes = _subclasses(getattr(mod, cls_name)) if every \
            else [getattr(mod, cls_name)]
        return [(cls, meth, cls.__dict__[meth]) for cls in classes
                if meth in cls.__dict__]

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of a ``with`` block."""
        for owner, attr, _fn, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _wrapper in reversed(self._sites):
                setattr(owner, attr, fn)

    def _wrap(self, fn, target: Target, attr: str):
        rec = self
        layer, hot, observe = target.layer, target.hot, target.observe
        name = getattr(fn, "__qualname__", attr)
        sig = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._enter(layer, name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(rec.counters, bound.arguments, result)
            return result

        return wrapper

    # -- span bookkeeping -----------------------------------------------
    def _enter(self, layer: str, name: str, hot: bool) -> None:
        started = self._started
        started[layer] = started.get(layer, 0) + 1
        active = self._active
        depth = active.get(layer, 0)
        active[layer] = depth + 1
        snap = None
        if depth == 0 and layer in self._reach_from:
            snap = started.get(self._reach_from[layer], 0)
        sid = None
        if not hot:
            self._cold.append(len(self._stack))
            sid = self._next_id
            self._next_id += 1
        # frame: layer, name, hot, start, child seconds, hot aggregates,
        # reach snapshot, span id
        self._stack.append([layer, name, hot, time.perf_counter(), 0.0,
                            None, snap, sid])

    def _exit(self) -> None:
        t1 = time.perf_counter()
        frame = self._stack.pop()
        layer, name, hot, t0, child, hot_agg, snap, sid = frame
        dur = t1 - t0
        self_s = dur - child
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = [0, 0.0]
        st[0] += 1
        st[1] += self_s
        self._active[layer] -= 1
        if self._stack:
            self._stack[-1][4] += dur
        if snap is not None:
            to = self._reach_from[layer]
            counts = self.reached[(layer, to)]
            counts[0] += 1
            if self._started.get(to, 0) > snap:
                counts[1] += 1
        if hot:
            if self._cold:
                owner = self._stack[self._cold[-1]]
                if owner[5] is None:
                    owner[5] = {}
                agg = owner[5].setdefault(layer, [0, 0.0])
                agg[0] += 1
                agg[1] += self_s
            return
        self._cold.pop()
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        parent = self._stack[self._cold[-1]][7] if self._cold else None
        self.spans.append([name, layer, t0 - self._t_base, dur, sid,
                           parent, self._op, hot_agg])

    @contextlib.contextmanager
    def op(self, name: str):
        """Open the root span of one benchmark operation."""
        self._op += 1
        self._enter(ROOT, name, False)
        try:
            yield self
        finally:
            self._exit()

    # -- results --------------------------------------------------------
    def layer_stats(self) -> dict:
        """``{layer: (calls, self_seconds)}`` over every traced call."""
        return {k: (v[0], v[1]) for k, v in self.stats.items()}

    def reach_ratio(self, from_layer: str, to_layer: str) -> float:
        """Share of outermost *from_layer* calls that reached *to_layer*
        (0 when there were none)."""
        calls, hits = self.reached[(from_layer, to_layer)]
        return hits / calls if calls else 0.0

    def write_chrome(self, path: str, metadata: dict | None = None) -> str:
        """Write the cold spans as Chrome trace events (``ph: "X"``).

        Hot-layer aggregates ride along in the ``args`` of the span that
        enclosed them; nesting is implied by time containment on one
        track, and ``args.parent`` is the enclosing span's ``args.id``."""
        events = []
        for name, layer, t0, dur, sid, parent, op, hot_agg in self.spans:
            args = {"id": sid, "parent": parent, "op": op}
            if hot_agg:
                args["hot"] = {k: {"calls": c, "self_ms": s * 1e3}
                               for k, (c, s) in sorted(hot_agg.items())}
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": t0 * 1e6, "dur": dur * 1e6,
                           "pid": 1, "tid": 1, "args": args})
        meta = dict(metadata or {})
        meta["dropped_spans"] = self.dropped_spans
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
        return path
