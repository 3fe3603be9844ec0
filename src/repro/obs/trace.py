"""Nested span tracer with deterministic replay and Chrome export.

The tracer answers the §II-E question — *where does the time go?* — for
the whole stack: spans nest per thread (``with tracer.span("codegen",
spec=s): ...``), pre-timed spans record simulated time (the serving
simulator's request timelines), and the buffer exports as

* Chrome ``trace_event`` JSON (:meth:`Tracer.chrome_trace` /
  :meth:`Tracer.write_chrome`) loadable in ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_, and
* a text flamegraph (:meth:`Tracer.folded` emits collapsed-stack lines,
  :meth:`Tracer.format_tree` a human-readable tree).

Timestamps come from an injected clock (:mod:`repro.obs.clock`); with a
:class:`~repro.obs.clock.TickClock` two runs of the same instrumented
code produce byte-identical trace files.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from .clock import wall_clock

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]

_US = 1e6   # seconds -> trace_event microseconds


@dataclass(frozen=True)
class TraceEvent:
    """One finished span (``kind='span'``) or point event (``'instant'``)."""

    name: str
    start_s: float
    end_s: float
    track: str                 # "main", "thread-1", "req 3", ...
    path: tuple                # span names root -> self on this track
    kind: str = "span"
    args: tuple = ()           # sorted (key, value) pairs

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _SpanHandle:
    """Context manager for one live span (also usable as a decorator)."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_path")

    def __init__(self, tracer: "Tracer", name: str, args: tuple):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        tr = self._tracer
        stack = tr._stack()
        stack.append(self._name)
        self._path = tuple(stack)
        self._start = tr.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tr = self._tracer
        end = tr.clock()
        stack = tr._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        tr._record(TraceEvent(self._name, self._start, end,
                              tr._thread_track(), self._path,
                              "span", self._args))


class _NullSpan:
    """Reusable, reentrant no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe nested span recorder.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds.  Defaults to
        the wall clock; inject a :class:`~repro.obs.clock.TickClock` for
        deterministic replays.
    max_events:
        Buffer cap.  Events beyond it are counted in :attr:`dropped`
        instead of stored, so a long-running session degrades gracefully
        rather than exhausting memory.
    """

    enabled = True

    def __init__(self, clock=None, max_events: int = 1_000_000):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.clock = clock if clock is not None else wall_clock
        self.max_events = int(max_events)
        self.dropped = 0
        self._events: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tracks: dict = {}      # track name -> chrome tid
        self._thread_tracks: dict = {}  # thread ident -> track name

    # -- recording --------------------------------------------------------
    def span(self, name: str, **args) -> _SpanHandle:
        """Open a nested span on the calling thread's stack."""
        return _SpanHandle(self, name, tuple(sorted(args.items())))

    def trace(self, name: str | None = None, **args):
        """Decorator form of :meth:`span` (span named after the function
        unless *name* is given)."""
        def deco(fn):
            span_name = name if name is not None else fn.__name__
            import functools

            @functools.wraps(fn)
            def wrapper(*a, **kw):
                with self.span(span_name, **args):
                    return fn(*a, **kw)
            return wrapper
        return deco

    def instant(self, name: str, track: str | None = None, ts: float | None
                = None, **args) -> None:
        """A point event, at ``ts`` (simulated time) or the clock now."""
        t = self.clock() if ts is None else float(ts)
        tk = track if track is not None else self._thread_track()
        self._record(TraceEvent(name, t, t, tk, (name,), "instant",
                                tuple(sorted(args.items()))))

    def complete(self, name: str, start_s: float, end_s: float,
                 track: str | None = None, **args) -> None:
        """A pre-timed span — e.g. simulated-clock serve timelines."""
        tk = track if track is not None else self._thread_track()
        self._record(TraceEvent(name, float(start_s), float(end_s), tk,
                                (name,), "span",
                                tuple(sorted(args.items()))))

    def _record(self, ev: TraceEvent) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(ev)

    # -- per-thread state -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_track(self) -> str:
        ident = threading.get_ident()
        name = self._thread_tracks.get(ident)
        if name is None:
            with self._lock:
                name = self._thread_tracks.get(ident)
                if name is None:
                    i = len(self._thread_tracks)
                    name = "main" if i == 0 else f"thread-{i}"
                    self._thread_tracks[ident] = name
        return name

    def _track_tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = self._tracks[track] = len(self._tracks)
        return tid

    # -- introspection ----------------------------------------------------
    def events(self) -> tuple:
        with self._lock:
            return tuple(self._events)

    def spans(self, name: str | None = None) -> tuple:
        evs = [e for e in self.events() if e.kind == "span"]
        if name is not None:
            evs = [e for e in evs if e.name == name]
        return tuple(evs)

    def span_names(self) -> set:
        return {e.name for e in self.events()}

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    # -- Chrome trace_event export ---------------------------------------
    def chrome_trace(self) -> dict:
        """The buffer as a ``chrome://tracing`` / Perfetto JSON object."""
        events = sorted(self.events(),
                        key=lambda e: (e.start_s, e.track, e.name))
        out = []
        self._tracks.clear()
        for track in sorted({e.track for e in events},
                            key=self._track_sort_key):
            tid = self._track_tid(track)
            out.append({"ph": "M", "pid": 1, "tid": tid,
                        "name": "thread_name", "args": {"name": track}})
        for e in events:
            tid = self._track_tid(e.track)
            rec = {"name": e.name, "pid": 1, "tid": tid, "cat": "repro",
                   "ts": round(e.start_s * _US, 3),
                   "args": dict(e.args)}
            if e.kind == "instant":
                rec["ph"] = "i"
                rec["s"] = "t"
            else:
                rec["ph"] = "X"
                rec["dur"] = round(e.duration_s * _US, 3)
            out.append(rec)
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    @staticmethod
    def _track_sort_key(track: str):
        # "main" first, then threads, then named (e.g. request) tracks
        if track == "main":
            return (0, track)
        if track.startswith("thread-"):
            return (1, track)
        return (2, track)

    def write_chrome(self, path: str) -> str:
        payload = json.dumps(self.chrome_trace(), indent=0, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(payload)
        return path

    # -- text flamegraph --------------------------------------------------
    def _totals(self):
        """Aggregate ``(track, path) -> [total_s, count]`` over spans."""
        totals: dict = {}
        for e in self.events():
            if e.kind != "span":
                continue
            key = (e.track, e.path)
            agg = totals.get(key)
            if agg is None:
                totals[key] = [e.duration_s, 1]
            else:
                agg[0] += e.duration_s
                agg[1] += 1
        return totals

    def folded(self) -> list:
        """Collapsed-stack lines (``a;b;c <microseconds>``), self-time
        weighted — pipe into any flamegraph renderer."""
        totals = self._totals()
        child_time: dict = {}
        for (track, path), (tot, _n) in totals.items():
            if len(path) > 1:
                parent = (track, path[:-1])
                child_time[parent] = child_time.get(parent, 0.0) + tot
        lines = []
        for (track, path), (tot, _n) in sorted(totals.items()):
            self_s = max(0.0, tot - child_time.get((track, path), 0.0))
            lines.append(f"{track};" + ";".join(path)
                         + f" {round(self_s * _US)}")
        return lines

    def format_tree(self) -> str:
        """Human-readable span tree with totals and call counts."""
        totals = self._totals()
        by_track: dict = {}
        for (track, path), (tot, n) in totals.items():
            by_track.setdefault(track, {})[path] = (tot, n)
        lines = []
        for track in sorted(by_track, key=self._track_sort_key):
            lines.append(f"[{track}]")
            for path in sorted(by_track[track]):
                tot, n = by_track[track][path]
                indent = "  " * len(path)
                lines.append(f"{indent}{path[-1]:<24s} "
                             f"{tot * 1e3:10.3f} ms  x{n}")
        return "\n".join(lines)


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op."""

    enabled = False
    dropped = 0
    max_events = 0

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def trace(self, name: str | None = None, **args):
        def deco(fn):
            return fn
        return deco

    def instant(self, name: str, track=None, ts=None, **args) -> None:
        return None

    def complete(self, name: str, start_s, end_s, track=None,
                 **args) -> None:
        return None

    def events(self) -> tuple:
        return ()

    def spans(self, name: str | None = None) -> tuple:
        return ()

    def span_names(self) -> set:
        return set()

    def clear(self) -> None:
        return None

    def chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def folded(self) -> list:
        return []

    def format_tree(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0


#: shared disabled tracer (used by the ambient context's off state)
NULL_TRACER = NullTracer()
