"""Memoized trace capture: the one way the library captures the traces
the perf model and the engine replay.

A kernel body's thread traces compile straight from its block map
(:mod:`repro.simulator.columns`); any other body's are captured by
running the generated nest with a recording body.  Either way the
*trace content* only depends on the iteration order, not on which
machine model replays it, and many candidates share an order:

* spec strings differing only in barriers (``|``) visit identical
  per-thread iteration sequences, and
* spec strings differing only in parallel annotations serialize to the
  same flat order (``_serialize_spec``), which is all the engine's
  dynamic path needs.

:class:`TraceCache` exploits both: a bounded, thread-safe LRU keyed by
``(body, loop declarations, normalized order, num_threads, tid)`` holding
the :class:`~repro.simulator.reuse.CompiledTrace` of each thread, which
the engine and the perfmodel replay, and the raw flat traces of dynamic
schedules.  Tuning sweeps across several machine models — the paper
tunes on four testbeds — then trace each candidate exactly once, and
compile each distinct per-thread event sequence once: most candidates
hand a sampled thread the same tiles in the same order.

Cached traces are shared: consumers must treat them as immutable.  The
body function itself is the default cache-key component, so ``sim_body``
must be a pure function of ``ind``; if you rebuild the closure per call,
pass a stable ``body_key`` instead.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict

import numpy as np

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from .columns import compile_columns
from .reuse import CompiledTrace, compile_trace
from .trace import (ThreadTrace, _serialize_spec, trace_flat,
                    trace_threaded_loop)

__all__ = ["TraceCache", "global_trace_cache"]


def _thread_order_key(spec: str) -> str:
    """Normalize *spec* to its per-thread iteration order.

    Barriers synchronize but never change which iterations a thread runs
    or in what order (tracing contexts no-op them), so they are stripped;
    everything else — capitalization, grids, blocking counts, directives —
    changes the per-thread partitioning and stays in the key.
    """
    body, sep, directives = spec.partition("@")
    return body.replace("|", "").strip() + sep + directives.strip()


class TraceCache:
    """Bounded, thread-safe memo for per-thread and flat traces.

    At most *max_entries* entries, one per captured thread or flat
    trace, least recently used out first.  Compiled traces also count
    their accesses against
    :attr:`MAX_COMPILED_ACCESSES`, which bounds their arrays (41 bytes
    per access) and the reuse memos they carry.  The cache holds a
    reuse memo only through the compiled traces that share it, so an
    evicted pattern's memo goes with its last trace; a memo grows by a
    few arrays over the pattern's accesses for each cache hierarchy the
    pattern is replayed on.

    Compiled traces are shared by event sequence: every thread key whose
    capture holds the same events gets the same compiled trace, with
    its reuse memo.  A trace held by several entries counts against the
    access budget once, while any entry holds it."""

    #: accesses all cached compiled traces may hold (about 11 MB of arrays)
    MAX_COMPILED_ACCESSES = 1 << 18

    def __init__(self, max_entries: int = 2048):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        #: sha1(key_ids, footprint) -> a live compiled trace of that
        #: pattern, whose reuse memo pattern-identical traces then share;
        #: weak, so an entry goes with its trace
        self._patterns = weakref.WeakValueDictionary()
        #: tuple(events) -> the compiled trace of those events; weak
        #: like ``_patterns``, so an entry goes with the last cache entry
        #: holding its trace
        self._sequences = weakref.WeakValueDictionary()
        #: body key -> {tuple(ind): sim_body result}; candidates sweep the
        #: same iteration space, so body events are shared across traces
        self._body_memos: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._compiled_accesses = 0
        #: id(compiled trace) -> how many entries hold it
        self._holders: dict = {}

    # -- key construction -------------------------------------------------

    @staticmethod
    def _specs_key(loop: ThreadedLoop) -> tuple:
        return loop.plan.cache_key()[1]

    def _body_key(self, sim_body, body_key):
        return sim_body if body_key is None else body_key

    _BODY_MEMO_MAX = 1 << 16      # distinct inds memoized per body
    _BODY_MEMO_BODIES = 64        # distinct bodies tracked

    def _memo_body(self, sim_body, body_key):
        """Wrap *sim_body* with an ``ind -> result`` memo.

        Every candidate of a tuning sweep iterates the same space with
        the same (pure, by contract) body, so the per-invocation events
        need building only once per distinct ``ind`` — returned events
        are shared and must be treated as immutable, like the cached
        traces that hold them.
        """
        bkey = self._body_key(sim_body, body_key)
        with self._lock:
            memo = self._body_memos.get(bkey)
            if memo is None:
                memo = self._body_memos[bkey] = {}
                while len(self._body_memos) > self._BODY_MEMO_BODIES:
                    self._body_memos.popitem(last=False)

        def wrapped(ind, _memo=memo, _body=sim_body, _cap=self._BODY_MEMO_MAX):
            k = tuple(ind)
            ev = _memo.get(k, _memo)      # _memo doubles as the sentinel
            if ev is _memo:
                ev = _body(ind)
                if len(_memo) < _cap:
                    _memo[k] = ev
            return ev

        return wrapped

    # -- core get-or-build ------------------------------------------------

    def _get(self, key, build):
        entry = self._lookup(key)
        if entry is not None:
            return entry
        # build outside the lock (tracing can be slow); a racing duplicate
        # build produces an identical trace and is harmless
        with _obs().span("trace_capture", kind=key[0]):
            value = build()
        return self._store(key, value)

    def _lookup(self, key):
        """The entry under *key*, counted as a hit, or None."""
        with self._lock:
            return self._hit(key)

    def _hit(self, key):
        """:meth:`_lookup`, for a caller holding the lock."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            obs = _obs()
            if obs.enabled:
                obs.inc("cache_events", cache="trace", kind="hit")
        return entry

    def _store(self, key, value):
        """File *value* under *key* as a miss, evicting past the bounds;
        an entry a racing build filed first wins, as a hit."""
        with self._lock:
            existing = self._hit(key)
            if existing is not None:
                return existing
            self.misses += 1
            obs = _obs()
            if obs.enabled:
                obs.inc("cache_events", cache="trace", kind="miss")
            self._entries[key] = value
            self._hold(value, 1)
            while len(self._entries) > 1 and (
                    len(self._entries) > self.max_entries
                    or self._compiled_accesses > self.MAX_COMPILED_ACCESSES):
                _key, old = self._entries.popitem(last=False)
                self._hold(old, -1)
            return value

    def _hold(self, entry, step: int) -> None:
        """Count one more (*step* 1) or one fewer (-1) entry holding
        *entry*; a compiled trace's accesses count against the budget
        from its first holder until its last goes."""
        if not isinstance(entry, CompiledTrace):
            return
        held = self._holders.pop(id(entry), 0) + step
        if held:
            self._holders[id(entry)] = held
        if held == 0 or (held == 1 and step == 1):
            self._compiled_accesses += step * entry.n_accesses

    # -- public API -------------------------------------------------------

    def _thread_keys(self, loop: ThreadedLoop, sim_body, tids,
                     body_key) -> list:
        base = (self._body_key(sim_body, body_key), self._specs_key(loop),
                _thread_order_key(loop.spec_string), loop.num_threads)
        return [(*base, tid) for tid in tids]

    def compiled_thread_trace(self, loop: ThreadedLoop, sim_body, tid: int,
                              body_key=None) -> CompiledTrace:
        """The (cached) compiled trace of thread *tid* of *loop*; see
        :meth:`compiled_thread_traces`."""
        return self.compiled_thread_traces(loop, sim_body, (tid,),
                                           body_key)[0]

    def compiled_thread_traces(self, loop: ThreadedLoop, sim_body, tids,
                               body_key=None) -> list:
        """The (cached) compiled traces of threads *tids* of *loop*.

        A body that carries ``call_columns(loop, tids)`` (kernel
        families' ``sim_body``) on a static schedule gets the traces of
        all missing tids compiled in one pass from its block map
        (:mod:`repro.simulator.columns`), with no raw trace; its idle
        tids share one empty trace.  Other bodies, and dynamic
        schedules, whose capture deals chunks round-robin, are captured
        thread by thread through the interpreter and compiled at once,
        keeping only the compiled trace.  Thread keys whose captures
        hold the same event sequence — the idle tids of any nest, or one
        tid under candidates that hand it the same tiles — get one
        compiled trace, so each distinct sequence is compiled and
        replayed once.

        Compiled traces with identical ``(key_ids, footprint)`` patterns
        — e.g. the tids of a data-parallel nest, which walk isomorphic
        tile sequences whose interned ids coincide — share one
        :attr:`~repro.simulator.reuse.CompiledTrace.reuse_memo`, so the
        reuse-distance pass runs once per *pattern*, not once per thread.
        """
        tids = list(tids)
        keys = self._thread_keys(loop, sim_body, tids, body_key)
        columns = getattr(sim_body, "call_columns", None)
        if columns is None or loop.plan.parsed.schedule == "dynamic":
            return [self._get(
                ("threadc",) + key,
                lambda tid=tid: self._compile_once(trace_threaded_loop(
                    loop, self._memo_body(sim_body, body_key),
                    tids=[tid])[0]))
                for key, tid in zip(keys, tids)]
        found = [self._lookup(("threadc",) + key) for key in keys]
        todo = [i for i, ct in enumerate(found) if ct is None]
        if todo:
            with _obs().span("trace_capture", kind="columns",
                             threads=len(todo)):
                built = compile_columns(columns(loop, [tids[i]
                                                       for i in todo]))
            for i, ct in zip(todo, built):
                found[i] = self._store(("threadc",) + keys[i],
                                       self._share_column_trace(ct))
        return found

    def _compile_once(self, raw: ThreadTrace) -> CompiledTrace:
        """The compiled trace of *raw*'s event sequence, compiled on the
        sequence's first request; the cache keeps no raw thread trace.

        The body memo makes events one object per ``ind``, and events
        are immutable, so sequences equal by identity hold equal events:
        the lookup hashes object ids, never arrays.  A trace that
        ``compile_trace`` rejects is never registered, so every request
        for it raises."""
        seq = tuple(raw.events)
        with self._lock:
            ct = self._sequences.get(seq)
        if ct is None:
            ct = self._share_reuse_memo(compile_trace(raw))
            with self._lock:
                ct = self._sequences.setdefault(seq, ct)
        return ct

    def _share_column_trace(self, ct: CompiledTrace) -> CompiledTrace:
        """*ct*, or the registered empty trace when *ct* is empty, so
        idle tids share one trace whichever capture built it."""
        if ct.n_events:
            return self._share_reuse_memo(ct)
        with self._lock:
            return self._sequences.setdefault((), ct)

    def _share_reuse_memo(self, ct: CompiledTrace) -> CompiledTrace:
        """Point *ct* at the reuse memo of any pattern-identical trace.

        Only ``key_ids`` and ``footprint`` feed the reuse-distance pass,
        so equality of those two arrays (verified element-wise; the hash
        is just the bucket) makes memo sharing exact even when the actual
        slice keys differ.
        """
        if ct.n_accesses == 0:
            return ct       # an idle thread: no reuse to share
        h = hashlib.sha1(ct.key_ids.tobytes())
        h.update(ct.footprint.tobytes())
        digest = h.digest()
        with self._lock:
            first = self._patterns.get(digest)
            if first is None:
                self._patterns[digest] = ct
            elif (np.array_equal(ct.key_ids, first.key_ids)
                    and np.array_equal(ct.footprint, first.footprint)):
                object.__setattr__(ct, "reuse_memo", first.reuse_memo)
            return ct

    def flat_trace(self, loop: ThreadedLoop, sim_body,
                   body_key=None) -> ThreadTrace:
        """The (cached) whole-nest serialized trace of *loop*.

        Keyed by the *serialized* order, so e.g. ``bC{R:4}aBc`` and
        ``bcaB{C:4}c @ schedule(dynamic)`` share one entry.
        """
        key = ("flat", self._body_key(sim_body, body_key),
               self._specs_key(loop), _serialize_spec(loop.spec_string))
        return self._get(
            key,
            lambda: trace_flat(loop, self._memo_body(sim_body, body_key)))

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "max_entries": self.max_entries}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._compiled_accesses = 0
            self._holders.clear()
            self._patterns.clear()
            self._sequences.clear()
            self._body_memos.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


_GLOBAL = TraceCache()


def global_trace_cache() -> TraceCache:
    return _GLOBAL
