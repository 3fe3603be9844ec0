"""Memoized trace capture (the tuning-throughput cache).

Tracing a candidate means running the generated nest with a recording
body — but the *trace content* only depends on the iteration order, not
on which machine model replays it, and many candidates share an order:

* spec strings differing only in barriers (``|``) visit identical
  per-thread iteration sequences, and
* spec strings differing only in parallel annotations serialize to the
  same flat order (``_serialize_spec``), which is all the engine's
  dynamic path needs.

:class:`TraceCache` exploits both: a bounded, thread-safe LRU keyed by
``(body, loop declarations, normalized order, num_threads, tid)`` holding
raw :class:`ThreadTrace` objects (for the engine) and their
:class:`~repro.simulator.reuse.CompiledTrace` forms (for the vectorized
perfmodel).  Tuning sweeps across several machine models — the paper
tunes on four testbeds — then trace each candidate exactly once.

Cached traces are shared: consumers must treat them as immutable.  The
body function itself is the default cache-key component, so ``sim_body``
must be a pure function of ``ind``; if you rebuild the closure per call,
pass a stable ``body_key`` instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from .reuse import CompiledTrace, compile_trace
from .trace import ThreadTrace, _serialize_spec, trace_threaded_loop

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
    """Bounded, thread-safe memo for per-thread and flat traces."""

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        #: sha1(key_ids, footprint) -> (key_ids, footprint, reuse_memo);
        #: lets pattern-identical compiled traces share reuse distances
        self._patterns: OrderedDict = OrderedDict()
        #: body key -> {tuple(ind): sim_body result}; candidates sweep the
        #: same iteration space, so body events are shared across traces
        self._body_memos: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

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
        obs = _obs()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if obs.enabled:
                    obs.inc("cache_events", cache="trace", kind="hit")
                return entry
        # build outside the lock (tracing can be slow); a racing duplicate
        # build produces an identical trace and is harmless
        with obs.span("trace_capture", kind=key[0]):
            value = build()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if obs.enabled:
                    obs.inc("cache_events", cache="trace", kind="hit")
                return existing
            self.misses += 1
            if obs.enabled:
                obs.inc("cache_events", cache="trace", kind="miss")
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return value

    # -- public API -------------------------------------------------------

    def thread_trace(self, loop: ThreadedLoop, sim_body, tid: int,
                     body_key=None) -> ThreadTrace:
        """The (cached) trace of thread *tid* of *loop*."""
        key = ("thread", self._body_key(sim_body, body_key),
               self._specs_key(loop), _thread_order_key(loop.spec_string),
               loop.num_threads, tid)
        return self._get(
            key, lambda: trace_threaded_loop(
                loop, self._memo_body(sim_body, body_key), tids=[tid])[0])

    def compiled_thread_trace(self, loop: ThreadedLoop, sim_body, tid: int,
                              body_key=None) -> CompiledTrace:
        """Array-compiled form of :meth:`thread_trace` (also cached).

        Compiled traces with identical ``(key_ids, footprint)`` patterns —
        e.g. the tids of a data-parallel nest, which walk isomorphic tile
        sequences whose interned ids coincide — additionally share one
        :attr:`~repro.simulator.reuse.CompiledTrace.reuse_memo`, so the
        reuse-distance pass runs once per *pattern*, not once per thread.
        """
        key = ("threadc", self._body_key(sim_body, body_key),
               self._specs_key(loop), _thread_order_key(loop.spec_string),
               loop.num_threads, tid)
        return self._get(
            key,
            lambda: self._share_reuse_memo(compile_trace(
                self.thread_trace(loop, sim_body, tid, body_key=body_key))))

    def _share_reuse_memo(self, ct: CompiledTrace) -> CompiledTrace:
        """Point *ct* at the reuse memo of any pattern-identical trace.

        Only ``key_ids`` and ``footprint`` feed the reuse-distance pass,
        so equality of those two arrays (verified element-wise; the hash
        is just the bucket) makes memo sharing exact even when the actual
        slice keys differ.
        """
        import hashlib

        import numpy as np
        h = hashlib.sha1(ct.key_ids.tobytes())
        h.update(ct.footprint.tobytes())
        digest = h.digest()
        with self._lock:
            entry = self._patterns.get(digest)
            if entry is not None:
                key_ids, footprint, memo = entry
                if (np.array_equal(ct.key_ids, key_ids)
                        and np.array_equal(ct.footprint, footprint)):
                    object.__setattr__(ct, "reuse_memo", memo)
                return ct
            self._patterns[digest] = (ct.key_ids, ct.footprint,
                                      ct.reuse_memo)
            while len(self._patterns) > self.max_entries:
                self._patterns.popitem(last=False)
            return ct

    def flat_trace(self, loop: ThreadedLoop, sim_body,
                   body_key=None) -> ThreadTrace:
        """The (cached) whole-nest serialized trace of *loop*.

        Keyed by the *serialized* order, so e.g. ``bC{R:4}aBc`` and
        ``bcaB{C:4}c @ schedule(dynamic)`` share one entry.
        """
        from .trace import trace_flat   # late: trace_flat takes a TraceCache
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
            self._patterns.clear()
            self._body_memos.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


_GLOBAL = TraceCache()


def global_trace_cache() -> TraceCache:
    return _GLOBAL
