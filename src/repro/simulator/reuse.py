"""Vectorized reuse-distance (Mattson stack-distance) cache simulation.

The seed perfmodel replays every slice access through per-access
``OrderedDict`` updates (:mod:`repro.simulator.lru`).  This module computes
the same answer in a handful of NumPy passes: a :class:`ThreadTrace` is
*compiled* once into flat arrays (:class:`CompiledTrace`, slice keys
interned to integer ids), and :func:`hit_levels` derives the residency
level of every access for all cache levels simultaneously from
byte-weighted reuse distances.

Equivalence argument (the differential tests in
``tests/simulator/test_reuse_equivalence.py`` check this hit-for-hit
against :class:`~repro.simulator.lru.LRUCache`):

* ``LRUCache`` maintains the invariant *cache contents = the maximal
  prefix of the recency stack whose clamped footprints sum to <= C*: a
  hit only reorders keys inside the prefix, and ``_insert`` evicts
  LRU-first, stopping at the first fit, so every cached key stays more
  recent than every evicted key.  (This needs every footprint to be
  positive — a zero-byte entry sitting at the LRU end *is* evicted by the
  seed but would be kept by any prefix-sum rule — hence the strictness
  check in :func:`compile_trace`.)
* Therefore an access to key ``k`` hits iff a previous access exists and
  ``D + min(f_k, C) <= C``, where ``D = sum(min(f_j, C))`` over the
  *distinct* keys ``j`` accessed strictly between ``k``'s previous access
  and now — the byte-weighted stack distance, with each footprint clamped
  to the capacity exactly as ``LRUCache._insert`` clamps it.
* ``CacheHierarchy.lookup`` stops at the first hitting level, so level
  ``l`` only observes the misses of level ``l-1``: the pass below filters
  the access stream level by level and recomputes distances per filtered
  stream (a full-stream distance per level would be wrong).

The weight of a key must be constant across the trace (the stored
footprint of an LRU entry is the footprint at its last miss); the repo's
event builders (:mod:`repro.simulator.cost`) satisfy this per-key
constancy and :func:`compile_trace` verifies it.

The distances come from one exact int64 pass
(:func:`_intervening_bytes`): each re-access's window weight, a
prefix-sum difference, minus a weighted inversion count over the
re-accesses, which a bottom-up merge sort computes in ``ceil(log2 nq)``
rounds of O(nq) NumPy work for ``nq`` re-accesses.  It is exact for
streams of fewer than 2**31 accesses whose footprints total below 2**62
bytes; :func:`hit_levels` and :func:`stack_distances` raise
``ValueError`` beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .trace import ThreadTrace

__all__ = ["CompiledTrace", "ReuseStats", "compile_trace", "concat_traces",
           "hit_levels", "stack_distances"]


@dataclass(frozen=True)
class ReuseStats:
    """Per-cache-level counters of one :func:`hit_levels` pass."""

    accesses: tuple        # stream length seen by each level
    hits: tuple            # hits per level
    #: inserts whose footprint exceeded the level capacity and was clamped
    #: (mirrors ``LRUCache.capacity_clamps``)
    capacity_clamps: tuple


@dataclass(frozen=True)
class CompiledTrace:
    """A :class:`ThreadTrace` flattened to arrays for vectorized replay.

    Accesses are concatenated in chronological order; ``event_of[i]`` maps
    access ``i`` back to its body-invocation index.  ``compute_cycles`` and
    ``flops`` are per *event* and precomputed with exactly the float
    operations of :meth:`BodyEvent.compute_cycles`, so a vectorized replay
    reproduces the scalar replay bit for bit.

    A compiled trace depends only on its events, so a
    :class:`~repro.simulator.memo.TraceCache` hands one to every thread
    whose trace holds those events; :attr:`ThreadTrace.tid` names the
    thread.
    """

    key_ids: np.ndarray        # int64 [A] interned slice keys
    nbytes: np.ndarray         # float64 [A]
    cost_scale: np.ndarray     # float64 [A]
    footprint: np.ndarray      # int64 [A] cache space occupied
    write: np.ndarray          # bool [A]
    event_of: np.ndarray       # int64 [A] owning event index
    compute_cycles: np.ndarray  # float64 [E]
    flops: np.ndarray          # float64 [E]
    n_events: int
    keys: tuple                # id -> original slice key
    #: scratch memo for :func:`hit_levels` — filtered streams and reuse
    #: distances are capacity-keyed, so replays of the same trace on
    #: different machines share whatever prefix of the hierarchy matches
    reuse_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_accesses(self) -> int:
        return int(self.key_ids.size)

    @cached_property
    def total_flops(self) -> float:
        """Bit-identical to ``ThreadTrace.flops`` (sequential Python sum)."""
        if self.n_events == 0:
            return 0.0
        return float(np.cumsum(self.flops)[-1])


#: the arrays of an event-free trace, in :class:`CompiledTrace` field order
_EMPTY = tuple(np.empty(0, dtype=dt) for dt in (
    np.int64, np.float64, np.float64, np.int64, bool, np.int64, np.float64,
    np.float64))


def compile_trace(trace: ThreadTrace) -> CompiledTrace:
    """Intern and flatten *trace* by concatenating its events' columns.

    Keys are numbered by first occurrence with dict operations over the
    chained key tuples, so no Python code runs once per access.  Raises
    ``ValueError`` when the trace violates the assumptions of the
    reuse-distance equivalence (non-positive footprints, or a key whose
    footprint changes mid-trace); no replay accepts such a trace.
    """
    events = trace.events
    if not events:
        return CompiledTrace(*_EMPTY, 0, ())
    cols = [ev.columns for ev in events]
    key_lists = [c.keys for c in cols]
    index = dict.fromkeys(chain.from_iterable(key_lists))
    keys = tuple(index)
    index = dict(zip(keys, range(len(keys))))
    counts = np.fromiter(map(len, key_lists), dtype=np.int64,
                         count=len(events))
    n = int(counts.sum())
    key_ids = np.fromiter(map(index.__getitem__,
                              chain.from_iterable(key_lists)),
                          dtype=np.int64, count=n)

    def cat(field, dtype):
        return np.concatenate([getattr(c, field) for c in cols],
                              dtype=dtype)

    footprint = cat("footprint", np.int64)
    if n and footprint.min() <= 0:
        at = int(np.argmin(footprint))
        raise ValueError(
            f"reuse-distance replay needs positive footprints, got "
            f"{footprint[at]} for key {keys[key_ids[at]]!r}")
    check_constant_footprints(key_ids, footprint, keys, "mid-trace")
    return CompiledTrace(
        key_ids=key_ids,
        nbytes=cat("nbytes", np.float64),
        cost_scale=cat("cost_scale", np.float64),
        footprint=footprint,
        write=cat("write", bool),
        event_of=np.repeat(np.arange(len(events), dtype=np.int64), counts),
        compute_cycles=np.array([ev.compute_cycles() for ev in events],
                                dtype=np.float64),
        flops=np.array([ev.flops for ev in events], dtype=np.float64),
        n_events=len(events),
        keys=keys,
    )


def concat_traces(parts) -> CompiledTrace:
    """The compiled trace of *parts*' events run one after another, array
    for array what :func:`compile_trace` makes of the concatenated
    events: each part's keys keep their first-occurrence order, and only
    keys new to the run get new ids.  Raises :func:`compile_trace`'s
    ``ValueError`` when a key's footprint differs between parts."""
    def cat(field):
        return np.concatenate([getattr(p, field) for p in parts])

    index = dict.fromkeys(chain.from_iterable(p.keys for p in parts))
    keys = tuple(index)
    index = dict(zip(keys, range(len(keys))))
    key_ids = np.concatenate([np.fromiter(
        map(index.__getitem__, p.keys), np.int64, len(p.keys))[p.key_ids]
        for p in parts])
    footprint = cat("footprint")
    check_constant_footprints(key_ids, footprint, keys, "mid-trace")
    starts = np.cumsum([0] + [p.n_events for p in parts])
    return CompiledTrace(
        key_ids, cat("nbytes"), cat("cost_scale"), footprint, cat("write"),
        np.concatenate([p.event_of + s for p, s in zip(parts, starts)]),
        cat("compute_cycles"), cat("flops"), int(starts[-1]), keys)


def check_constant_footprints(key_ids: np.ndarray, footprint: np.ndarray,
                              keys, where: str) -> None:
    """Raise ``ValueError`` unless every key of the stream *key_ids*
    (ids into *keys*) keeps one footprint, as the LRU equivalence needs.

    One scatter files some footprint per key; whichever access won, a
    key with two footprints then mismatches at one of its accesses."""
    if key_ids.size == 0 or footprint.min() == footprint.max():
        return
    filed = np.zeros(int(key_ids.max()) + 1, dtype=np.int64)
    filed[key_ids] = footprint
    bad = np.flatnonzero(filed[key_ids] != footprint)
    if bad.size:
        at = int(bad[0])
        k = int(key_ids[at])
        raise ValueError(
            f"footprint of key {keys[k]!r} changed {where} "
            f"({footprint[at]} vs {filed[k]}); per-key-constant "
            f"footprints are required for the LRU equivalence")


def hit_levels(key_ids, footprints, capacities, memo=None) -> tuple:
    """Residency level of every access under an inclusive LRU hierarchy.

    Returns ``(levels, stats)`` where ``levels[i]`` is the index of the
    level access ``i`` hits (``len(capacities)`` = memory), exactly as
    ``CacheHierarchy(capacities).lookup`` would report, and *stats* is a
    :class:`ReuseStats`.

    *memo* (usually :attr:`CompiledTrace.reuse_memo`) caches the
    expensive intermediates across calls on the same trace.  Each
    *stream entry* — the filtered stream at some level plus its
    previous-occurrence indices and a table of reuse distances keyed by
    *effective* weight cap ``min(cap, max footprint)`` — is memoized
    under the exact capacity prefix that produced it (level ``l``'s
    stream depends only on ``capacities[:l]``).  Two collapses fall out:

    * capacities that clamp nothing yield identical weights, so machines
      whose hierarchies differ only in thresholds share the heavy
      distance pass (the threshold comparison itself is cheap);
    * a level with *zero* hits passes its entry through to the next
      prefix unchanged — for streams that blow out the upper levels this
      reduces the whole hierarchy, on every machine, to one distance
      pass.

    A level whose capacity holds every distinct key of its stream at
    once (a large LLC) needs no distance pass at all: each re-access
    hits.  The whole result is memoized per capacity tuple too, so
    pattern-identical threads replayed on one hierarchy (the sampled
    threads of a tuning candidate, the threads of a data-parallel
    replay) share it; the returned levels are then read-only.

    Raises ``ValueError`` for a non-positive footprint or capacity, and
    for a stream past the exactness bound of the distance pass (2**31
    accesses, 2**62 bytes of footprints in all).
    """
    done_key = ("levels", tuple(map(int, capacities)))
    if memo is not None and done_key in memo:
        return memo[done_key]
    key_ids = np.ascontiguousarray(key_ids, dtype=np.int64)
    fp = _footprints(footprints)
    n = key_ids.size
    n_levels = len(capacities)
    levels = np.full(n, n_levels, dtype=np.int64)
    stream = np.arange(n, dtype=np.int64)   # miss stream of the level above
    accesses, hits, clamps = [], [], []
    prefix = ()                             # capacities applied so far
    entry = None                            # carried over when hits == 0
    for li, cap in enumerate(capacities):
        cap = int(cap)
        if cap <= 0:
            raise ValueError(f"cache capacity must be positive, got {cap}")
        accesses.append(int(stream.size))
        if stream.size == 0:
            hits.append(0)
            clamps.append(0)
            prefix = prefix + (cap,)
            continue
        if entry is None and memo is not None:
            entry = memo.get(("lvl", prefix))
        if entry is None:
            entry = (stream, _prev_index(key_ids[stream]),
                     int(fp[stream].max()), {})
            if memo is not None:
                memo[("lvl", prefix)] = entry
        stream, prev, max_fp, dists = entry
        sf = fp[stream]
        if cap < max_fp:
            w, w_sig = np.minimum(sf, cap), cap
        else:
            w, w_sig = sf, -1               # unclamped: cap-independent
        if int(w[prev < 0].sum()) <= cap:
            # every distinct key fits at once, so D + w <= cap for every
            # re-access: no distance pass needed
            hit = prev >= 0
        else:
            dist = dists.get(w_sig)
            if dist is None:
                dist = _intervening_bytes(prev, w)
                dists[w_sig] = dist
            hit = (prev >= 0) & (dist + w <= cap)
        n_hit = int(np.count_nonzero(hit))
        hits.append(n_hit)
        prefix = prefix + (cap,)
        if n_hit == 0:
            clamps.append(int(np.count_nonzero(sf > cap)))
            if memo is not None:
                memo.setdefault(("lvl", prefix), entry)
            continue                        # stream unchanged; reuse entry
        levels[stream[hit]] = li
        miss = ~hit
        clamps.append(int(np.count_nonzero(sf[miss] > cap)))
        stream = stream[miss]
        entry = None
    done = levels, ReuseStats(tuple(accesses), tuple(hits), tuple(clamps))
    if memo is not None:
        levels.flags.writeable = False
        memo[done_key] = done
    return done


def stack_distances(key_ids, footprints) -> np.ndarray:
    """Byte-weighted reuse (stack) distance of every access; -1 for cold.

    The feature hook behind :mod:`repro.tuner.features`: the same
    distances :func:`hit_levels` thresholds against capacities, exposed
    raw so a learned cost model can summarize the whole locality profile
    of a :class:`CompiledTrace` (histograms over distance) instead of
    committing to one machine's hierarchy.  ``distance[i] <= C - w_i``
    iff access ``i`` would hit an LRU cache of capacity ``C`` (with
    unclamped weights), so per-capacity hit fractions derive from the
    returned array by comparison alone.  Raises ``ValueError`` like
    :func:`hit_levels`.
    """
    key_ids = np.ascontiguousarray(key_ids, dtype=np.int64)
    fp = _footprints(footprints)
    prev = _prev_index(key_ids)
    dist = _intervening_bytes(prev, fp)
    dist[prev < 0] = -1
    return dist


#: the int64 distance pass is exact for streams of fewer than 2**31
#: accesses whose footprints total below 2**62 bytes: its merge keys stay
#: below 2**62, and a distance plus a weight below 2**63
_MAX_ACCESSES = 1 << 31
_MAX_TOTAL_BYTES = 1 << 62


def _footprints(footprints) -> np.ndarray:
    """*footprints* as int64, checked positive and inside the bound of
    the exact distance pass (``ValueError`` otherwise, instead of a
    silent int64 wrap)."""
    fp = np.asarray(footprints)
    if fp.size >= _MAX_ACCESSES:
        raise ValueError(f"reuse distances are exact for streams of fewer "
                         f"than 2**31 accesses, got {fp.size}")
    fp = np.ascontiguousarray(fp, dtype=np.int64)
    if fp.size == 0:
        return fp
    if fp.min() <= 0:
        raise ValueError("footprints must be positive")
    if int(fp.max()) * fp.size >= _MAX_TOTAL_BYTES:
        total = sum(map(int, fp))           # Python ints: no wrap
        if total >= _MAX_TOTAL_BYTES:
            raise ValueError(f"reuse distances are exact for streams whose "
                             f"footprints total below 2**62 bytes, got "
                             f"{total}")
    return fp


def _prev_index(keys: np.ndarray) -> np.ndarray:
    """Index of the previous access to each access's key (-1 if none)."""
    prev = np.full(keys.size, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")   # stable: time order per key
    sk = keys[order]
    idx = np.flatnonzero(sk[1:] == sk[:-1])
    prev[order[idx + 1]] = order[idx]
    return prev


def _intervening_bytes(prev: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Byte-weighted stack distance of every access (0 for cold ones).

    For a re-access ``t`` of a key last accessed at ``p = prev[t]``: the
    weight of the distinct keys accessed strictly inside ``(p, t)``.
    With per-key-constant weights (guaranteed by :func:`compile_trace`)

        D(t) = sum(w[p+1 .. t-1]) - X(t)

    where ``X(t)`` sums ``w[s]`` over the accesses ``s`` inside the
    window whose own previous access is inside it too (``prev[s] > p``,
    which already implies ``s > p``): a key accessed ``m`` times in the
    window is counted ``m`` times by the first term and ``m - 1`` times
    by ``X``.  The first term is a prefix-sum difference.  Numbering the
    re-accesses ``q_0 < q_1 < ...`` in time order with
    ``a_i = prev[q_i]`` (distinct, since each access has at most one
    next access), ``X`` at ``q_i`` is the weighted inversion count

        X_i = sum(w[q_j] : j < i, a_j > a_i)

    which :func:`_weighted_inversions` computes in ``ceil(log2 nq)``
    rounds of O(nq) NumPy work plus one presorted-run merge each.
    Every sum is int64 and exact inside the bound of
    :func:`_footprints`.
    """
    out = np.zeros(prev.size, dtype=np.int64)
    q = np.flatnonzero(prev >= 0)
    if q.size == 0:
        return out
    w = np.ascontiguousarray(w, dtype=np.int64)
    cw = np.zeros(prev.size + 1, dtype=np.int64)
    np.cumsum(w, out=cw[1:])
    a = prev[q]
    out[q] = cw[q] - cw[a + 1] - _weighted_inversions(a, w[q], prev.size)
    return out


def _weighted_inversions(a: np.ndarray, v: np.ndarray, n: int
                         ) -> np.ndarray:
    """``x[i] = sum(v[j] : j < i, a[j] > a[i])`` for distinct ``a`` in
    ``[0, n)``, by a bottom-up merge sort.

    Before round ``r`` the elements are sorted by ``(i >> r, a)``: runs
    of ``h = 2**r`` consecutive elements, each sorted by ``a``.  A stable
    argsort of the merge key ``(position >> (r + 1)) * n + a`` (below
    ``2**62`` for ``n < 2**31``) merges each pair of sibling runs; it
    sees two presorted runs per parent, which it merges in linear time.
    An element of a right run that moves from position ``k`` to ``m``
    has its left sibling run at ``[s - h, s)``, ``s = k & -h``, and
    ``m - (s - h) - (k - s)`` of that run's elements sorted below it,
    so the run's elements above it are ``[s + m - k, s)``: the prefix
    sums ``c`` of the weights in the old order give their weight
    ``c[s] - c[s + m - k]``.  A left-run element has ``m >= k``, so
    clamping ``m - k`` at 0 gives it nothing.  After the last round the
    elements are sorted by ``a``.
    """
    nq = a.size
    pos = np.arange(nq, dtype=np.int64)
    c = np.zeros(nq + 1, dtype=np.int64)
    x = np.zeros(nq, dtype=np.int64)
    ar = a
    for r in range((nq - 1).bit_length()):
        perm = np.argsort((pos >> (r + 1)) * n + ar, kind="stable")
        np.cumsum(v, out=c[1:])
        s = perm & -(1 << r)
        lo = pos - perm
        np.minimum(lo, 0, out=lo)
        lo += s
        x = x[perm]
        x += c[s]
        x -= c[lo]
        ar = ar[perm]
        v = v[perm]
    out = np.empty(nq, dtype=np.int64)
    out[np.argsort(a, kind="stable")] = x
    return out
