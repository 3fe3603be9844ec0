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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .trace import ThreadTrace

__all__ = ["CompiledTrace", "ReuseStats", "compile_trace", "hit_levels",
           "stack_distances"]


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
    prev/next occurrence indices and a table of reuse distances keyed by
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
    """
    done_key = ("levels", tuple(map(int, capacities)))
    if memo is not None and done_key in memo:
        return memo[done_key]
    key_ids = np.ascontiguousarray(key_ids, dtype=np.int64)
    fp = np.ascontiguousarray(footprints, dtype=np.int64)
    n = key_ids.size
    n_levels = len(capacities)
    levels = np.full(n, n_levels, dtype=np.int64)
    if np.any(fp <= 0):
        raise ValueError("footprints must be positive")
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
            prev, nxt = _prev_next(key_ids[stream])
            entry = (stream, prev, nxt, int(fp[stream].max()), {})
            if memo is not None:
                memo[("lvl", prefix)] = entry
        stream, prev, nxt, max_fp, dists = entry
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
                dist = _intervening_bytes(prev, nxt, w)
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
    returned array by comparison alone.
    """
    key_ids = np.ascontiguousarray(key_ids, dtype=np.int64)
    fp = np.ascontiguousarray(footprints, dtype=np.int64)
    if np.any(fp <= 0):
        raise ValueError("footprints must be positive")
    prev, nxt = _prev_next(key_ids)
    dist = _intervening_bytes(prev, nxt, fp)
    dist[prev < 0] = -1
    return dist


def _prev_next(keys: np.ndarray) -> tuple:
    """Previous/next occurrence index of each access's key (-1 / n)."""
    n = keys.size
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    if n == 0:
        return prev, nxt
    order = np.argsort(keys, kind="stable")   # stable: time order per key
    sk = keys[order]
    same = np.zeros(n, dtype=bool)
    np.equal(sk[1:], sk[:-1], out=same[1:])
    idx = np.nonzero(same)[0]
    prev[order[idx]] = order[idx - 1]
    nxt[order[idx - 1]] = order[idx]
    return prev, nxt


# dense-path cutoffs: while the number of *repeat* accesses (the queries,
# equally the same-key adjacent pairs) stays below _DENSE_PAIR_MAX, an
# O(pairs^2) masked einsum beats the D&C's per-round numpy overhead; the
# accumulation is pure int64 (exact), guarded only against overflow
_DENSE_PAIR_MAX = 2048
_EXACT_I64 = 1 << 62


def _intervening_bytes_dense(prev: np.ndarray, nxt: np.ndarray,
                             w: np.ndarray, q_idx: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """O(pairs^2) variant of :func:`_intervening_bytes`.

    Complement form of the same latest-in-window count: the keys *not*
    counted in the window ``(p, t)`` are those whose latest in-window
    access ``s`` has ``nxt[s] < t`` — and for ``s > p`` the condition
    ``nxt[s] < t`` alone already implies ``s < nxt[s] < t``.  So

        D(t) = sum(w[p+1 .. t-1]) - sum(w[s] : s > p, nxt[s] < t)

    (the first term counts every in-window access of a key; the second
    removes all but the last, leaving each distinct key counted exactly
    once).  The first term is a prefix-sum difference; the second is a
    mask-matmul over only the accesses that have a next occurrence —
    typically a small fraction of the stream.
    """
    n = prev.size
    cw = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(w, out=cw[1:])
    qp = prev[q_idx]
    window = cw[q_idx] - cw[qp + 1]
    pts = np.nonzero(nxt < n)[0]
    if pts.size:
        # int32 operands halve the comparison bandwidth (positions are
        # array indices, well inside int32); uint8 view of the bool mask
        # feeds an integer einsum — exact, no float round-trip
        p32 = pts.astype(np.int32)
        q32 = q_idx.astype(np.int32)
        mask = ((p32[None, :] > qp.astype(np.int32)[:, None])
                & (nxt[pts].astype(np.int32)[None, :] < q32[:, None]))
        window -= np.einsum("ij,j->i", mask.view(np.uint8), w[pts])
    out[q_idx] = window
    return out


def _intervening_bytes(prev: np.ndarray, nxt: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """Byte-weighted stack distance of every access.

    For access ``t`` with ``prev[t] >= 0``: the sum of ``w[s]`` over
    accesses ``s`` that are the latest access of their key inside the open
    window ``(prev[t], t)`` — i.e. ``prev[t] < s < t`` and ``nxt[s] > t``.
    With per-key-constant weights (guaranteed by :func:`compile_trace`)
    this equals the byte-weighted count of distinct keys in the window.
    Small streams take the O(pairs^2) complement-form matmul; larger ones
    an integer divide-and-conquer over the timeline (activation of ``s``
    at time ``s``, deactivation at time ``nxt[s]``; each query sums the
    active weights in its position window), O(M log^2 M) and exact —
    weights are int64, no floating-point accumulation.
    """
    n = prev.size
    out = np.zeros(n, dtype=np.int64)
    q_idx = np.nonzero(prev >= 0)[0]
    if q_idx.size == 0:
        return out
    w = np.ascontiguousarray(w, dtype=np.int64)
    if (q_idx.size <= _DENSE_PAIR_MAX
            and int(w.max()) <= _EXACT_I64 // q_idx.size):
        return _intervening_bytes_dense(prev, nxt, w, q_idx, out)
    nq = q_idx.size
    d_sel = np.flatnonzero(nxt < n)
    m = nq + n + d_sel.size
    # positions and ranks are int32 whenever they fit (m <= 3n); the
    # weights and their sums stay int64, so distances stay exact
    it = np.int32 if 3 * n < 2 ** 31 else np.int64
    # one timeline of queries (at q_idx), activations (s at time s) and
    # deactivations (s at time nxt[s]), keyed 2*time + kind so that at
    # equal times queries rank before points — exactly right: a
    # deactivation at time t belongs to s = prev[t] (outside the open
    # window) and an activation at time t is t itself
    sort_key = np.empty(m, dtype=it)
    sort_key[:nq] = q_idx * 2
    sort_key[nq:nq + n] = np.arange(1, 2 * n, 2, dtype=it)
    sort_key[nq + n:] = nxt[d_sel] * 2 + 1
    order = np.argsort(sort_key, kind="stable")
    del sort_key
    rank = np.empty(m, dtype=it)
    rank[order] = np.arange(m, dtype=it)
    del order
    q_rank = rank[:nq]
    p_rank = rank[nq:]
    p_pos = np.concatenate([np.arange(n, dtype=it), d_sel.astype(it)])
    p_wt = np.concatenate([w, -w[d_sel]])
    del d_sel
    q_prev = prev[q_idx].astype(it)
    q_pos = q_idx.astype(it)
    dist = np.zeros(nq, dtype=np.int64)
    big = np.int64(n + 2)
    for shift in range((m - 1).bit_length()):
        _add_block_pairs(dist, shift, p_rank, p_pos, p_wt, q_rank, q_prev,
                         q_pos, big)
    out[q_idx] = dist
    return out


def _add_block_pairs(dist, shift, p_rank, p_pos, p_wt, q_rank, q_prev,
                     q_pos, big) -> None:
    """One level of :func:`_intervening_bytes`' divide-and-conquer, at
    block size ``2**shift`` in rank order: points in even (left)
    half-blocks contribute to queries in the odd (right) sibling, so
    every rank-ordered (point, query) pair is counted at exactly one
    level.  Its temporaries die with the call."""
    p_blk = p_rank >> shift
    q_blk = q_rank >> shift
    psel = (p_blk & 1) == 0
    qsel = (q_blk & 1) == 1
    if not (psel.any() and qsel.any()):
        return
    pk = (p_blk[psel] >> 1).astype(np.int64) * big + p_pos[psel]
    del p_blk
    o = np.argsort(pk, kind="stable")
    pk = pk[o]
    cw = np.zeros(pk.size + 1, dtype=np.int64)
    np.cumsum(p_wt[psel][o], out=cw[1:])
    del o, psel
    qbase = (q_blk[qsel] >> 1).astype(np.int64) * big
    del q_blk
    lo = np.searchsorted(pk, qbase + q_prev[qsel], side="right")
    hi = np.searchsorted(pk, qbase + q_pos[qsel], side="left")
    del pk, qbase
    dist[qsel] += cw[hi] - cw[lo]
