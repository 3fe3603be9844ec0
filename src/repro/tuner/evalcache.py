"""Persistent evaluation cache — warm-starting repeated sweeps.

A tuning sweep's unit of work is *evaluate candidate X on machine M for
workload W*, and its result never changes (the simulator is
deterministic).  :class:`EvalCache` memoizes exactly that triple so a
re-run of a bench (or an incremental sweep over a grown candidate set)
only evaluates what it has not seen, and can persist the table to JSON
between processes.

Only successful evaluations are cached; invalid candidates re-raise
their (cheap, build-time) errors so :func:`~repro.tuner.search.search`
accounting stays intact.
"""

from __future__ import annotations

import json
import os
import threading

from ..core.cache import load_json_object, write_json_atomic
from ..obs.context import current as _obs
from .generator import Candidate
from .search import TuneOutcome

__all__ = ["EvalCache"]


class EvalCache:
    """Thread-safe ``(candidate, machine, workload) -> outcome`` cache."""

    def __init__(self, path: str | None = None):
        self._lock = threading.Lock()
        self._data: dict = {}
        self.path = path
        self.hits = 0
        self.misses = 0
        if path is not None and os.path.exists(path):
            self.load(path)

    @staticmethod
    def candidate_key(candidate: Candidate) -> str:
        steps = ";".join(",".join(map(str, st))
                         for st in candidate.block_steps)
        return f"{candidate.spec_string}::{steps}"

    def key(self, candidate: Candidate, machine_sig: str,
            workload_sig: str) -> str:
        return f"{self.candidate_key(candidate)}::{machine_sig}::{workload_sig}"

    def lookup(self, key: str):
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        obs = _obs()
        if obs.enabled:
            obs.inc("cache_events", cache="eval",
                    kind="miss" if entry is None else "hit")
        return entry

    def store(self, key: str, score: float, seconds: float) -> None:
        with self._lock:
            self._data[key] = {"score": score, "seconds": seconds}

    def wrap(self, evaluator, machine, workload_sig: str):
        """An evaluator that consults this cache before *evaluator*.

        *machine* is a machine model (its ``name`` is the signature) or a
        plain signature string; *workload_sig* must identify the kernel
        shape + body (e.g. ``"gemm-f32-2048x2048x2048-nt112-st2"``) —
        the cache cannot see the closure, so a colliding signature
        silently returns the wrong numbers.  The wrapper carries
        *evaluator*'s ``.verifier``, so ``verify=True`` still works.
        """
        machine_sig = getattr(machine, "name", None) or str(machine)

        def evaluate(candidate: Candidate) -> TuneOutcome:
            k = self.key(candidate, machine_sig, workload_sig)
            entry = self.lookup(k)
            if entry is not None:
                return TuneOutcome(candidate, entry["score"],
                                   entry["seconds"])
            out = evaluator(candidate)
            if out.valid:
                self.store(k, out.score, out.seconds)
            return out
        evaluate.verifier = getattr(evaluator, "verifier", None)
        return evaluate

    def records(self) -> list:
        """Parsed cache entries, oldest-insertion first.

        Each record is a dict with ``spec_string``, ``block_steps``
        (tuple of int tuples), ``machine_sig``, ``workload_sig``,
        ``score``, ``seconds`` — the training-corpus view consumed by
        :meth:`repro.tuner.model.RidgeCostModel.fit_cache`.  Keys are
        ``spec::steps::machine::workload`` and spec strings never
        contain double colons, so the split is unambiguous.
        """
        with self._lock:
            items = list(self._data.items())
        out = []
        for key, entry in items:
            parts = key.split("::", 3)
            if len(parts) != 4:
                continue
            spec_string, steps, machine_sig, workload_sig = parts
            block_steps = tuple(
                tuple(int(x) for x in group.split(",")) if group else ()
                for group in steps.split(";")) if steps else ()
            out.append({"spec_string": spec_string,
                        "block_steps": block_steps,
                        "machine_sig": machine_sig,
                        "workload_sig": workload_sig,
                        "score": entry["score"],
                        "seconds": entry["seconds"]})
        return out

    def save(self, path: str | None = None) -> str:
        """Atomically persist the table as JSON; returns the path."""
        path = path or self.path
        if path is None:
            raise ValueError("EvalCache.save needs a path")
        with self._lock:
            payload = json.dumps(self._data, indent=0, sort_keys=True)
        return write_json_atomic(path, payload)

    def load(self, path: str) -> int:
        """Merge entries from *path*; returns how many were loaded.

        A corrupt file (truncated write, bad JSON, or a payload that is
        not the expected dict-of-entries) is quarantined to
        ``<path>.corrupt`` with a warning and the cache starts empty —
        a damaged warm-start must never kill the sweep it was meant to
        speed up."""
        loaded = load_json_object(path, "eval cache")
        with self._lock:
            self._data.update(loaded)
        return len(loaded)

    def __len__(self) -> int:
        return len(self._data)
