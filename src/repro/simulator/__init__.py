"""Trace-driven performance simulation: the lightweight Box-B3 perfmodel
(§II-E) and the richer measurement engine standing in for the testbeds."""

from .cost import bandwidth_event, brgemm_event, eltwise_event, spmm_event
from .engine import SimResult, simulate, simulate_flat, simulate_traces
from .lru import CacheHierarchy, LRUCache
from .memo import TraceCache, global_trace_cache
from .perfmodel import PerfPrediction, predict, predict_traces
from .reuse import (CompiledTrace, ReuseStats, compile_trace, hit_levels,
                    stack_distances)
from .trace import (Access, BodyEvent, ThreadTrace, trace_flat,
                    trace_threaded_loop)

__all__ = [
    "Access", "BodyEvent", "ThreadTrace", "trace_flat",
    "trace_threaded_loop",
    "LRUCache", "CacheHierarchy",
    "CompiledTrace", "ReuseStats", "compile_trace", "hit_levels",
    "stack_distances",
    "TraceCache", "global_trace_cache",
    "brgemm_event", "spmm_event", "eltwise_event", "bandwidth_event",
    "PerfPrediction", "predict", "predict_traces",
    "SimResult", "simulate", "simulate_flat", "simulate_traces",
]
