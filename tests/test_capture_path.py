"""One capture path into the simulator.

Every performance trace the library replays is captured through a
:class:`~repro.simulator.memo.TraceCache`; only the cache itself (and
``trace_flat``, which the cache calls for flat traces) runs
``trace_threaded_loop``.  The verification subsystem captures its own
traces with barrier, chunk and index markers that performance replay
never sees.  Kernel bodies that describe their calls as columns are
compiled without running the nest, by
:func:`~repro.simulator.columns.compile_columns`, which only the cache
calls too, and only the cache compiles an interpreter capture
(``compile_trace``).  These :mod:`ast` checks pin that: a new direct
call elsewhere in ``src/repro`` is a second capture path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CAPTURE_CALLERS = {"simulator/trace.py", "simulator/memo.py",
                   "verify/races.py", "verify/coverage.py"}


def _calls(tree, name: str):
    """Lines of the calls to *name*, plain or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id == name) or (
                    isinstance(fn, ast.Attribute) and fn.attr == name):
                yield node.lineno


def test_only_the_trace_cache_captures_performance_traces():
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = list(_calls(tree, "trace_threaded_loop"))
        if lines:
            callers[path.relative_to(SRC).as_posix()] = lines
    stray = {f: lines for f, lines in callers.items()
             if f not in CAPTURE_CALLERS}
    assert not stray, f"trace_threaded_loop called outside the capture " \
                      f"path: {stray}"
    assert set(callers) == CAPTURE_CALLERS


def _callers(name: str) -> set:
    return {path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if any(_calls(ast.parse(path.read_text(), filename=str(path)),
                          name))}


def test_only_the_trace_cache_compiles_columns():
    assert _callers("compile_columns") == {"simulator/memo.py"}


def test_only_the_trace_cache_compiles_interpreter_traces():
    assert _callers("compile_trace") == {"simulator/memo.py"}
