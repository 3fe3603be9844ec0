"""Smoke test of the ledger benchmark: every workload at ``--smoke`` size.

Runs each workload once untraced and once traced and checks that every
metric ``BENCHMARK.json`` names is emitted with its unit, that all output
checks pass, and that traced self times sum to no more than the traced
wall time.  Outside tier-1's ``testpaths``; run it with::

    python -m pytest benchmarks/ledger/test_ledger_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(run_py, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=cwd)


def _result(workload, trace):
    proc = _run(os.path.join(HERE, "run.py"), workload, trace, ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    plain = _result(workload, 0)
    traced = _result(workload, 1)
    for res, declared in ((plain, SPEC["end_to_end"]),
                          (traced, SPEC["per_layer"])):
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0
    metrics = traced["metrics"]
    assert metrics["trace.window_s"]["value"] > 0
    # every layer's self time, the root's included, within the traced wall
    assert sum(v["value"] for k, v in metrics.items()
               if k.endswith("self_share")) <= 1 + 1e-9


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark's own files has no program
    to measure: the runner exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(str(tmp_path / "benchmarks" / "ledger" / "run.py"),
                "kernels", 0, str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
