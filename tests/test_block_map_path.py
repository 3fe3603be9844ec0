"""One block map per kernel family.

Each kernel family writes its block addresses once, in ``block_map``;
the interpreter's TPP arguments, the shared batched executor, the SDC
final-tile offer and ``sim_body``'s slice keys all read that one
declaration.  These :mod:`ast` checks pin the shape:

* only the shared executor in ``kernels/batched.py`` and the shared
  column capture in ``kernels/base.py`` enumerate a nest's body calls,
  so no family grows its own batched executor or trace builder;
* no family defines a second interpreter body (``_interp_body``) or
  final-tile locator (``_final_tile``);
* the nest runtime never sees fault injection: kernels offer finalised
  tiles themselves, from either backend.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
KERNELS = SRC / "kernels"


def _tree(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls(node, name: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            if (isinstance(fn, ast.Name) and fn.id == name) or (
                    isinstance(fn, ast.Attribute) and fn.attr == name):
                return True
    return False


def test_only_the_shared_executor_enumerates_body_calls():
    callers = {(path.name, fn.name)
               for path in sorted(KERNELS.glob("*.py"))
               for fn in _functions(_tree(path))
               if _calls(fn, "enumerate_inds")}
    assert callers == {("batched.py", "run_batched"),
                       ("base.py", "_call_columns")}


def test_no_family_writes_a_second_body():
    defined = {(path.name, fn.name)
               for path in sorted(KERNELS.glob("*.py"))
               for fn in _functions(_tree(path))
               if fn.name in ("_interp_body", "_final_tile")}
    assert not defined


def test_the_nest_runtime_imports_no_fault_injection():
    imported = set()
    for node in ast.walk(_tree(SRC / "core" / "runtime.py")):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [m for m in imported if "inject" in m.split(".")]
