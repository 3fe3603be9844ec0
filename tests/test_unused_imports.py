"""No dead imports in ``src/repro``.

The dev dependencies include no linter, so this tier-1 test is the
check, built on :mod:`ast`: every name an ``import`` binds must be read
somewhere in its module — as a name or attribute root, inside a string
annotation, or by being listed in ``__all__``.  ``__init__.py``
re-exports and ``__future__`` imports are exempt.  Scopes are not
tracked, so a dead import whose name is read elsewhere in the module
goes unflagged.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotation_names(node) -> set:
    """Names read inside the string constants of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr)
                      if isinstance(n, ast.Name)}
    return names


def _used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)
                     and isinstance(e.value, str)}
    return used


def _imports(tree):
    """``(bound name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def test_src_has_no_unused_imports():
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        dead += [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                 for name, line in _imports(tree) if name not in used]
    assert not dead, "unused imports:\n" + "\n".join(dead)
