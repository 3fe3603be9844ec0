"""No function in ``src/repro/serve`` or ``src/repro/fleet`` spans more
than 80 lines.

The serve step and the fleet event loop are written as short named
stages over a per-run state object; this tier-1 check, built on
:mod:`ast`, keeps them that way.  A function's span runs from its
``def`` line (decorators excluded) to its last line, docstring and
comments included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_LINES = 80


def _spans(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno - node.lineno + 1


@pytest.mark.parametrize("package", ["serve", "fleet"])
def test_no_function_longer_than_80_lines(package):
    files = sorted((SRC / package).glob("*.py"))
    assert files
    long = [f"{path.relative_to(SRC)}:{line} {name} ({n} lines)"
            for path in files for name, line, n in _spans(path)
            if n > MAX_LINES]
    assert not long, "functions over 80 lines: " + ", ".join(long)
