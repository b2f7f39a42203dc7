"""Rules on the package source that no runtime test would notice."""

import ast
from pathlib import Path

import tamewall

SRC = Path(tamewall.__file__).parent


def test_no_assert_statements_in_package():
    # Internal invariants raise typed errors: `python -O` strips asserts.
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
