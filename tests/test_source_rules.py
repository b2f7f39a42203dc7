"""Rules on the package source that no runtime test would notice."""

import ast
from pathlib import Path

import tamewall

SRC = Path(tamewall.__file__).parent


def _nodes_where(predicate):
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if predicate(node)
    ]


def test_no_assert_statements_in_package():
    # Internal invariants raise typed errors: `python -O` strips asserts.
    assert _nodes_where(lambda node: isinstance(node, ast.Assert)) == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_no_floating_point_in_package():
    # Arithmetic is exact throughout: no float literal, no float() call.
    assert _nodes_where(_is_float) == []
