"""Rules on the package source that no runtime test would notice."""

import ast
import os
import subprocess
import sys
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


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_functools_cache(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name in _CACHE_DECORATORS for a in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _CACHE_DECORATORS
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_no_functools_caches_in_package():
    # No memoisation behind the caller's back: per-call state only.
    assert _nodes_where(_is_functools_cache) == []


def _is_mutable_container(value):
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def _assigned_names(stmt):
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return {t.id for t in targets if isinstance(t, ast.Name)} or {None}


def _mutable_globals(tree):
    """Line numbers of module-level assignments of a mutable container,
    __all__ aside."""
    return [
        stmt.lineno
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and stmt.value is not None
        and _is_mutable_container(stmt.value)
        and _assigned_names(stmt) != {"__all__"}
    ]


def test_no_module_level_mutable_containers_in_package():
    # A module-global list, dict or set is shared state that outlives a
    # call (a cache by another name); __all__ is the one exception.
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _mutable_globals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


_BARE_ERRORS = {"ArithmeticError", "AssertionError", "RuntimeError", "Exception"}


def _raises_bare_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in _BARE_ERRORS


def test_no_bare_builtin_errors_raised_in_package():
    # Internal invariants raise InvariantError: the CLI reads a bare
    # ArithmeticError as an input error (exit 2), and a bare RuntimeError or
    # Exception tells a caller nothing about what failed.
    assert _nodes_where(_raises_bare_error) == []


# The modules that clear denominators: linalg (linalg.cleared, which gives a
# form its int_gram over den, and the elimination rows), enumeration (the
# LDL scaling).
_LCM_OWNERS = {"linalg.py", "enumeration.py"}


def _uses_lcm(node):
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "lcm" for a in node.names)
    return (isinstance(node, ast.Name) and node.id == "lcm") or (
        isinstance(node, ast.Attribute) and node.attr == "lcm"
    )


def test_lcm_only_where_denominators_are_owned():
    # Any other module reads a form's integer Gram and its one denominator
    # instead of clearing denominators itself.
    found = [site for site in _nodes_where(_uses_lcm) if site.split(":")[0] not in _LCM_OWNERS]
    assert found == []


# linalg defines ldl and forms calls it once per form (QuadraticForm.ldl);
# every other module reads a form's kept factors.
_LDL_CALLERS = {"linalg.py", "forms.py"}


def _calls_linalg_ldl(node):
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "ldl" for a in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "ldl") or (
        isinstance(func, ast.Attribute)
        and func.attr == "ldl"
        and isinstance(func.value, ast.Name)
        and func.value.id == "linalg"
    )


def test_ldl_called_only_where_forms_are_factored():
    found = [site for site in _nodes_where(_calls_linalg_ldl) if site.split(":")[0] not in _LDL_CALLERS]
    assert found == []


# One exact enumerator behind every lattice-point query: other modules call
# the enumeration queries, never the private search itself.
def _names_enumerator(node):
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "_Enumerator" for a in node.names)
    return (isinstance(node, ast.Name) and node.id == "_Enumerator") or (
        isinstance(node, ast.Attribute) and node.attr == "_Enumerator"
    )


def test_enumerator_named_only_in_enumeration():
    found = [site for site in _nodes_where(_names_enumerator) if site.split(":")[0] != "enumeration.py"]
    assert found == []


_IMPORT_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import tamewall\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


def _foreign_modules(names):
    """The module names outside the standard library and the package."""
    return sorted(
        name for name in names if name.split(".")[0] not in sys.stdlib_module_names | {"tamewall"}
    )


def test_import_loads_only_the_standard_library_and_the_package():
    # pyproject.toml declares dependencies = []: numpy or sympy may be
    # installed, but `import tamewall` in a fresh interpreter loads neither,
    # nor any other third-party module.  Import time is also the setup cost
    # of every benchmark probe.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = probe.stdout.split()
    assert "tamewall.forms" in loaded
    assert _foreign_modules(loaded) == []


def test_source_rules_catch_what_they_forbid():
    bad = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "_TABLE = {}\n"
        "_SEEN: list = []\n"
        "_POOL = set()\n"
        "__all__ = ['x']\n"
        "@functools.cache\n"
        "def f():\n"
        "    local = {}\n"
        "    raise ArithmeticError('codimension')\n"
        "    raise InvariantError('typed')\n"
        "    raise\n"
        "from math import lcm\n"
        "den = math.lcm(2, lcm(3, 4))\n"
        "from .linalg import ldl\n"
        "factors = linalg.ldl(gram)\n"
        "factors = form.ldl()\n"
        "from .enumeration import _Enumerator, vectors_up_to\n"
        "m = enumeration._Enumerator(f).run(c, r2, visit)\n"
    )
    assert sum(map(_is_functools_cache, ast.walk(bad))) == 2
    assert _mutable_globals(bad) == [3, 4, 5]
    assert [node.lineno for node in ast.walk(bad) if _raises_bare_error(node)] == [10]
    assert sorted(node.lineno for node in ast.walk(bad) if _uses_lcm(node)) == [13, 14, 14]
    assert sorted(node.lineno for node in ast.walk(bad) if _calls_linalg_ldl(node)) == [15, 16]
    assert sorted(node.lineno for node in ast.walk(bad) if _names_enumerator(node)) == [18, 19]
    loaded = ["numpy", "numpy.linalg", "sympy", "fractions", "_decimal", "tamewall", "tamewall.forms"]
    assert _foreign_modules(loaded) == ["numpy", "numpy.linalg", "sympy"]
