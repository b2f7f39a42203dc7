"""Golden outputs: theorem-2 reports and CLI payloads, bit for bit.

The expected values in golden_outputs.json were written by snapshot() from
the code before verify_theorem2's integer rewrite (Sym(n) rows, wall
evaluation and enumeration costs in integers), so these tests pin that the
rewrite changed no verdict, detail, witness or payload.  To recreate the
file from a given tree:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write()"
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tamewall import cli, forms, series
from tamewall.forms import format_form

GOLDEN = Path(__file__).with_name("golden_outputs.json")

THEOREM2_CASES = [(n, False) for n in range(6, 12)] + [(n, True) for n in (6, 7, 9)]
WALL_DIMENSIONS = range(5, 13)
PERFECT_FORMS = [(family, n) for family in ("tf", "dn") for n in range(6, 10)]
# Refuted equivalences: the payload carries both fingerprints.
REFUTED_PAIRS = [
    ("tf5", "d5/2", False),
    ("tf7", "dn7", False),
    ("tf5", "a5", True),
    ("dn6", "tf6", True),
]


def _form(name):
    if name.startswith("tf"):
        return forms.tf_form(int(name[2:]))
    if name.startswith("dn"):
        return forms.dn_neighbor_form(int(name[2:]))
    if name == "d5/2":
        return forms.scale(forms.standard_gram("D", 5), Fraction(1, 2))
    return forms.standard_gram("A", int(name[1:]))


def _value(x):
    """JSON form of a report value: matrices (tuples of rows) as rows of
    rational strings."""
    if isinstance(x, tuple) and x and isinstance(x[0], tuple):
        return [[str(e) for e in row] for row in x]
    if isinstance(x, tuple):
        return [_value(e) for e in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def theorem2_snapshot(n, include_isometry):
    rep = series.verify_theorem2(n, include_isometry=include_isometry)
    return {
        "ok": rep.ok,
        "steps": [[s.name, s.ok, s.detail] for s in rep.steps],
        "data": {key: _value(val) for key, val in sorted(rep.data.items())},
    }


def wall_report_snapshot(n):
    """The whole printed-formula report, including the fields the CLI omits."""
    return {key: _value(val) for key, val in sorted(series.tw_normal(n).printed_formula_report.items())}


def cli_snapshot(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", *argv])
    return {"code": code, "stdout": json.loads(out.getvalue()), "stderr": err.getvalue()}


def _form_file(directory, name):
    path = Path(directory) / f"{name.replace('/', '_')}.form"
    path.write_text(format_form(_form(name)))
    return str(path)


def snapshot(directory):
    """Every golden case, keyed as in golden_outputs.json."""
    out = {}
    for n, iso in THEOREM2_CASES:
        out[f"theorem2 {n} isometry={iso}"] = theorem2_snapshot(n, iso)
    for n in WALL_DIMENSIONS:
        out[f"wall {n}"] = cli_snapshot("wall", str(n))
        out[f"wall report {n}"] = wall_report_snapshot(n)
    for family, n in PERFECT_FORMS:
        out[f"perfect {family}{n}"] = cli_snapshot("perfect", _form_file(directory, f"{family}{n}"))
    for a, b, scaled in REFUTED_PAIRS:
        argv = ["equiv", *(["--scale"] if scaled else []), _form_file(directory, a), _form_file(directory, b)]
        out[f"equiv {a} {b} scale={scaled}"] = cli_snapshot(*argv)
    return out


def write():
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        cases = snapshot(directory)
    lines = [f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}" for key in sorted(cases)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n, include_isometry", THEOREM2_CASES)
def test_verify_theorem2_matches_golden(golden, n, include_isometry):
    assert theorem2_snapshot(n, include_isometry) == golden[f"theorem2 {n} isometry={include_isometry}"]


@pytest.mark.parametrize("n", WALL_DIMENSIONS)
def test_wall_json_matches_golden(golden, n):
    assert cli_snapshot("wall", str(n)) == golden[f"wall {n}"]


@pytest.mark.parametrize("n", WALL_DIMENSIONS)
def test_printed_formula_report_matches_golden(golden, n):
    assert wall_report_snapshot(n) == golden[f"wall report {n}"]


@pytest.mark.parametrize("family, n", PERFECT_FORMS)
def test_perfect_json_matches_golden(golden, tmp_path, family, n):
    got = cli_snapshot("perfect", _form_file(tmp_path, f"{family}{n}"))
    assert got == golden[f"perfect {family}{n}"]


@pytest.mark.parametrize("a, b, scaled", REFUTED_PAIRS)
def test_refuted_equivalence_payload_matches_golden(golden, tmp_path, a, b, scaled):
    argv = ["equiv", *(["--scale"] if scaled else []), _form_file(tmp_path, a), _form_file(tmp_path, b)]
    expected = golden[f"equiv {a} {b} scale={scaled}"]
    got = cli_snapshot(*argv)
    assert expected["code"] == 1
    assert got == expected
