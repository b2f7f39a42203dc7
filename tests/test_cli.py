"""Command-line front end: exit protocol, JSON payloads, file round trips."""

import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from tamewall import cli, delaunay, dual01, forms, isometry, perfect, series
from tamewall.enumeration import closest_vectors
from tamewall.errors import InvariantError
from tamewall.forms import QuadraticForm, format_form, parse_form, tf_form
from tamewall.series import s_n_vertices
from tamewall.vecset import VectorParseError, format_vectors, parse_vectors


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_main(capsys, "--json", *argv)
    return code, json.loads(out or err)


@pytest.fixture
def tf6_file(tmp_path):
    path = tmp_path / "tf6.form"
    path.write_text(format_form(tf_form(6)))
    return str(path)


@pytest.fixture
def dn6_file(tmp_path):
    path = tmp_path / "dn6.form"
    path.write_text(format_form(forms.dn_neighbor_form(6)))
    return str(path)


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_pipe_exits_141_without_traceback(capsys, monkeypatch, tmp_path):
    sink = tmp_path / "sink"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = cli.main(["--json", "family", "[1,0^{n-2};0]", "6"])
        # the stream's descriptor now points at os.devnull
        os.write(fd, b"lost")
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""


def test_tf_emits_reparseable_form(capsys):
    # stdout must be exactly the form text, so `tamewall tf 6 > f.form` works
    code, out, err = run_main(capsys, "tf", "6")
    assert code == 0
    assert parse_form(out) == tf_form(6)
    assert "status: verified" in err


def test_dual_stdout_is_exact_vector_format(capsys, tmp_path):
    path = tmp_path / "s6.vec"
    path.write_text(format_vectors(s_n_vertices(6)))
    code, out, _ = run_main(capsys, "dual", str(path))
    assert code == 0
    assert len(parse_vectors(out)) == 21


def test_volume_command(capsys, tmp_path):
    path = tmp_path / "s7.vec"
    path.write_text(format_vectors(s_n_vertices(7)))
    code, payload = run_json(capsys, "volume", str(path))
    assert code == 0
    assert payload["relative_volume"] == 4


def test_minvec_json(capsys, tf6_file):
    code, payload = run_json(capsys, "minvec", tf6_file)
    assert code == 0
    assert payload["minimum"] == "1"
    assert payload["total_count"] == 54


def test_perfect_command(capsys, tf6_file, tmp_path):
    code, payload = run_json(capsys, "perfect", tf6_file)
    assert code == 0 and payload["is_perfect"]
    identity = tmp_path / "id.form"
    identity.write_text("2\n1 0\n0 1\n")
    code, payload = run_json(capsys, "perfect", str(identity))
    assert code == 1
    assert payload["status"] == "refuted"


def test_eutactic_command(capsys, tmp_path):
    identity = tmp_path / "id.form"
    identity.write_text("2\n1 0\n0 1\n")
    code, payload = run_json(capsys, "eutactic", str(identity))
    assert code == 0
    assert payload["weights"] == ["1", "1"]


# Eutaxy weights of the paper's forms, as printed before the LP solved its
# equalities by elimination (tf6, tf7, dn6) and before the LP had one
# problem shape (tf8, dn7, wall6); the weights are the visible LP witness.
# None marks a refutation, which prints no weights.
EUTAXY_GOLDEN = {
    "tf6": ["2/9"] * 27,
    # a = 1/5, b = 11/40, c = 19/40 in minimal-vector order
    "tf7": [{"a": "1/5", "b": "11/40", "c": "19/40"}[x] for x in "aaaababbbbaabbbbabbbabbabaac"],
    # a = 3/20, b = 1/5 in minimal-vector order
    "tf8": [{"a": "3/20", "b": "1/5"}[x] for x in "aaaaababbbbbaabbbbbabbbbabbbabbabaaabbbbbbba"],
    "dn6": ["1/5"] * 30,
    "dn7": ["1/6"] * 42,
    "wall6": None,
}


@pytest.mark.parametrize(
    "name, form",
    [
        ("tf6", lambda: tf_form(6)),
        ("tf7", lambda: tf_form(7)),
        ("tf8", lambda: tf_form(8)),
        ("dn6", lambda: forms.dn_neighbor_form(6)),
        ("dn7", lambda: forms.dn_neighbor_form(7)),
        ("wall6", lambda: forms.wall_interior_form(6)),
    ],
)
def test_eutactic_json_golden(capsys, tmp_path, name, form):
    path = tmp_path / f"{name}.form"
    path.write_text(format_form(form()))
    code, out, err = run_main(capsys, "--json", "eutactic", str(path))
    weights = EUTAXY_GOLDEN[name]
    if weights is None:
        assert (code, err) == (1, "")
        assert json.loads(out) == {"command": "eutactic", "status": "refuted", "is_eutactic": False}
        return
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "command": "eutactic",
        "status": "verified",
        "is_eutactic": True,
        "weights": weights,
    }


def test_dual_and_doubledual(capsys, tmp_path):
    path = tmp_path / "s6.vec"
    path.write_text(format_vectors(s_n_vertices(6)))
    code, payload = run_json(capsys, "dual", str(path))
    assert code == 0
    assert payload["count"] == 21
    code, payload = run_json(capsys, "doubledual", str(path))
    assert code == 0
    assert payload["count"] == 8  # the 8 points of R_6 (origin included)


def test_dual_infinite_is_refuted_not_error(capsys, tmp_path):
    path = tmp_path / "thin.vec"
    path.write_text("2 2\n1 0\n2 0\n")
    code, payload = run_json(capsys, "dual", str(path))
    assert code == 1
    assert "dual infinite" in payload["reason"]


def test_family_command_and_inline_shorthand(capsys, tmp_path):
    code, payload = run_json(capsys, "family", "[1,0^{n-2};0]", "6")
    assert code == 0
    assert payload["count"] == 5
    code, payload = run_json(capsys, "volume", "fam:[0^{n-1};0]@4")
    assert code == 2  # single point is not a simplex


def test_family_count_mismatch_exit1(capsys):
    code, payload = run_json(capsys, "family", "[1,-1,0^{n-3};0]^{\\frac{n-1}{2}}", "6")
    assert code == 1
    assert payload["declared"] == "5/2"
    assert payload["actual"] == 20


def test_family_overlong_repeat_is_an_input_error(capsys):
    # the expanded length is checked before 10^11 entries are built
    message = "entries expand to length 100000000000, expected the dimension 5"
    code, payload = run_json(capsys, "family", "[1^99999999999,0]", "5")
    assert code == 2 and payload["error"] == message
    code, out, err = run_main(capsys, "family", "[1^99999999999,0]", "5")
    assert code == 2 and out == "" and f"error: {message}" in err


def test_delaunay_check(capsys, tmp_path):
    form = tmp_path / "wall6.form"
    form.write_text(format_form(forms.wall_interior_form(6)))
    from tamewall.series import r_n_vertices

    vec = tmp_path / "r6.vec"
    vec.write_text(format_vectors(r_n_vertices(6)))
    code, payload = run_json(capsys, "delaunay-check", str(form), str(vec))
    assert code == 0
    assert payload["certificate"]["verdict"]


def test_cell_command(capsys, tmp_path):
    form = tmp_path / "id2.form"
    form.write_text("2\n1 0\n0 1\n")
    code, payload = run_json(capsys, "cell", str(form), "2/5", "1/3")
    assert code == 0
    assert payload["vertex_count"] == 4
    code, payload = run_json(capsys, "cell", str(form), "1/2", "0")
    assert code == 1
    assert payload["reason"] == "non-generic point"


@pytest.mark.parametrize("point", [("-1/3", "1/5"), ("1/3", "-1/5"), ("-1/3", "-.2")])
def test_cell_takes_negative_coordinates_with_or_without_separator(capsys, tmp_path, point):
    form = tmp_path / "id2.form"
    form.write_text("2\n1 0\n0 1\n")
    bare = run_main(capsys, "cell", str(form), *point)
    separated = run_main(capsys, "cell", str(form), "--", *point)
    assert bare[0] == separated[0] == 0
    assert bare[1] == separated[1] != ""
    assert bare[2] == separated[2]


def test_radon_command(capsys, tmp_path):
    from tamewall.series import r_n_vertices

    vec = tmp_path / "r6.vec"
    vec.write_text(format_vectors(r_n_vertices(6)))
    code, payload = run_json(capsys, "radon", str(vec))
    assert code == 0
    vols = sorted([sorted(payload["volumes_plus"]), sorted(payload["volumes_minus"])])
    assert vols == [[1, 1, 1, 1, 1], [1, 1, 3]]


def test_equiv_refuted_with_fingerprint_diff(capsys, tf6_file, tmp_path):
    from fractions import Fraction as F

    d6half = tmp_path / "d6half.form"
    d6half.write_text(format_form(forms.scale(forms.standard_gram("D", 6), F(1, 2))))
    code, payload = run_json(capsys, "equiv", tf6_file, str(d6half))
    assert code == 1
    assert payload["fingerprint_a"]["total_count"] == 54
    assert payload["fingerprint_b"]["total_count"] == 60


def test_equiv_positive_witness(capsys, dn6_file, tmp_path):
    from fractions import Fraction as F

    d6half = tmp_path / "d6half.form"
    d6half.write_text(format_form(forms.scale(forms.standard_gram("D", 6), F(1, 2))))
    code, payload = run_json(capsys, "equiv", dn6_file, str(d6half))
    assert code == 0
    assert payload["equivalent"]


def test_equiv_scale_witness(capsys, tf6_file, tmp_path):
    e6s = tmp_path / "e6s.form"
    e6s.write_text(format_form(forms.standard_gram("E6*")))
    code, payload = run_json(capsys, "equiv", "--scale", tf6_file, str(e6s))
    assert code == 0
    assert payload["scale"] == "3/4"


def test_wall_command(capsys):
    code, payload = run_json(capsys, "wall", "6")
    assert code == 0
    assert payload["normal"][5][5] == "12"
    assert payload["printed_annihilates_as_quadratic"] is False


def test_theorem2_json_has_minimal_vector_count(capsys):
    code, payload = run_json(capsys, "theorem2", "6")
    assert code == 0
    assert payload["minimal_vector_count"] == 54


def test_gosset_census_json(capsys):
    code, payload = run_json(capsys, "gosset-census")
    assert code == 0
    assert payload["status"] == "verified"
    assert payload["vertex_count"] == 27
    assert payload["volume_histogram"] == {"0": 497070, "1": 381672, "2": 9072, "3": 216}
    assert payload["max_volume"] == 3
    assert payload["count_at_max"] == 216


def test_theorem1_n5_exits_refuted(capsys):
    code, payload = run_json(capsys, "theorem1", "5")
    assert code == 1
    failing = [s["name"] for s in payload["steps"] if not s["ok"]]
    assert "dual_families" in failing


def test_malformed_form_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.form"
    bad.write_text("2\n1 2\n1\n")
    code, payload = run_json(capsys, "minvec", str(bad))
    assert code == 2
    assert "line" in payload["error"]


# One input error of each kind the library raises, all ValueErrors:
# (exception type, input file text or None, command line; {file} is the file).
_INPUT_ERRORS = [
    (cli.UsageError, "2\n1 0\n0 1\n", ["cell", "{file}", "abc", "1/2"]),
    (forms.FormParseError, "2\n1 2\n1\n", ["minvec", "{file}"]),
    (VectorParseError, "2 2\n1 0\n", ["volume", "{file}"]),
    (series.FamilyParseError, None, ["family", "[1,0^{n-2}", "6"]),
]


@pytest.mark.parametrize("error, text, argv", _INPUT_ERRORS, ids=[e.__name__ for e, _, _ in _INPUT_ERRORS])
def test_input_errors_exit2(capsys, tmp_path, error, text, argv):
    if text is not None:
        (tmp_path / "input").write_text(text)
    argv = [str(tmp_path / "input") if arg == "{file}" else arg for arg in argv]
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(error) as exc:
        args.fn(args)
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload == {"command": argv[0], "status": "error", "error": str(exc.value)}


# Each command that bounds its dimension by --max-dim, with the arguments
# of a 10-dimensional input ({form} and {vecs} are files).
_DIM_GUARDED = {
    "minvec": ["{form}"],
    "perfect": ["{form}"],
    "eutactic": ["{form}"],
    "delaunay-check": ["{form}", "{vecs}"],
    "cell": ["{form}"] + ["1/3"] * 10,
    "equiv": ["{form}", "{form}"],
    "theorem1": ["10"],
    "theorem2": ["10"],
    "perturb": ["{form}", "{vecs}", "{vecs}"],
}

# Every library entry point those commands reach.
_GUARDED_CALLS = [
    (cli, "arithmetic_minimum"),
    (perfect, "perfection_report"),
    (perfect, "is_eutactic"),
    (delaunay, "is_delaunay_cell"),
    (delaunay, "delaunay_cell_containing"),
    (delaunay, "circumscribed_quadric"),
    (delaunay, "perturbation_check"),
    (isometry, "are_equivalent"),
    (isometry, "are_similar"),
    (series, "verify_theorem1"),
    (series, "verify_theorem2"),
]


@pytest.mark.parametrize("command", sorted(_DIM_GUARDED))
def test_max_dim_guard(capsys, monkeypatch, tmp_path, command):
    # --max-dim is the only dimension guard, so every command needs it
    form = tmp_path / "big.form"
    form.write_text(format_form(forms.QuadraticForm.identity(10)))
    vecs = tmp_path / "big.vec"
    vecs.write_text(format_vectors(s_n_vertices(10)))
    called = []
    for module, name in _GUARDED_CALLS:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: called.append(name))
    argv = [arg.format(form=form, vecs=vecs) for arg in _DIM_GUARDED[command]]
    code, payload = run_json(capsys, command, *argv)
    assert code == 2
    assert payload["error"].startswith("dimension 10 exceeds --max-dim 9 for ")
    assert called == []


def test_raised_max_dim_admits_the_input(capsys, tmp_path):
    big = tmp_path / "big.form"
    big.write_text(format_form(forms.QuadraticForm.identity(10)))
    code, payload = run_json(capsys, "--max-dim", "12", "minvec", str(big))
    assert code == 0
    assert payload["total_count"] == 20


def test_cell_beyond_ten_dimensions_under_raised_max_dim(capsys, monkeypatch, tmp_path):
    # cell location itself refuses no dimension; the stub stands in for the
    # real locator, whose LP over 2^11 seed corners is too slow for a test
    form = tmp_path / "id11.form"
    form.write_text(format_form(forms.QuadraticForm.identity(11)))
    simplex = tuple(tuple(int(i == j) for j in range(11)) for i in range(-1, 11))
    seen = []

    def locate(f, point):
        seen.append((f.n, len(point)))
        return simplex

    monkeypatch.setattr(delaunay, "delaunay_cell_containing", locate)
    code, payload = run_json(capsys, "--max-dim", "12", "cell", str(form), *["1/13"] * 11)
    assert code == 0
    assert seen == [(11, 11)]
    assert payload["vertex_count"] == 12


def _perturb_json(capsys, tmp_path, form, cell, subset, *options):
    paths = []
    for name, text in (
        ("f.form", format_form(form)),
        ("cell.vec", format_vectors(cell)),
        ("sub.vec", format_vectors(subset)),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return run_json(capsys, "perturb", *paths, *options)


def test_perturb_command(capsys, tmp_path):
    code, payload = _perturb_json(
        capsys,
        tmp_path,
        QuadraticForm.identity(2),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0), (1, 0), (1, 1)],
        "--alpha",
        "1/4",
    )
    assert code == 0
    assert payload == {
        "command": "perturb",
        "status": "verified",
        "verdict": True,
        "boundary": [[0, 0], [1, 0], [1, 1]],
        "interior": [],
        "level_vectors": {"[0, 1]": [1, -1]},
    }


def test_perturb_form_and_cell_of_different_dimensions_is_input_error(capsys, tmp_path):
    code, payload = _perturb_json(
        capsys,
        tmp_path,
        QuadraticForm.identity(3),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0), (1, 0), (1, 1)],
    )
    assert code == 2
    assert payload == {"command": "perturb", "status": "error", "error": "vector dimension mismatch"}


# Level vectors of the E6-cell vertices outside its first 7, in the search
# order of find_level_vector.
E6_SUBSET_LEVEL_VECTORS = {
    "[0, 0, -1, -2, -1, -1]": [0, -1, 0, 1, -1, 1],
    "[0, 0, -1, -2, -1, 0]": [0, -1, 0, 1, 0, -1],
    "[0, 0, -1, -1, -1, -1]": [0, 0, 1, -1, 0, 1],
    "[0, 0, -1, -1, -1, 0]": [0, 0, 1, -1, 1, -1],
    "[0, 0, -1, -1, 0, 0]": [0, 0, 1, 0, -1, 0],
    "[0, 0, 0, -1, -1, -1]": [1, 0, -1, 0, 0, 1],
    "[0, 0, 0, -1, -1, 0]": [1, 0, -1, 0, 1, -1],
    "[0, 0, 0, -1, 0, 0]": [1, 0, -1, 1, -1, 0],
    "[0, 0, 0, 0, 0, 0]": [1, 1, 0, -1, 0, 0],
    "[0, 1, 0, 0, 0, 0]": [1, -1, 0, 0, 0, 0],
    "[1, 0, 0, -1, -1, -1]": [-1, 0, 0, 0, 0, 1],
    "[1, 0, 0, -1, -1, 0]": [-1, 0, 0, 0, 1, -1],
    "[1, 0, 0, -1, 0, 0]": [-1, 0, 0, 1, -1, 0],
    "[1, 0, 0, 0, 0, 0]": [-1, 1, 1, -1, 0, 0],
    "[1, 0, 1, 0, 0, 0]": [0, 1, -1, 0, 0, 0],
    "[1, 1, 0, 0, 0, 0]": [-1, -1, 1, 0, 0, 0],
    "[1, 1, 1, 0, 0, 0]": [0, -1, -1, 1, 0, 0],
    "[1, 1, 1, 1, 0, 0]": [0, 0, 0, -1, 1, 0],
    "[1, 1, 1, 1, 1, 0]": [0, 0, 0, 0, -1, 1],
    "[1, 1, 1, 1, 1, 1]": [0, 0, 0, 0, 0, -1],
}


def test_perturb_e6_cell_subset_json_golden(capsys, tmp_path):
    e6 = forms.standard_gram("E6")
    _, cell = closest_vectors(e6, series._CENSUS_CENTER)
    code, payload = _perturb_json(capsys, tmp_path, e6, cell, cell[:7])
    assert code == 0
    assert payload == {
        "command": "perturb",
        "status": "verified",
        "verdict": True,
        "boundary": [
            [-1, -1, -2, -3, -2, -1],
            [0, -1, -2, -3, -2, -1],
            [0, -1, -1, -3, -2, -1],
            [0, -1, -1, -2, -2, -1],
            [0, -1, -1, -2, -1, -1],
            [0, -1, -1, -2, -1, 0],
            [0, 0, -1, -2, -2, -1],
        ],
        "interior": [],
        "level_vectors": E6_SUBSET_LEVEL_VECTORS,
    }


@pytest.mark.parametrize("fault", [KeyError("injected"), InvariantError("injected")])
def test_internal_fault_exits_3_with_traceback(capsys, monkeypatch, fault):
    # an internal bug must never look like a refutation (exit 1)
    def broken(n):
        raise fault

    monkeypatch.setattr(series, "verify_theorem1", broken)
    code, out, err = run_main(capsys, "theorem1", "6")
    assert code == 3
    assert out == ""
    assert "status: internal-error" in err
    assert "Traceback" in err and type(fault).__name__ in err
    code, out, err = run_main(capsys, "--json", "theorem1", "6")
    assert code == 3
    assert out == "" and "Traceback" in err
    payload = json.loads(err[err.index("\n{") + 1:])  # the report follows the traceback
    assert payload["status"] == "internal-error"
    assert payload["error"].startswith(type(fault).__name__)


def test_dual_invariant_failure_exits_3_not_refuted(capsys, monkeypatch, tmp_path):
    # a lattice point strictly inside the dual ellipsoid contradicts the
    # identity dual01 rests on; that is a bug, never a refutation
    def interior(form, center, r2):
        return tuple([0] * form.n), None

    monkeypatch.setattr(dual01, "first_interior_point", interior)
    path = tmp_path / "s6.vec"
    path.write_text(format_vectors(s_n_vertices(6)))
    code, out, err = run_main(capsys, "dual", str(path))
    assert code == 3
    assert out == ""
    assert "status: internal-error" in err and "InvariantError" in err


def test_wall_invariant_failure_exits_3_not_input_error(capsys, monkeypatch):
    # the dual images of S_n span a hyperplane of Sym(n) by construction; a
    # codimension of 2 is a bug, not a bad input (exit 2)
    monkeypatch.setattr(series, "sym_codimension", lambda vectors, n: 2)
    code, out, err = run_main(capsys, "wall", "6")
    assert code == 3
    assert out == ""
    assert "status: internal-error" in err and "InvariantError" in err


def test_unknown_command_exit2(capsys):
    assert cli.main(["no-such-command"]) == 2


def test_emitted_vector_files_reparse(capsys, tmp_path):
    code, payload = run_json(capsys, "family", "[1^{n-2},0;1]", "6")
    assert code == 0
    text = format_vectors([tuple(v) for v in payload["vectors"]])
    assert parse_vectors(text) == tuple(tuple(v) for v in payload["vectors"])


def _readme_command_lines():
    """The `tamewall ...` lines of the README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("tamewall ")]


def test_readme_command_lines_parse(capsys):
    lines = _readme_command_lines()
    assert len(lines) > 10
    refused = []
    for line in lines:
        argv = shlex.split(line, comments=True)
        if ">" in argv:  # the shell's output redirection
            argv = argv[:argv.index(">")]
        try:
            cli._build_parser().parse_args(argv[1:])
        except SystemExit:
            refused.append(line)
    capsys.readouterr()
    assert refused == []
