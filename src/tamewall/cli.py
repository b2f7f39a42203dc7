"""Command-line front end: every pipeline with bit-exact text/JSON output.

Exit codes: 0 = property verified / data produced, 1 = property refuted
(a valid mathematical answer), 2 = usage or input error, 3 = internal
error (a bug: the traceback goes to stderr and no verdict is given).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import delaunay, dual01, forms, isometry, perfect, series
from .enumeration import arithmetic_minimum
from .forms import QuadraticForm
from .vecset import format_vectors, parse_vectors

DEFAULT_MAX_DIM = 9


class UsageError(ValueError):
    pass


class Refuted(Exception):
    """Mathematically negative outcome; carries the report payload."""

    def __init__(self, payload):
        super().__init__("refuted")
        self.payload = payload


@dataclass
class CommandResult:
    command: str
    status: str  # 'verified' | 'refuted' | 'error' | 'internal-error'
    payload: dict

    @property
    def exit_code(self):
        return {"verified": 0, "refuted": 1, "error": 2, "internal-error": 3}[self.status]


def _frac_str(x):
    return str(Fraction(x))


def _matrix_json(rows):
    return [[_frac_str(x) for x in row] for row in rows]


def _vectors_json(vs):
    return [list(v) for v in vs]


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_form(path) -> QuadraticForm:
    return forms.parse_form(_read_text(path))


def _load_vectors(arg):
    """Vector set from a file, or inline family shorthand fam:PATTERN@N."""
    if arg.startswith("fam:"):
        body = arg[4:]
        if "@" not in body:
            raise UsageError("family shorthand needs a dimension: fam:[...]@N")
        pattern, _, dim = body.rpartition("@")
        try:
            n = int(dim)
        except ValueError:
            raise UsageError(f"bad family dimension {dim!r}") from None
        return series.parse_family(pattern, n).vectors
    return parse_vectors(_read_text(arg))


def _check_dim(n, args, what="this command"):
    if n > args.max_dim:
        raise UsageError(
            f"dimension {n} exceeds --max-dim {args.max_dim} for {what}; "
            "raise --max-dim explicitly to proceed"
        )


def _minimum_payload(report):
    return {
        "minimum": _frac_str(report.minimum),
        "pair_count": report.pair_count,
        "total_count": report.total_count,
        "vectors": _vectors_json(report.vectors),
    }


# -- subcommand implementations ----------------------------------------------

def _cmd_tf(args):
    f = forms.tf_form(args.n)
    return {"n": args.n, "form": _matrix_json(f.gram), "text": forms.format_form(f)}


def _cmd_dn_neighbor(args):
    f = forms.dn_neighbor_form(args.n)
    return {"n": args.n, "form": _matrix_json(f.gram), "text": forms.format_form(f)}


def _cmd_wall(args):
    w = series.tw_normal(args.n)
    rep = w.printed_formula_report
    return {
        "n": args.n,
        "normal": _matrix_json(w.normal),
        "printed_formula": _matrix_json(rep["printed"]),
        "printed_annihilates_as_quadratic": rep["annihilates_as_quadratic"],
        "printed_annihilates_upper_once": rep["annihilates_upper_once"],
        "printed_max_abs_pairing": _frac_str(rep["max_abs_quadratic"]),
    }


def _cmd_minvec(args):
    f = _load_form(args.formfile)
    _check_dim(f.n, args, "minimal-vector enumeration")
    return _minimum_payload(arithmetic_minimum(f))


def _cmd_perfect(args):
    f = _load_form(args.formfile)
    _check_dim(f.n, args, "perfection testing")
    rep = perfect.perfection_report(f)
    payload = {
        "rank": rep.rank,
        "sym_dim": rep.sym_dim,
        "minimal_pair_count": rep.minimal_pair_count,
        "is_perfect": rep.is_perfect,
    }
    if not rep.is_perfect:
        raise Refuted(payload)
    return payload


def _cmd_eutactic(args):
    f = _load_form(args.formfile)
    _check_dim(f.n, args, "eutaxy testing")
    verdict, weights = perfect.is_eutactic(f)
    payload = {"is_eutactic": verdict}
    if weights is not None:
        payload["weights"] = [_frac_str(w) for w in weights]
    if not verdict:
        raise Refuted(payload)
    return payload


def _cmd_dual(args):
    vs = _load_vectors(args.vecfile)
    try:
        dual = dual01.dual01(vs)
    except dual01.DualInfiniteError as exc:
        raise Refuted({"reason": str(exc)}) from None
    return {"count": len(dual), "vectors": _vectors_json(dual), "text": format_vectors(dual)}


def _cmd_doubledual(args):
    vs = _load_vectors(args.vecfile)
    try:
        dd = dual01.double_dual01(vs)
    except dual01.DualInfiniteError as exc:
        raise Refuted({"reason": str(exc)}) from None
    return {"count": len(dd), "vectors": _vectors_json(dd), "text": format_vectors(dd)}


def _cmd_delaunay_check(args):
    f = _load_form(args.formfile)
    pts = _load_vectors(args.vecfile)
    _check_dim(f.n, args, "Delaunay verification")
    cert = delaunay.is_delaunay_cell(f, pts)
    payload = {"certificate": cert.to_json()}
    if not cert.verdict:
        raise Refuted(payload)
    return payload


def _cmd_cell(args):
    f = _load_form(args.formfile)
    _check_dim(f.n, args, "cell location")
    try:
        point = [Fraction(p) for p in args.point]
    except (ValueError, ZeroDivisionError):
        raise UsageError("point coordinates must be rationals like 2/5") from None
    if len(point) != f.n:
        raise UsageError(f"expected {f.n} coordinates, got {len(point)}")
    try:
        cell = delaunay.delaunay_cell_containing(f, point)
    except delaunay.NonGenericPointError as exc:
        raise Refuted({
            "reason": "non-generic point",
            "face_vertices": _vectors_json(exc.face_vertices),
        }) from None
    return {"vertex_count": len(cell), "vertices": _vectors_json(cell), "text": format_vectors(cell)}


def _cmd_volume(args):
    pts = _load_vectors(args.vecfile)
    return {"relative_volume": delaunay.relative_volume(pts)}


def _cmd_radon(args):
    pts = _load_vectors(args.vecfile)
    rad = delaunay.radon_triangulations(pts)
    return {
        "dependence": list(rad.dependence),
        "volumes_plus": list(rad.volumes_plus),
        "volumes_minus": list(rad.volumes_minus),
        "cells_plus": [_vectors_json(c) for c in rad.cells_plus],
        "cells_minus": [_vectors_json(c) for c in rad.cells_minus],
    }


def _cmd_equiv(args):
    a = _load_form(args.formfile_a)
    b = _load_form(args.formfile_b)
    _check_dim(max(a.n, b.n), args, "equivalence testing")
    if args.scale:
        sim = isometry.are_similar(a, b)
        if sim is None:
            raise Refuted(_fingerprint_diff(a, b))
        c, u = sim
        return {"equivalent": True, "scale": _frac_str(c), "witness": _matrix_json(u)}
    u = isometry.are_equivalent(a, b)
    if u is None:
        raise Refuted(_fingerprint_diff(a, b))
    return {"equivalent": True, "witness": _matrix_json(u)}


def _fingerprint_diff(a, b):
    def fp(f):
        rep = arithmetic_minimum(f)
        return {
            "dimension": f.n,
            "determinant": _frac_str(f.determinant()),
            "minimum": _frac_str(rep.minimum),
            "pair_count": rep.pair_count,
            "total_count": rep.total_count,
        }
    return {"equivalent": False, "fingerprint_a": fp(a), "fingerprint_b": fp(b)}


def _cmd_family(args):
    try:
        fam = series.parse_family(args.pattern, args.n)
    except series.FamilyCountError as exc:
        raise Refuted({
            "reason": "declared count does not match expansion",
            "declared": _frac_str(exc.declared),
            "actual": exc.actual,
            "vectors": _vectors_json(exc.vectors),
        }) from None
    return {
        "count": len(fam.vectors),
        "declared_count": _frac_str(fam.declared_count) if fam.declared_count is not None else None,
        "vectors": _vectors_json(fam.vectors),
        "text": format_vectors(fam.vectors, fam.n),
    }


def _theorem_payload(rep):
    payload = {
        "n": rep.n,
        "ok": rep.ok,
        "steps": [{"name": s.name, "ok": s.ok, "detail": s.detail} for s in rep.steps],
    }
    if "minimal_vector_count" in rep.data:
        payload["minimal_vector_count"] = rep.data["minimal_vector_count"]
    if "epsilon" in rep.data:
        payload["epsilon"] = _frac_str(rep.data["epsilon"])
    return payload


def _cmd_theorem1(args):
    _check_dim(args.n, args, "theorem-1 verification")
    rep = series.verify_theorem1(args.n)
    payload = _theorem_payload(rep)
    if not rep.ok:
        raise Refuted(payload)
    return payload


def _cmd_theorem2(args):
    _check_dim(args.n, args, "theorem-2 verification")
    rep = series.verify_theorem2(args.n)
    payload = _theorem_payload(rep)
    if not rep.ok:
        raise Refuted(payload)
    return payload


def _cmd_gosset_census(args):
    rep = series.gosset_census()
    payload = {
        "vertex_count": rep.vertex_count,
        "volume_histogram": {str(k): v for k, v in sorted(rep.volume_histogram.items())},
        "max_volume": rep.max_volume,
        "count_at_max": rep.count_at_max,
        "matches_expected": rep.matches_expected,
    }
    if not rep.matches_expected:
        raise Refuted(payload)
    return payload


def _cmd_perturb(args):
    f = _load_form(args.formfile)
    cell = _load_vectors(args.vecfile)
    subset = _load_vectors(args.subsetfile)
    _check_dim(f.n, args, "perturbation checking")
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--alpha must be a positive rational like 1/10") from None
    quad = delaunay.circumscribed_quadric(f, cell)
    if quad.status != "ok":
        raise UsageError("cell vertices are not co-spherical under the form")
    phi = delaunay.InhomogeneousQuadratic.from_circumsphere(f, quad.center, quad.r2)
    rep = delaunay.perturbation_check(f, phi, cell, subset, alpha)
    payload = {
        "verdict": rep.verdict,
        "boundary": _vectors_json(rep.boundary),
        "interior": _vectors_json(rep.interior),
    }
    if rep.failure_reason:
        payload["failure_reason"] = rep.failure_reason
    if rep.level_vectors:
        payload["level_vectors"] = {
            str(list(v)): list(p) for v, p in sorted(rep.level_vectors.items())
        }
    if not rep.verdict:
        raise Refuted(payload)
    return payload


# -- argument parsing and dispatch --------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="tamewall",
        description="Exact verification of big Delaunay simplexes, repartitioning "
        "complexes, the tame wall, and the adjacent perfect forms.",
    )
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    top.add_argument(
        "--max-dim",
        type=int,
        default=DEFAULT_MAX_DIM,
        help=f"guard for enumeration-heavy commands (default {DEFAULT_MAX_DIM})",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("tf", _cmd_tf, help="print the wall-adjacent perfect form")
    p.add_argument("n", type=int)
    p = add("dn-neighbor", _cmd_dn_neighbor, help="print the D_n-side neighbor form")
    p.add_argument("n", type=int)
    p = add("wall", _cmd_wall, help="derive the wall normal and the printed-formula report")
    p.add_argument("n", type=int)
    p = add("minvec", _cmd_minvec, help="arithmetic minimum and minimal vectors")
    p.add_argument("formfile")
    p = add("perfect", _cmd_perfect, help="perfection test")
    p.add_argument("formfile")
    p = add("eutactic", _cmd_eutactic, help="eutaxy test by exact LP")
    p.add_argument("formfile")
    p = add("dual", _cmd_dual, help="(0,1)-dual of a vector set")
    p.add_argument("vecfile")
    p = add("doubledual", _cmd_doubledual, help="double (0,1)-dual")
    p.add_argument("vecfile")
    p = add("delaunay-check", _cmd_delaunay_check, help="exact Delaunay-cell certificate")
    p.add_argument("formfile")
    p.add_argument("vecfile")
    p = add("cell", _cmd_cell, help="Delaunay cell containing a generic point")
    # A coordinate such as -1/3 is a value, not an option; argparse reads
    # only negative integers and decimals that way unless told otherwise.
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("formfile")
    p.add_argument("point", nargs="+", help="rational coordinates, e.g. 2/5 1/3")
    p = add("volume", _cmd_volume, help="relative volume of a lattice simplex")
    p.add_argument("vecfile")
    p = add("radon", _cmd_radon, help="the two triangulations of a circuit")
    p.add_argument("vecfile")
    p = add("equiv", _cmd_equiv, help="unimodular equivalence of two forms")
    p.add_argument("formfile_a")
    p.add_argument("formfile_b")
    p.add_argument("--scale", action="store_true", help="allow a positive scale factor")
    p = add("family", _cmd_family, help="expand bracket shorthand for a vector family")
    p.add_argument("pattern")
    p.add_argument("n", type=int)
    p = add("theorem1", _cmd_theorem1, help="full construction pipeline for one dimension")
    p.add_argument("n", type=int)
    p = add("theorem2", _cmd_theorem2, help="full perfect-wall pipeline for one dimension")
    p.add_argument("n", type=int)
    add("gosset-census", _cmd_gosset_census, help="27-vertex cell census of sub-simplex volumes")
    p = add("perturb", _cmd_perturb, help="isolate a sub-polytope of a cell by perturbation")
    p.add_argument("formfile")
    p.add_argument("vecfile")
    p.add_argument("subsetfile")
    p.add_argument("--alpha", default="1/10")
    return top


def _dispatch(args) -> CommandResult:
    command = args.command
    try:
        payload = args.fn(args)
        return CommandResult(command, "verified", payload)
    except Refuted as exc:
        return CommandResult(command, "refuted", exc.payload)
    except (ValueError, ArithmeticError) as exc:
        return CommandResult(command, "error", {"error": str(exc)})
    except Exception as exc:
        # Anything else, InvariantError included, is a bug; it must not
        # leave with Python's status 1, which means "refuted".
        traceback.print_exc(file=sys.stderr)
        return CommandResult(command, "internal-error", {"error": f"{type(exc).__name__}: {exc}"})


def _render_text(result: CommandResult, out):
    payload = dict(result.payload)
    text = payload.pop("text", None)
    # Commands whose natural output is a file format print exactly that
    # format on stdout so they can be piped; a scalar summary goes to
    # stderr instead.
    if text is not None and out is sys.stdout:
        print(f"status: {result.status}", file=sys.stderr)
        for key, val in payload.items():
            if isinstance(val, (str, int, bool)) or val is None:
                print(f"{key}: {val}", file=sys.stderr)
        print(text, file=out, end="")
        return
    print(f"status: {result.status}", file=out)
    for key, val in payload.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{key}:", file=out)
            for item in val:
                print(f"  - {item}", file=out)
        elif isinstance(val, dict):
            print(f"{key}:", file=out)
            for k, v in val.items():
                print(f"  {k}: {v}", file=out)
        else:
            print(f"{key}: {val}", file=out)
    if text is not None:
        print(text, file=out, end="")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    result = _dispatch(args)
    out = sys.stdout if result.status in ("verified", "refuted") else sys.stderr
    try:
        if args.json:
            payload = {"command": result.command, "status": result.status, **result.payload}
            payload.pop("text", None)
            print(json.dumps(payload, indent=2), file=out)
        else:
            _render_text(result, out)
        out.flush()
    except BrokenPipeError:
        # The reader went away (`tamewall ... | head`).  The stream is
        # pointed at os.devnull so the flush at exit cannot fail again, and
        # the exit code is the shell's for SIGPIPE: not 1, which means
        # "refuted".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
