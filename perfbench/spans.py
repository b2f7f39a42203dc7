"""Per-layer tracing from outside the program.

The layers are the `tamewall` modules.  `traced(tracer)` replaces each
public function listed in LAYERS by a timing wrapper in every `tamewall`
module that holds a binding to it (a `from .enumeration import ...` copies
the binding, so patching the defining module alone would miss those
calls), and restores the originals on exit.

Spans are aggregated in memory by (name, parent name): a count, the total
seconds and the self seconds (total minus the time of traced children).
Hot leaves such as the determinant kernel are aggregated the same way but
never pushed on the span stack, so the 888,030 census determinants cost
two clock reads each and no per-call record.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

ROOT = "job"

# (module, function, span name, leaf)
LAYERS = (
    ("series", "verify_theorem1", "series.theorem1", False),
    ("series", "verify_theorem2", "series.theorem2", False),
    ("series", "gosset_census", "series.census", False),
    ("series", "tw_normal", "series.tw_normal", False),
    ("enumeration", "arithmetic_minimum", "enumeration.minimum", False),
    ("enumeration", "vectors_up_to", "enumeration.up_to", False),
    ("enumeration", "lattice_points_in_ellipsoid", "enumeration.ellipsoid", False),
    ("enumeration", "closest_vectors", "enumeration.closest", False),
    ("delaunay", "is_delaunay_cell", "delaunay.is_cell", False),
    ("delaunay", "delaunay_cell_containing", "delaunay.locate", False),
    ("delaunay", "perturbation_check", "delaunay.perturb", False),
    ("delaunay", "find_level_vector", "delaunay.level_vector", False),
    ("dual01", "dual01", "dual01", False),
    ("perfect", "perfection_report", "perfect.perfection", False),
    ("perfect", "is_eutactic", "perfect.eutaxy", False),
    ("isometry", "are_equivalent", "isometry.equivalent", False),
    ("lp", "lp_solve", "lp", False),
    ("linalg", "rank", "linalg.rank", False),
    ("linalg", "solve", "linalg.solve", False),
    ("linalg", "nullspace", "linalg.nullspace", False),
    ("linalg", "inverse", "linalg.inverse", False),
    ("linalg", "ldl", "linalg.ldl", False),
    ("kernels", "det_int", "kernels.det", True),
    ("kernels", "det_int_flat", "kernels.det", True),
)


class Tracer:
    """Aggregated spans: stats[(name, parent)] = [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {}
        self.counts = {"enumeration.ellipsoid.points": 0, "dual01.rhs": 0, "dual01.kept": 0}
        self._stack = [[None, 0.0]]  # open frames: [name, seconds of traced children]

    def wrap(self, name, fn, leaf=False):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        note = _NOTES.get(name)

        if leaf:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    parent = stack[-1]
                    parent[1] += dt
                    rec = stats.get((name, parent[0]))
                    if rec is None:
                        rec = stats[name, parent[0]] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[1] += dt
                    rec = stats.setdefault((name, parent[0]), [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if note is not None:
                    note(self.counts, out)
                return out

        return functools.wraps(fn)(wrapper)

    def _sum(self, index, layer, parent):
        return sum(
            rec[index]
            for (name, par), rec in self.stats.items()
            if (name == layer or name.startswith(layer + ".")) and parent in (None, par)
        )

    def calls(self, layer, parent=None):
        """Calls of the spans named `layer` or `layer.*`, optionally only
        those made directly under the span `parent`."""
        return self._sum(0, layer, parent)

    def self_s(self, layer, parent=None):
        """Self seconds of the same spans."""
        return self._sum(2, layer, parent)

    def coverage(self):
        """Share of the jobs' time spent inside spans they opened."""
        jobs = self._sum(1, ROOT, None)
        inside = sum(rec[1] for (_, par), rec in self.stats.items() if par == ROOT)
        return inside / jobs if jobs else 0.0


def _note_ellipsoid(counts, report):
    counts["enumeration.ellipsoid.points"] += len(report.interior) + len(report.boundary)


def _note_dual(counts, dual):
    # dual01 solves one system per {0,1} right-hand side; the zero vector
    # is always in the dual, so its length is the dimension.
    counts["dual01.rhs"] += 2 ** len(dual[0])
    counts["dual01.kept"] += len(dual)


_NOTES = {"enumeration.ellipsoid": _note_ellipsoid, "dual01": _note_dual}


@contextmanager
def traced(tracer: Tracer):
    """Route every call to a LAYERS function through the tracer."""
    modules = [m for k, m in list(sys.modules.items()) if k == "tamewall" or k.startswith("tamewall.")]
    patches = []  # (module, attribute, original, wrapper)
    for mod_name, fn_name, span, leaf in LAYERS:
        original = getattr(sys.modules[f"tamewall.{mod_name}"], fn_name)
        wrapper = tracer.wrap(span, original, leaf)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original, wrapper))
    try:
        for m, attr, _, wrapper in patches:
            setattr(m, attr, wrapper)
        yield tracer
    finally:
        for m, attr, original, _ in reversed(patches):
            setattr(m, attr, original)
