"""Benchmark of the tamewall pipelines: one workload per process.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload is a fixed job list (see workloads.py) run single-threaded as
a closed loop: whole passes over the list, the next job starting when the
previous one returns, until --seconds have passed.  Every output is checked
exactly.  The report prints each metric with its unit, quartiles and sample
count, and the last line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

A traced run alternates untraced and traced passes.  The per-layer metrics
are per traced pass; trace.overhead_s is the traced minus the untraced
median pass time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKLOADS = ("theorem1", "census", "forms", "cells")

# Reported in the final JSON line, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, workload it is mapped to, end-to-end metric it moves).
LAYER_MAP = {
    "enumeration.ellipsoid.calls": ("count", "theorem1", "wall_s, peak_rss_mb"),
    "enumeration.ellipsoid.s": ("s", "theorem1", "wall_s, peak_rss_mb"),
    "enumeration.ellipsoid.points": ("count", "theorem1", "wall_s, peak_rss_mb"),
    "enumeration.minimum.calls": ("count", "forms", "theorem2_s, eutaxy_s"),
    "enumeration.minimum.s": ("s", "forms", "theorem2_s, eutaxy_s"),
    "enumeration.up_to.calls": ("count", "forms", "theorem2_s, eutaxy_s"),
    "enumeration.up_to.s": ("s", "forms", "theorem2_s, eutaxy_s"),
    "enumeration.closest.calls": ("count", "cells", "cell_p50_s"),
    "enumeration.closest.s": ("s", "cells", "cell_p50_s"),
    "delaunay.is_cell.calls": ("count", "theorem1", "wall_s"),
    "delaunay.is_cell.s": ("s", "theorem1", "wall_s"),
    "delaunay.locate.calls": ("count", "cells", "cell_p50_s"),
    "delaunay.locate.s": ("s", "cells", "cell_p50_s"),
    "delaunay.cut_rounds": ("count", "cells", "cell_p50_s"),
    "delaunay.perturb.calls": ("count", "cells", "perturb_s"),
    "delaunay.perturb.s": ("s", "cells", "perturb_s"),
    "delaunay.level_vector.calls": ("count", "cells", "perturb_s"),
    "delaunay.level_vector.s": ("s", "cells", "perturb_s"),
    "dual01.calls": ("count", "theorem1", "wall_s"),
    "dual01.s": ("s", "theorem1", "wall_s"),
    "dual01.rhs": ("count", "theorem1", "wall_s"),
    "dual01.kept_frac": ("ratio", "theorem1", "wall_s"),
    **{
        f"linalg.{op}.{field}": (unit, "forms", "theorem2_s")
        for op in ("rank", "solve", "nullspace", "inverse", "ldl")
        for field, unit in (("calls", "count"), ("s", "s"))
    },
    "lp.calls": ("count", "forms", "eutaxy_s"),
    "lp.s": ("s", "forms", "eutaxy_s"),
    "lp.eutaxy.s": ("s", "forms", "eutaxy_s"),
    "lp.cell.s": ("s", "cells", "cell_p50_s"),
    "perfect.perfection.calls": ("count", "forms", "theorem2_s"),
    "perfect.perfection.s": ("s", "forms", "theorem2_s"),
    "perfect.eutaxy.calls": ("count", "forms", "eutaxy_s"),
    "perfect.eutaxy.s": ("s", "forms", "eutaxy_s"),
    "isometry.equivalent.calls": ("count", "forms", "theorem2_s"),
    "isometry.equivalent.s": ("s", "forms", "theorem2_s"),
    "kernels.det.calls": ("count", "census", "wall_s"),
    "kernels.det.s": ("s", "census", "wall_s"),
    "series.census_loop.s": ("s", "census", "wall_s"),
    "series.self.s": ("s", "theorem1", "wall_s"),
}
# The per-layer metrics in the final JSON line: the counts, which read 0
# where a workload does not use the layer, and seconds only for the layers
# every workload uses.  The report prints every LAYER_MAP metric.
PER_LAYER_JSON = [m for m, (unit, _, _) in LAYER_MAP.items() if unit != "s"] + [
    "enumeration.s",
    "linalg.s",
    "trace.overhead_s",
    "trace.coverage",
]
EXTRA_UNITS = {"enumeration.s": "s", "linalg.s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"}


class Sample:
    """A timing reported as median, quartiles and sample count."""

    def __init__(self, values):
        self.values = sorted(values)

    @property
    def median(self):
        return statistics.median(self.values)

    def describe(self, unit):
        v = self.values
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
            return f"{self.median:.6g} {unit} (median; q1 {q1:.6g}, q3 {q3:.6g}; n={len(v)})"
        return f"{self.median:.6g} {unit} (n=1)"


def environment(workload, seed, seconds, trace):
    from tamewall import kernels

    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "kernels": kernels.IMPLEMENTATION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def setup_samples(workload, seed):
    """Seconds to import tamewall and build the inputs, in fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(jobs, tracer=None):
    """One pass in job order; returns [(job, output, error, seconds)].

    Garbage from the previous job is collected before each job starts, so
    neither its time nor the peak memory depends on the job order.
    """
    results = []
    for job in jobs:
        fn = job.run if tracer is None else tracer.wrap(spans.ROOT, job.run)
        gc.collect()
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a job that raises counts as failed
            out, err = None, exc
        results.append((job, out, err, time.perf_counter() - t0))
    return results


def check_pass(results):
    """Number of jobs whose output is not the expected one."""
    failed = 0
    for job, out, err, _ in results:
        ok = False
        if err is None:
            try:
                ok = bool(job.check(out))
            except Exception:  # a malformed output fails its check
                pass
        if not ok:
            failed += 1
            print(f"FAILED {job.label}: {err!r}" if err else f"FAILED {job.label}: unexpected output")
    return failed


def measure(wl, seconds, trace):
    """Closed loop over whole passes until `seconds` have passed.

    The first pass is kept apart when the workload's caches start cold.  A
    traced run alternates untraced and traced passes after it.  Returns
    (first, warm untraced passes, traced passes, attempted, failed, tracer).
    """
    tracer = spans.Tracer() if trace else None
    first, warm, traced = None, [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if trace and warm and len(traced) < len(warm):
            with spans.traced(tracer):
                results = run_pass(wl.jobs, tracer)
            traced.append(results)
        else:
            results = run_pass(wl.jobs)
            cold = first is None and wl.cold_first
            if first is None:
                first = results
            if not cold:
                warm.append(results)
        attempted += len(results)
        failed += check_pass(results)
        if time.perf_counter() >= deadline and warm and (traced or not trace):
            return first, warm, traced, attempted, failed, tracer


def pass_seconds(passes):
    return [sum(r[3] for r in p) for p in passes]


def end_to_end(wl, first, warm, setup):
    """name -> (Sample, unit) for every end-to-end metric of the workload."""
    metrics = {
        "setup_s": (Sample(setup), "s"),
        "wall_s": (Sample(pass_seconds(warm)), "s"),
        "first_pass_s": (Sample(pass_seconds([first])), "s"),
    }
    for name, aggregate, kind in wl.kind_metrics:
        if aggregate == "pass_sum":
            values = [sum(r[3] for r in p if r[0].kind == kind) for p in warm]
        else:
            values = [r[3] for p in warm for r in p if r[0].kind == kind]
        metrics[name] = (Sample(values), "s")
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (Sample([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]), "MB")
    return metrics


def per_layer(tracer, traced, warm):
    """Per-layer metrics per traced pass, plus tracing overhead and coverage."""
    t, k = tracer, len(traced)
    rhs, locates = t.counts["dual01.rhs"], t.calls("delaunay.locate")
    derived = {
        "enumeration.ellipsoid.points": t.counts["enumeration.ellipsoid.points"] / k,
        "delaunay.cut_rounds": t.calls("lp", "delaunay.locate") / locates if locates else 0.0,
        "dual01.rhs": rhs / k,
        "dual01.kept_frac": t.counts["dual01.kept"] / rhs if rhs else 0.0,
        "lp.eutaxy.s": t.self_s("lp", "perfect.eutaxy") / k,
        "lp.cell.s": t.self_s("lp", "delaunay.locate") / k,
        "series.census_loop.s": t.self_s("series.census") / k,
        "series.self.s": t.self_s("series") / k,
    }
    out = {}
    for metric in LAYER_MAP:
        layer, field = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif field == "calls":
            out[metric] = t.calls(layer) / k
        else:
            out[metric] = t.self_s(layer) / k
    out["enumeration.s"] = t.self_s("enumeration") / k
    out["linalg.s"] = t.self_s("linalg") / k
    out["trace.overhead_s"] = statistics.median(pass_seconds(traced)) - statistics.median(pass_seconds(warm))
    out["trace.coverage"] = t.coverage()
    return out


def layer_unit(metric):
    return LAYER_MAP[metric][0] if metric in LAYER_MAP else EXTRA_UNITS[metric]


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload in this process; returns the result dict."""
    import workloads

    setup = setup_samples(name, seed)
    wl = workloads.build(name, seed, tiny=tiny)
    first, warm, traced, attempted, failed, tracer = measure(wl, seconds, trace)
    result = {
        "env": environment(name, seed, seconds, trace),
        "end_to_end": end_to_end(wl, first, warm, setup),
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        result["per_layer"] = per_layer(tracer, traced, warm)
        result["traced_passes"] = len(traced)
    return result


def report(result, trace):
    """Print the human-readable report; return the final JSON object."""
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, (sample, unit) in result["end_to_end"].items():
        print(f"metric {name} = {sample.describe(unit)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    if trace:
        wl = result["env"]["workload"]
        print(f"layers per traced pass (n={result['traced_passes']}); [moves ...] marks a layer mapped to {wl}")
        for metric, value in result["per_layer"].items():
            mapped = metric in LAYER_MAP and LAYER_MAP[metric][1] == wl
            moves = f"  [moves {LAYER_MAP[metric][2]}]" if mapped else ""
            print(f"layer {metric} = {value:.6g} {layer_unit(metric)}{moves}")
        metrics = {m: {"value": result["per_layer"][m], "unit": layer_unit(m)} for m in PER_LAYER_JSON}
    else:
        metrics = {
            m: {"value": result["end_to_end"][m][0].median, "unit": unit} for m, unit in END_TO_END.items()
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tamewall" / "__init__.py").is_file():
        print(f"error: no tamewall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.build(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    final = report(result, args.trace)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
