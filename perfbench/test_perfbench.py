"""The benchmark's own test: each workload on a tiny job list.

    python3 -m pytest perfbench/test_perfbench.py

The census is one fixed job (all C(27,7) subsets), so its run is full size
and takes most of this test's time.
"""

import json
import sys

import pytest

import run
import spans
import workloads
from tamewall import perfect, series


def _bindings():
    """Every function object bound in a tamewall module, by (module, name)."""
    return {
        (mod_name, attr): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "tamewall" or mod_name.startswith("tamewall.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture(scope="module")
def traced_runs():
    before = _bindings()
    results = {name: run.run_workload(name, seed=1, seconds=0, trace=1, tiny=True) for name in run.WORKLOADS}
    return before, results


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(traced_runs, name, capsys):
    result = traced_runs[1][name]
    final = run.report(result, trace=0)
    lines = capsys.readouterr().out.splitlines()
    expected = dict(run.END_TO_END, first_pass_s="s", fail_frac="ratio")
    expected.update((metric, "s") for metric, _, _ in workloads.KIND_METRICS[name])
    for metric, unit in expected.items():
        line = next(ln for ln in lines if ln.startswith(f"metric {metric} = "))
        assert line.split()[4] == unit, line
        assert metric == "fail_frac" or "n=" in line
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {m: v["unit"] for m, v in final["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in final["metrics"].values())
    json.dumps(final)

    layer_json = run.report(result, trace=1)
    layer_lines = capsys.readouterr().out.splitlines()
    assert list(layer_json["metrics"]) == run.PER_LAYER_JSON
    for metric in run.LAYER_MAP:
        assert any(ln.startswith(f"layer {metric} = ") for ln in layer_lines), metric


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_layer_is_nonzero_on_its_workload(traced_runs, name):
    layers = traced_runs[1][name]["per_layer"]
    mapped = [m for m, (_, wl, _) in run.LAYER_MAP.items() if wl == name]
    assert mapped
    assert [m for m in mapped if not layers[m] > 0] == []
    assert 0.9 < layers["trace.coverage"] <= 1.0


def test_originals_restored_after_traced_run(traced_runs):
    before, _ = traced_runs
    assert _bindings() == before
    # the copies made by `from .enumeration import ...` are the originals too
    from tamewall import delaunay, enumeration, isometry

    assert series.arithmetic_minimum is enumeration.arithmetic_minimum
    assert series.perfection_report is perfect.perfection_report
    assert delaunay.closest_vectors is enumeration.closest_vectors
    assert isometry.vectors_up_to is enumeration.vectors_up_to


def test_tracer_sees_copied_bindings():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        series.verify_theorem2(6, include_isometry=False)
    # verify_theorem2 reaches arithmetic_minimum through series' own binding
    assert tracer.calls("enumeration.minimum", "series.theorem2") == 2
    assert tracer.calls("enumeration.minimum", "perfect.perfection") == 2


def test_wrong_output_raises_fail_frac(monkeypatch, capsys):
    monkeypatch.setattr(perfect, "is_eutactic", lambda f, allow_large=False: (False, None))
    final = run.report(run.run_workload("forms", seed=1, seconds=0, trace=0, tiny=True), trace=0)
    out = capsys.readouterr().out
    assert "FAILED is_eutactic(tf_form(6))" in out
    line = next(ln for ln in out.splitlines() if ln.startswith("metric fail_frac = "))
    assert float(line.split()[3]) > 0
    assert final["failed"] == 1 and not final["correct"]


def test_raising_job_counts_as_failed(monkeypatch, capsys):
    def boom(n, allow_large=False):
        raise RuntimeError("injected")

    monkeypatch.setattr(series, "verify_theorem1", boom)
    wl = workloads.build("theorem1", seed=1, tiny=True)
    _, _, _, attempted, failed, _ = run.measure(wl, seconds=0, trace=0)
    assert failed == attempted == len(wl.jobs)
    capsys.readouterr()


def test_seed_orders_jobs_only():
    a = workloads.build("theorem1", seed=1)
    b = workloads.build("theorem1", seed=2)
    assert sorted(j.label for j in a.jobs) == sorted(j.label for j in b.jobs)
    assert [j.label for j in workloads.build("cells", seed=5).jobs] == [
        j.label for j in workloads.build("cells", seed=5).jobs
    ]


def test_compare_refuses_different_kernels(tmp_path, capsys):
    import compare

    final = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    paths = []
    for kernel in ("python", "c"):
        env = {"workload": "census", "trace": 0, "kernels": kernel, "git_sha": "0" * 40}
        path = tmp_path / f"{kernel}.txt"
        path.write_text(f"env {json.dumps(env)}\n{json.dumps(final)}\n")
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 2
    assert "kernels differs" in capsys.readouterr().err
