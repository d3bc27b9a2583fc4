"""Smoke-size tests of the benchmark harness (a few jobs per workload).

Run from the repository root: python -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adapter import Adapter, Tracer
from run import unit_of
from worker import LAYER_FIELDS, layer_metrics, run_job
from workloads import BOUNDS_ROUND, BOUNDS_ROWS, DENSITY_DIMS, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
COUNT_FIELDS = ("calls", "points", "terms", "exact_terms", "integral_blocks", "steps", "samples", "failed")
SEED = 7


def smoke_jobs(workload):
    """A cheap slice of round 0 that still covers every layer the workload calls."""
    jobs = WORKLOADS[workload](Adapter(Tracer(False)), SEED, 0)
    if workload == "bounds-sweep":
        # a few rows of the first two spectra (d = 2 equal, d = 3), then lemmas
        per = len(jobs) // len(BOUNDS_ROUND)
        return jobs[:3] + jobs[per : per + 3] + jobs[per + BOUNDS_ROWS : per + BOUNDS_ROWS + 3]
    if workload == "density-cold":
        return [j for j in jobs if j.kind in ("density-d2", "density-d3")]
    return jobs


def traced_run(workload):
    ad = Adapter(Tracer(True))
    failures = [run_job(ad, job, f"0.{i}")[1] for i, job in enumerate(smoke_jobs(workload))]
    return ad.tracer.spans, failures


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    return request.param, traced_run(request.param), traced_run(request.param)


def test_counts_repeat_exactly(runs):
    _, (spans_a, fail_a), (spans_b, fail_b) = runs
    a, b = layer_metrics(spans_a), layer_metrics(spans_b)
    counts = [k for k in a if k.rsplit(".", 1)[1] in COUNT_FIELDS] + ["montecarlo.normals"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert fail_a == fail_b


def test_spans_nest_inside_parents(runs):
    _, (spans, _), _ = runs
    by_id = {sp["id"]: sp for sp in spans}
    for sp in spans:
        assert sp["start"] <= sp["end"]
        if sp["parent"] is None:
            assert sp["name"] == "job"
            continue
        parent = by_id[sp["parent"]]
        assert parent["start"] <= sp["start"] and sp["end"] <= parent["end"]
        assert parent["job"] == sp["job"]


def test_layer_busy_within_job_time(runs):
    _, (spans, _), _ = runs
    jobs = {sp["id"]: sp["end"] - sp["start"] for sp in spans if sp["name"] == "job"}
    busy = dict.fromkeys(jobs, 0.0)
    for sp in spans:
        if sp["parent"] in busy:
            busy[sp["parent"]] += sp["end"] - sp["start"]
    assert all(busy[j] <= jobs[j] for j in jobs)
    assert 0.0 <= layer_metrics(spans)["bench.unattributed_frac"] <= 1.0


def test_layers_each_workload_calls(runs):
    workload, (spans, _), _ = runs
    m = layer_metrics(spans)
    chidensity = sum(m[f"{name}.calls"] for name in LAYER_FIELDS if name.startswith("chidensity."))
    if workload == "lil-series":
        assert chidensity == 0
        assert m["integraltest.equivalence_report.exact_terms"] > 0
        assert m["montecarlo.normals"] > 0
    elif workload == "density-cold":
        assert m["chidensity.cold.calls"] == sum(sp["name"] == "job" for sp in spans)
    else:
        assert m["chidensity.weighted_norm_tail.calls"] > 0
        assert m["regularize.lemma_sides.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {f"{n}.{f}" for n, fields in LAYER_FIELDS.items() for f in fields}
    layer_names |= {"montecarlo.normals", "bench.unattributed_frac",
                    "bench.trace_overhead_frac", "bench.fail_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_end_to_end_result_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "density-cold",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == len(DENSITY_DIMS)
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lil-series",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
