"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_POINTS = {
    "fig_query": 2048,
    "sample_durable": 20_000,
    "prequential_knn": 300,
    "sharded_ingest": 16_384,
}


def bench(workload, trace, cwd=ROOT, points=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    points = TINY_POINTS.get(workload) if points is None else points
    if points:
        cmd += ["--points", str(points)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_named_with_units_and_no_errors(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_layer_self_times_fit_in_wall_time(workload):
    result = result_of(bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    layers = sum(metrics[f"{layer}.self_share"] for layer in run.LAYERS)
    assert 0.0 < layers <= 1.0
    total = layers + metrics["bench.self_share"]
    assert total == pytest.approx(1.0, abs=1e-9)
    assert (ROOT / "perfbench" / "_work" / "traces" / f"{workload}-seed7.json.gz").exists()


def test_each_lap_is_scaled_by_the_probes_around_it():
    workloads = run.import_program()
    rec = workloads.PassRecord()
    ref = workloads.PROBE_REF_NS
    # Seven laps; probes after lap 2 (1x reference time) and lap 5 (2x).
    rec.laps = [10**9] * 7
    rec.probes = [(2, ref), (5, 2 * ref)]
    rec.latencies, rec.latency_laps = [1000, 1000], [0, 3]
    assert list(rec.slowdowns()) == [1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0]
    seconds, latencies_us = rec.scaled()
    assert seconds == pytest.approx(2 + 3 / 1.5 + 2 / 2.0)
    assert list(latencies_us) == pytest.approx([1.0, 1 / 1.5])


def test_manifest_matches_the_benchmark():
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER
    workloads = run.import_program()
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOAD_NAMES)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_interaction_map_names_declared_metrics_and_workloads():
    doc = json.loads((ROOT / "perfbench" / "interaction_map.json").read_text())
    declared = set(run.PER_LAYER) | set(run.END_TO_END)
    workloads = set(run.WORKLOAD_NAMES) | {"every workload"}
    for name, targets in doc["per_layer"].items():
        assert name in run.PER_LAYER or name.startswith("<layer>")
        for target in targets:
            assert target["metric"] in declared
            assert target["workload"] in workloads


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("fig_query", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
