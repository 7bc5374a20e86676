"""Tests of the benchmark itself: run with ``python3 -m pytest bench/test_bench.py``.

The count test runs every workload traced twice (a few minutes); the other
tests are quick.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_summarize_splits_self_time_from_children():
    spans = [["a", 0.0, 10.0, -1, 0.0], ["b", 1.0, 4.0, 0, 2e9], ["b", 5.0, 6.0, 0, 1e9], ["c", 2.0, 3.0, 1, 0.0]]
    summary = tracing.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["calls"] == 2 and summary["b"]["busy_s"] == pytest.approx(4.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["gflop"] == pytest.approx(3.0)


def test_span_cost_is_positive_and_small():
    assert 0 < tracing.span_cost_s(calls=2000) < 1e-4


def test_a_declared_span_without_calls_is_an_error():
    traced = [{"wall_s": 1.0, "spans": [["cli.main", 0.0, 1.0, -1, 0.0]]}]
    with pytest.raises(run.BenchError, match="zero calls"):
        run._layer_metrics(WORKLOADS["deteq-grid"], traced)


def _rows(**columns):
    keys = list(columns)
    return [dict(zip(keys, values)) for values in zip(*columns.values())]


def test_checks_reject_wrong_outputs():
    gcv = WORKLOADS["gcv-sweep"]
    config = gcv.make_config(0)
    lams = config["lambda_grid"]
    good = _rows(n=[400] * 20, **{"lambda": lams}, prediction=[1.0] * 20, empirical_mean=[1.1] * 20, status=["ok"] * 20)
    assert gcv.check(good, config) == []
    bad = [dict(row) for row in good]
    bad[3]["empirical_mean"] = 1.3
    bad[7]["status"] = "error: boom"
    bad[9]["prediction"] = 0.0
    assert len(gcv.check(bad, config)) == 3

    sphere = WORKLOADS["sphere-curve"]
    config = sphere.make_config(0)
    ns = config["n_grid"]
    good = _rows(n=ns, prediction=[1.0] * len(ns), empirical_mean=[0.9] * len(ns), status=["ok"] * len(ns))
    assert sphere.check(good, config) == []
    bad = [dict(row) for row in good]
    bad[0]["prediction"] = 0.0
    bad[1]["empirical_mean"] = 1.3
    assert len(sphere.check(bad, config)) == 2

    probe = WORKLOADS["probe-identity"]
    config = probe.make_config(0)
    rows = _rows(n=[200] * 4 + [800] * 4, functional_index=[1, 2, 3, 4] * 2, median_rel_err=[2.0] * 4 + [1.0] * 4)
    assert probe.check(rows, config) == []
    rows[5]["median_rel_err"] = 2.0
    assert len(probe.check(rows, config)) == 1


def test_deteq_certificate_catches_a_perturbed_root(tmp_path):
    deteq = WORKLOADS["deteq-grid"]
    config = {**deteq.make_config(3), "n_grid": [100, 1000]}
    out = tmp_path / "out.csv"
    config_path = tmp_path / "model.json"
    config_path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.path.join(run.ROOT, "src")}
    cmd = [sys.executable, "-m", "krrdeteq.cli", "deteq", "--config", str(config_path), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    rows = run.read_rows(str(out))
    assert deteq.check(rows, config) == []
    rows[1]["lambda_star"] = repr(float(rows[1]["lambda_star"]) * (1 + 1e-9))
    assert len(deteq.check(rows, config)) == 1


def test_without_sources_the_benchmark_fails_without_a_result():
    bare = os.path.join(run.ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        cmd = [sys.executable, "bench/run.py", "--workload", "sphere-curve", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(name):
    first, second = (run.run_workload(name, seed=7, seconds=0, trace=True)["result"] for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if k.endswith(run.COUNT_SUFFIXES)} for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert all(counts[0][f"{span}.calls"] > 0 for span in WORKLOADS[name].spans)
