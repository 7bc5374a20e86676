"""Measure every workload in two sets of seeds 1-10 and write bench/baseline.json.

    python3 bench/baseline.py

Each set runs ``bench/run.py`` once per (workload, seed) untraced and once
per workload traced (seed 1); the second set starts after the first has
ended, as a later comparison would.  For every end-to-end metric and
workload the file records the first set's median, quartiles and spread
(quartile distance over median, as ``statistics.quantiles(values, n=4)``
gives them) and the second set's median and spread.  It also records the
traced per-layer numbers, the machine and each workload's reason.  The
script exits 1 if any spread exceeds the metric's bound in BENCHMARK.json,
if a second-set median is worse than the first by more than that bound, or
if a count (calls, gflop, resolvent evaluations per solve) differs between
the sets.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS

SEEDS = range(1, 11)
SETS = 2
OUT = os.path.join(run.HERE, "baseline.json")
NOTE = (
    "The A1-A8 runtime budgets in tests/test_acceptance.py stay test gates; they are not benchmark metrics. "
    "gflop is computed from LAPACK argument shapes (n^3/3 per Cholesky, n^2 k per triangular solve, "
    "2 n^2 k per cho_solve, nominal 9 n^3 per eigh), not counted by hardware."
)


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def _measure_set(seconds: int) -> tuple[dict, dict]:
    """(end-to-end stats, traced per-layer values) per workload for one set of seeds."""
    end_to_end, per_layer = {}, {}
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = _run(name, seed, seconds, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end[name] = {metric: _stats(vals) for metric, vals in values.items()}
        traced = _run(name, SEEDS[0], seconds, 1)
        per_layer[name] = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
    return end_to_end, per_layer


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [_measure_set(bench["run_seconds"]) for _ in range(SETS)]
    (end_to_end, per_layer), (second, second_layer) = sets

    over = []
    for name, metrics in end_to_end.items():
        for metric, stats in metrics.items():
            later = second[name][metric]
            change = later["median"] / stats["median"] - 1.0
            stats["second_set"] = {"median": later["median"], "spread": later["spread"], "change": change}
            print(
                f"{name}\t{metric}\tmedian {stats['median']:.5g} / {later['median']:.5g} ({change:+.3f})"
                f"\tspread {stats['spread']:.3f} / {later['spread']:.3f}\tbound {bounds[metric]}"
            )
            for label, spread in (("first", stats["spread"]), ("second", later["spread"])):
                if spread > bounds[metric]:
                    over.append(f"{name} {metric}: {label}-set spread {spread:.3f} > bound {bounds[metric]}")
            if change > bounds[metric]:
                over.append(f"{name} {metric}: second-set median {change:+.3f} worse than the first, bound {bounds[metric]}")
        for metric, value in per_layer[name].items():
            if metric.endswith(run.COUNT_SUFFIXES) and second_layer[name][metric] != value:
                over.append(f"{name} {metric}: count {value} in the first set, {second_layer[name][metric]} in the second")

    with open(os.path.join(run.ROOT, ".bench_work", "records", f"{next(iter(WORKLOADS))}-seed{SEEDS[0]}-trace0.json")) as handle:
        env = json.load(handle)["env"]
    doc = {
        "machine": {**env, "note": "2 cores; numpy and scipy each bundle their own scipy-openblas, both pinned to one thread"},
        "checkout": run.environment.checkout_info(run.ROOT),
        "seeds": list(SEEDS),
        "run_seconds": bench["run_seconds"],
        "note": NOTE,
        "workloads": {
            name: {"why": w.why, "exercises": w.exercises, "bypasses": w.bypasses} for name, w in WORKLOADS.items()
        },
        "end_to_end": end_to_end,
        "per_layer_traced_seed": SEEDS[0],
        "per_layer": per_layer,
        "over_bound": over,
    }
    with open(OUT, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    print("\n".join(over) or "every spread and every second-set change within its bound; every count repeated")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
