"""The four benchmark workloads: seeded inputs, CLI call, output checks, expected spans.

Every check reads only the emitted table (and, for deteq-grid, the model
document the benchmark wrote), and holds for any seed at the workload's size.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

GCV_REPS = 6
SPHERE_REPS = 3
PROBE_REPS = 32
DETEQ_BLOCKS = 200_000

# spans every traced run fires, whatever the workload
COMMON_SPANS = ("cli.main", "harness.emit_results", "deteq.solve_effective_reg", "spectrum.trace_resolvents")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    exercises: str
    bypasses: str
    make_config: Callable[[int], dict]  # seed -> config document
    check: Callable[[list[dict], dict], list[str]]  # (rows, config) -> failures
    spans: tuple[str, ...]  # declared spans that must fire on this workload


def _gcv_config(seed: int) -> dict:
    return {
        "kind": "gcv_sweep",
        "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 2000},
        "noise_variance": 0.25,
        "n": 400,
        "lambda_grid": [float(v) for v in np.geomspace(1e-4, 1e2, 20)],
        "reps": GCV_REPS,
    }


def _sphere_config(seed: int) -> dict:
    return {
        "kind": "sphere_curve",
        "d": 24,
        "levels": 7,
        "gap": 8.0,
        "noise_variance": 0.1,
        "lambda": 0.0,
        "n_grid": [64, 128, 256, 512, 1024],
        "reps": SPHERE_REPS,
    }


def _deteq_config(seed: int) -> dict:
    k = np.arange(1, DETEQ_BLOCKS + 1, dtype=float)
    unit = np.random.default_rng(seed).standard_normal(DETEQ_BLOCKS)
    unit /= np.linalg.norm(unit)
    n_grid = sorted({int(round(v)) for v in np.geomspace(10, 1e5, 24)})
    return {
        "blocks": [[float(v), 1] for v in k**-2.0],
        "alignment": [float(t) for t in unit * unit],
        "residual_energy": 0.0,
        "noise_variance": 0.25,
        "lambda": 1e-3,
        "n_grid": n_grid,
    }


def _probe_config(seed: int) -> dict:
    return {
        "kind": "functional_probe",
        "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 2000},
        "lambda": 0.1,
        "n_grid": [200, 800],
        "a_choice": "identity",
        "reps": PROBE_REPS,
    }


def _status_failures(rows: list[dict]) -> list[str]:
    return [f"n={row['n']} lambda={row['lambda']}: {row['status']}" for row in rows if row["status"] != "ok"]


def _rel_err(row: dict) -> float:
    """|empirical mean - prediction| / prediction; inf unless the prediction is positive."""
    pred = float(row["prediction"])
    return abs(float(row["empirical_mean"]) - pred) / pred if pred > 0 else math.inf


def _check_gcv(rows: list[dict], config: dict) -> list[str]:
    failures = _status_failures(rows)
    if len(rows) != len(config["lambda_grid"]):
        failures.append(f"expected {len(config['lambda_grid'])} rows, got {len(rows)}")
    for row in rows:
        rel = _rel_err(row)  # = |GCV / prediction - 1|
        if not rel <= 0.25:
            failures.append(f"lambda={row['lambda']}: |GCV/prediction - 1| = {rel:.4f} > 0.25")
    return failures


def _check_sphere(rows: list[dict], config: dict) -> list[str]:
    failures = _status_failures(rows)
    if [int(row["n"]) for row in rows] != config["n_grid"]:
        failures.append("rows do not follow n_grid")
    for row in rows:
        rel = _rel_err(row)
        if not rel <= 0.20:
            failures.append(f"n={row['n']}: |mean - prediction|/prediction = {rel:.4f} > 0.20")
    return failures


def _check_deteq(rows: list[dict], config: dict) -> list[str]:
    failures = _status_failures(rows)
    if [int(row["n"]) for row in rows] != config["n_grid"]:
        failures.append("rows do not follow n_grid")
    xi = np.array([block[0] for block in config["blocks"]])
    mult = np.array([block[1] for block in config["blocks"]], dtype=float)
    lam = config["lambda"]
    for row in rows:
        n, ls = int(row["n"]), float(row["lambda_star"])
        defect = n - lam / ls - math.fsum(mult * xi / (xi + ls))
        if not abs(defect) <= 1e-12 * n:
            failures.append(f"n={n}: fixed-point certificate {abs(defect):.3e} > 1e-12*n")
    return failures


def _check_probe(rows: list[dict], config: dict) -> list[str]:
    small, large = config["n_grid"]
    med = {(int(row["n"]), int(row["functional_index"])): float(row["median_rel_err"]) for row in rows}
    failures = []
    for j in range(1, 5):
        a, b = med.get((small, j), math.nan), med.get((large, j), math.nan)
        if not b < a:
            failures.append(f"functional {j}: median error {b:.3e} at n={large} not below {a:.3e} at n={small}")
    return failures


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_config(workload: Workload, workdir: str, seed: int) -> tuple[str, dict]:
    config = workload.make_config(seed)
    path = os.path.join(workdir, f"{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path, config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gcv-sweep",
            subcommand="gcv-sweep",
            why="per-lambda Cholesky work in krr and LAPACK dominates: 20 lambdas x 2 factorizations per replication",
            exercises="harness, functionals.sample_gaussian_features, krr.GramMatrix, krr.gcv, lapack cho_factor/cho_solve/cholesky/solve_triangular, deteq, spectrum.nu_diagnostic",
            bypasses="sphere, krr.fit_krr, lapack.eigh, functionals resolvent probe, model_from_json",
            make_config=_gcv_config,
            check=_check_gcv,
            spans=COMMON_SPANS
            + (
                "harness.run_experiment",
                "deteq.deterministic_equivalents",
                "spectrum.nu_diagnostic",
                "functionals.sample_gaussian_features",
                "krr.GramMatrix",
                "krr.gcv",
                "lapack.cho_factor",
                "lapack.cho_solve",
                "lapack.cholesky",
                "lapack.solve_triangular",
            ),
        ),
        Workload(
            name="sphere-curve",
            subcommand="sphere",
            why="one ridgeless eigh fit per Gram and no lambda grid; time goes to sphere Gram and exact risk",
            exercises="sphere.sample_sphere/SphereKernel.gram/exact_sphere_risk, krr.GramMatrix, krr.fit_krr, lapack.eigh, deteq at 7 blocks",
            bypasses="Cholesky (cho_factor/cholesky/solve_triangular), krr.gcv, functionals, large-spectrum deteq",
            make_config=_sphere_config,
            check=_check_sphere,
            spans=COMMON_SPANS
            + (
                "harness.run_experiment",
                "deteq.deterministic_equivalents",
                "spectrum.nu_diagnostic",
                "sphere.sample_sphere",
                "sphere.SphereKernel.gram",
                "sphere.exact_sphere_risk",
                "krr.GramMatrix",
                "krr.GramMatrix.eigendecomposition",
                "krr.fit_krr",
                "lapack.eigh",
            ),
        ),
        Workload(
            name="deteq-grid",
            subcommand="deteq",
            why="200000-block spectrum: all time in deteq/spectrum and model parsing, no dense linear algebra",
            exercises="cli deteq path, spectrum.model_from_json, deteq.deterministic_equivalents/solve_effective_reg, spectrum.trace_resolvents",
            bypasses="harness, krr, sphere, functionals, every LAPACK call",
            make_config=_deteq_config,
            check=_check_deteq,
            spans=COMMON_SPANS + ("spectrum.model_from_json", "deteq.deterministic_equivalents"),
        ),
        Workload(
            name="probe-identity",
            subcommand="probe-functionals",
            why="p x p resolvent against eye(2000) in functionals; the memory-heavy workload",
            exercises="functionals.convergence_probe/sample_gaussian_features/empirical_functionals/deterministic_functionals, lapack cho_factor/cho_solve, deteq",
            bypasses="krr, sphere, deterministic_equivalents, nu_diagnostic, model_from_json",
            make_config=_probe_config,
            check=_check_probe,
            spans=COMMON_SPANS
            + (
                "harness.run_experiment",
                "functionals.convergence_probe",
                "functionals.sample_gaussian_features",
                "functionals.empirical_functionals",
                "functionals.deterministic_functionals",
                "lapack.cho_factor",
                "lapack.cho_solve",
            ),
        ),
    )
}
