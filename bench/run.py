"""End-to-end benchmark of the krrdeteq CLI, with per-layer timing from outside.

Run from the repository root:

    python3 bench/run.py --workload gcv-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Each sample is a fresh interpreter (``bench/child.py``) that imports
``krrdeteq.cli`` and makes one ``cli.main`` call with ``--threads 1`` and
``--seed <seed>``; samples run one at a time (a closed loop with one
client) until ``--seconds`` is used up.  The child pins BLAS to one thread
(``OPENBLAS_NUM_THREADS=1`` and friends): at the library default of one
thread per core, numpy's and scipy's OpenBLAS copies spin against each other
and gcv-sweep varies by +-20% per call and drifts by 25% over minutes.

``--trace 0`` reports the end-to-end metrics wall_s, cpu_s, setup_s and
peak_rss_mb as medians over the samples.  setup_s is the import time of
``krrdeteq.cli``, taken from every sample and from import-only samples spread
through the run: several before the first call, one between calls, and at the
end as many as the minimum still needs.  ``--trace 1`` runs traced samples only
and reports per-layer metrics ``<layer>.<function>.<stat>``, plus
``trace.overhead_s``: the spans of one call times the tracer's cost per span,
timed in the same process.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
record of the run (environment, samples, output sha256) is written under
``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import environment  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, read_rows, write_config  # noqa: E402

CHILD_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 12

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# traced spans, in report order; lapack spans also report gflop and gflops
SPANS = (
    "cli.main",
    "harness.run_experiment",
    "harness.emit_results",
    "spectrum.model_from_json",
    "spectrum.trace_resolvents",
    "spectrum.nu_diagnostic",
    "deteq.deterministic_equivalents",
    "deteq.solve_effective_reg",
    "krr.GramMatrix",
    "krr.GramMatrix.eigendecomposition",
    "krr.fit_krr",
    "krr.gcv",
    "sphere.sample_sphere",
    "sphere.SphereKernel.gram",
    "sphere.exact_sphere_risk",
    "functionals.sample_gaussian_features",
    "functionals.convergence_probe",
    "functionals.empirical_functionals",
    "functionals.deterministic_functionals",
    "lapack.cho_factor",
    "lapack.cho_solve",
    "lapack.cholesky",
    "lapack.solve_triangular",
    "lapack.eigh",
)
SPAN_STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms"}
LAPACK_STATS = {"gflop": "GFLOP", "gflops": "GFLOP/s"}
EXTRA_LAYER_METRICS = {"deteq.resolvent_evals_per_solve": "evals/solve", "trace.overhead_s": "s"}
# per-layer metrics that are exact counts: identical on every run of one seed
COUNT_SUFFIXES = (".calls", ".gflop", "deteq.resolvent_evals_per_solve")


class BenchError(RuntimeError):
    """The benchmark itself cannot run or a traced call site was missed."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        stats = {**SPAN_STATS, **LAPACK_STATS} if span.startswith("lapack.") else SPAN_STATS
        units.update({f"{span}.{stat}": unit for stat, unit in stats.items()})
    units.update(EXTRA_LAYER_METRICS)
    return units


def _child_env() -> dict:
    env = {**os.environ, **{name: "1" for name in environment.THREAD_VARS}}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(mode: str, workdir: str, index: int, argv: list[str]) -> dict:
    """Run one fresh interpreter; mode is 'import', 'run' or 'trace'."""
    record = os.path.join(workdir, f"sample-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record, mode, "--", *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample exceeded {CHILD_TIMEOUT_S}s: {' '.join(argv)}") from exc
    if proc.returncode != 0 or not os.path.exists(record):
        raise BenchError(f"sample process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(record) as handle:
        return json.load(handle)


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _check_output(workload, path: str, config: dict) -> tuple[int, list[str]]:
    """(rows emitted, failures) for one output file."""
    if not os.path.exists(path):
        return 0, ["no output file"]
    try:
        rows = read_rows(path)
        return len(rows), workload.check(rows, config)
    except (KeyError, ValueError) as exc:
        return 0, [f"malformed output: {type(exc).__name__}: {exc}"]


def _layer_metrics(workload, traced: list[dict]) -> dict[str, float]:
    summaries = [tracing.summarize(sample["spans"]) for sample in traced]
    first = summaries[0]
    for other in summaries[1:]:
        for name in set(first) | set(other):
            a, b = first.get(name, {}), other.get(name, {})
            if (a.get("calls"), a.get("gflop")) != (b.get("calls"), b.get("gflop")):
                raise BenchError(f"span {name}: call or flop count differs between identical calls")
    missed = [name for name in workload.spans if first.get(name, {}).get("calls", 0) == 0]
    if missed:
        raise BenchError(f"declared span(s) recorded zero calls on {workload.name}: {', '.join(missed)}")

    metrics: dict[str, float] = {}
    for span in SPANS:
        entries = [s.get(span) for s in summaries]
        if entries[0] is None:
            values = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "gflop": 0.0, "gflops": 0.0}
        else:
            busy = statistics.median(e["busy_s"] for e in entries)
            values = {
                "calls": entries[0]["calls"],
                "busy_s": busy,
                "self_s": statistics.median(e["self_s"] for e in entries),
                "p50_ms": tracing.p50_ms([d for e in entries for d in e["durations_s"]]),
                "gflop": entries[0]["gflop"],
                "gflops": entries[0]["gflop"] / busy if busy > 0 else 0.0,
            }
        stats = {**SPAN_STATS, **LAPACK_STATS} if span.startswith("lapack.") else SPAN_STATS
        metrics.update({f"{span}.{stat}": values[stat] for stat in stats})
    solves = metrics["deteq.solve_effective_reg.calls"]
    evals = metrics["spectrum.trace_resolvents.calls"]
    metrics["deteq.resolvent_evals_per_solve"] = evals / solves if solves else 0.0
    span_cost = statistics.median(sample["span_cost_s"] for sample in traced)
    metrics["trace.overhead_s"] = len(traced[0]["spans"]) * span_cost
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object plus the run record."""
    if not os.path.exists(os.path.join(ROOT, "src", "krrdeteq", "cli.py")):
        raise BenchError(f"no krrdeteq sources under {os.path.join(ROOT, 'src')}")
    workload = WORKLOADS[name]
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        config_path, config = write_config(workload, workdir, seed)
        out = os.path.join(workdir, "out.csv")
        argv = [workload.subcommand, "--config", config_path, "--out", out, "--threads", "1", "--seed", str(seed)]
        mode = "trace" if trace else "run"

        samples, setup, shas, checked = [], [], [], {}
        attempted = failed = 0

        def take_imports(count: int) -> None:
            for _ in range(count):
                setup.append(_run_child("import", workdir, len(samples) + len(setup), [])["setup_s"])

        start = time.perf_counter()
        while True:
            if not trace:
                take_imports(MIN_SETUP_SAMPLES // 2 if not samples else 1)
            if os.path.exists(out):
                os.remove(out)
            t0 = time.perf_counter()
            sample = _run_child(mode, workdir, len(samples) + len(setup), argv)
            samples.append(sample)
            setup.append(sample["setup_s"])
            sha = _sha256(out)
            if sha not in checked:
                checked[sha] = _check_output(workload, out, config)
            rows, failures = checked[sha]
            shas.append(sha)
            attempted += rows + 1
            failed += len(failures) if failures else int(sample["exit_code"] != 0)
            if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
                break
        if not trace:
            take_imports(MIN_SETUP_SAMPLES - len(setup))
        attempted += 1
        if len(set(shas)) != 1:
            failed += 1
            checked["determinism"] = (0, ["output bytes differ between identical calls"])

        if trace:
            metrics = _layer_metrics(workload, samples)
            units = per_layer_units()
        else:
            metrics = {
                "wall_s": statistics.median(s["wall_s"] for s in samples),
                "cpu_s": statistics.median(s["cpu_s"] for s in samples),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024.0 for s in samples),
            }
            units = END_TO_END_UNITS
        failures = sorted({f for _, fs in checked.values() for f in fs})
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "argv": argv,
            "checkout": environment.checkout_info(ROOT),
            "env": samples[0]["env"],
            "cli_threads": 1,
            "samples": [{k: s[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_kb", "exit_code")} for s in samples],
            "setup_samples_s": setup,
            "output_sha256": sorted({s for s in shas if s}),
            "fail_frac": failed / attempted,
            "failures": failures,
            "result": result,
        }
        if trace:
            record["spans_first_traced_call"] = samples[0]["spans"]
            record["span_cost_s"] = [s["span_cost_s"] for s in samples]
        return {"result": result, "record": record}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_record(record: dict) -> None:
    folder = os.path.join(ROOT, ".bench_work", "records")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)


def _print_human(name: str, run: dict) -> None:
    result, record = run["result"], run["record"]
    print(
        f"# {name}: {len(record['samples'])} sample(s), fail_frac {record['fail_frac']:.4g} "
        f"({result['failed']}/{result['attempted']}), outputs {', '.join(h[:12] for h in record['output_sha256'])}"
    )
    for failure in record["failures"]:
        print(f"#   FAILED CHECK: {failure}")
    for metric, entry in result["metrics"].items():
        if entry["value"] == 0:
            continue
        print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, run in runs.items():
        _write_record(run["record"])
        _print_human(name, run)
    if args.workload == "all":
        print(json.dumps({name: run["result"] for name, run in runs.items()}))
    else:
        print(json.dumps(runs[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
