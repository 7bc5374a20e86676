"""Command-line entry point.

Subcommands map to experiment kinds (simulate, sphere, gcv-sweep,
probe-functionals, estimate) plus `deteq`, which evaluates the closed-form
predictions for a serialized spectral model without any sampling.

Exit codes: 0 success, 2 partial row failures, 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .deteq import deterministic_equivalents
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    _curve_row,
    check_entries,
    check_fields,
    check_nonnegative,
    emit_results,
    run_experiment,
)
from .spectrum import ModelSpec, model_from_json

SUBCOMMAND_KIND = {
    "simulate": "gaussian_curve",
    "sphere": "sphere_curve",
    "gcv-sweep": "gcv_sweep",
    "probe-functionals": "functional_probe",
    "estimate": "estimate_and_predict",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the experiment JSON config")
    sub.add_argument("--out", default=None, help="output path (overrides config output_path)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument(
        "--threads", type=int, default=None, help="worker count (default: KRRDETEQ_THREADS, else config threads, else 1)"
    )
    sub.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="krrdeteq", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_KIND:
        _add_common(subs.add_parser(name))
    _add_common(subs.add_parser("deteq", help="closed-form predictions from a spectral model JSON"))
    return parser


def _threads_override(value) -> int | None:
    """--threads, else KRRDETEQ_THREADS; None leaves the config's own threads (default 1)."""
    if value is None:
        value = os.environ.get("KRRDETEQ_THREADS") or None
    return None if value is None else max(int(value), 1)


DETEQ_FIELDS = (
    "blocks", "alignment", "residual_energy", "noise_variance", "lambda", "n", "n_grid", "seed", "output_path"
)


def _run_deteq(doc, seed: int | None) -> ExperimentResult:
    """Closed-form prediction rows for a model document, one per n; no sampling."""
    check_fields(doc, DETEQ_FIELDS, "deteq")
    for key in ("blocks", "alignment"):
        if key not in doc:
            raise ConfigError(f"deteq config requires {key!r}")
    if "n" not in doc and "n_grid" not in doc:
        raise ConfigError("deteq config requires 'n' or 'n_grid'")
    spectrum, alignment, noise = model_from_json(doc)
    lam = float(doc.get("lambda", 0.0))
    check_nonnegative("lambda", lam)
    n_grid = check_entries(doc.get("n_grid") or [doc.get("n")], int, "n_grid (or [n])")
    if any(n < 1 for n in n_grid):
        raise ConfigError("every n_grid entry (or n) must be >= 1")
    seed = doc.get("seed", 0) if seed is None else seed
    rows = []
    for n in n_grid:
        try:
            pred = deterministic_equivalents(
                ModelSpec(n=n, lam=lam, spectrum=spectrum, alignment=alignment, noise=noise)
            )
            prediction, eff, status = pred.risk, pred.effective, "ok"
        except Exception as exc:
            prediction, eff, status = math.nan, None, f"error: {type(exc).__name__}: {exc}"
        rows.append(_curve_row("deteq", 0, seed, n, lam, prediction, (), eff, status))
    return ExperimentResult(rows, "curve")


def _load_json(handle):
    """``json.load`` with the cyclic GC paused, then restored as it was.

    A model document parses into one small list per block, none of which can
    form a cycle; every collection during the parse would re-walk all objects
    alive since import.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.load(handle)
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    try:
        with open(args.config) as handle:
            doc = _load_json(handle)
        if args.command == "deteq":
            result = _run_deteq(doc, args.seed)
            out = args.out or doc.get("output_path")
        else:
            config = ExperimentConfig.from_dict(doc, kind=SUBCOMMAND_KIND[args.command])
            config = config.with_overrides(seed=args.seed, threads=_threads_override(args.threads))
            result = run_experiment(config)
            out = args.out or config.output_path
        if out is None:
            raise ConfigError("no output path: pass --out or set output_path in the config")
        emit_results(result, args.format, out)
        if result.n_failed:
            print(f"{result.n_failed} row(s) failed; see status column", file=sys.stderr)
            return 2
        return 0
    except (OSError, KeyError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
