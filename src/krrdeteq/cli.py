"""Command-line entry point.

Subcommands map to experiment kinds (simulate, sphere, gcv-sweep,
probe-functionals, estimate) plus `deteq`, which evaluates the closed-form
predictions for a serialized spectral model without any sampling.

Exit codes: 0 success, 2 partial row failures, 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import sys

from .deteq import deterministic_equivalents  # noqa: F401 (unused; bench/tracing.py patches it here)
from .harness import (
    ConfigError,
    ExperimentConfig,
    _prediction_rows,
    check_entries,
    check_fields,
    check_nonnegative,
    check_seed,
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
    def error(self, message):  # an argv mistake is one error line and exit 1, as a config error is
        raise ConfigError(message)


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
    env = os.environ.get("KRRDETEQ_THREADS") or None
    if value is not None or env is None:
        return value
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"KRRDETEQ_THREADS must be an integer, not {env!r}") from None


DETEQ_FIELDS = (
    "blocks", "alignment", "residual_energy", "noise_variance", "lambda", "n", "n_grid", "seed", "output_path"
)


def _deteq_rows(doc, seed: int | None):
    """Check a model document and build its model; returns the call that makes
    its closed-form rows, one per n with no replications, without the document."""
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
    seed = check_seed(doc.get("seed", 0) if seed is None else seed)
    model_at = functools.partial(ModelSpec, spectrum=spectrum, alignment=alignment, noise=noise)  # (n, lam)
    points = [(n, lam) for n in n_grid]
    return functools.partial(_prediction_rows, "deteq", 0, seed, points, model_at, [()] * len(points))


@contextlib.contextmanager
def _gc_paused():
    """The cyclic GC paused, then restored as it was.

    A model document parses into one small list per block, none of which can
    form a cycle; every collection while it is alive would walk all of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with open(args.config) as handle, _gc_paused():
            doc = json.load(handle)
            if args.command == "deteq":
                rows, out = _deteq_rows(doc, args.seed), args.out or doc.get("output_path")
            else:
                config = ExperimentConfig.from_dict(doc, kind=SUBCOMMAND_KIND[args.command])
                config = config.with_overrides(seed=args.seed, threads=_threads_override(args.threads))
                rows, out = functools.partial(run_experiment, config), args.out or config.output_path
            del doc  # before the GC resumes, so no collection walks the parsed document
        if out is None:  # before any work
            raise ConfigError("no output path: pass --out or set output_path in the config")
        result = rows()
        emit_results(result, args.format, out)
        if result.n_failed:
            print(f"{result.n_failed} row(s) failed; see status column", file=sys.stderr)
            return 2
        return 0
    except SystemExit:  # -h/--help printed the help; argv mistakes raise ConfigError
        return 0
    # ArithmeticError: a JSON integer too large for a float raises OverflowError when it is converted
    except (OSError, KeyError, ValueError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
