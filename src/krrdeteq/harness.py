"""Declarative experiment runner: seeded replication, aggregation, emission.

A checked config (``krrdeteq.config``) selects an experiment kind, model
parameters, a replication count and a root seed; the runners only build and
run it.  Replications derive order-independent seeds, so the emitted tables
are byte-identical for a given (config, seed) regardless of worker count.
Failures are recorded per row and the remaining rows complete.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import estimation, functionals, krr, sphere
from .config import ConfigError, ExperimentConfig
from .deteq import deterministic_equivalents
from .seeds import _error, _outcome, derive_rng, map_tasks, replicate
from .spectrum import Alignment, ModelSpec, NoiseModel, Spectrum, SpectrumError, nu_diagnostic

__all__ = ["ExperimentResult", "run_experiment", "emit_results", "CURVE_COLUMNS"]

CURVE_COLUMNS = [
    "kind",
    "n",
    "lambda",
    "prediction",
    "empirical_mean",
    "empirical_std",
    "reps",
    "seed",
    "lambda_star",
    "upsilon2",
    "status",
]
PROBE_COLUMNS = ["n", "functional_index", "median_rel_err", "q25", "q75", "reps", "seed"]


@dataclass
class ExperimentResult:
    """Result rows; ``schema`` selects the emission column set."""

    rows: list[dict]
    schema: str  # "curve" | "probe"

    @property
    def n_failed(self) -> int:
        return sum(row.get("status", "ok") != "ok" for row in self.rows)


def _build_spectrum(doc: dict) -> Spectrum:
    """The spectrum of a checked ``spectrum`` sub-document."""
    if doc.get("kind", "power_law") == "blocks":
        return Spectrum.from_blocks(doc.get("blocks", []))
    return Spectrum.power_law(float(doc["exponent"]), doc["size"])


def _build_beta(doc: dict | None, spectrum: Spectrum, seed: int) -> np.ndarray:
    """Expanded whitened target coefficients beta (per eigendirection) of a checked ``target`` sub-document."""
    p = spectrum.total_rank
    if p > 2_000_000:
        raise ConfigError("expanded rank too large for feature-level simulation")
    if not doc or doc.get("kind", "random_unit") == "random_unit":
        rng = derive_rng(seed, 7)
        beta = rng.standard_normal(p)
        return beta / np.linalg.norm(beta)
    values = np.asarray(doc.get("values", ()), dtype=float)
    if values.size != spectrum.n_blocks:
        raise ConfigError("target energies must have one entry per spectrum block")
    # spread block energy uniformly over its eigendirections
    per = np.repeat(values / spectrum.multiplicities, spectrum.multiplicities)
    return np.sqrt(per)


def _block_energies(spectrum: Spectrum, beta: np.ndarray) -> np.ndarray:
    bounds = np.concatenate(([0], np.cumsum(spectrum.multiplicities)))
    return np.array(
        [float(np.sum(beta[a:b] ** 2)) for a, b in zip(bounds[:-1], bounds[1:])]
    )


def _diagnostic_nu(spectrum: Spectrum, n: int, lam: float) -> float:
    """Conditioning diagnostic carried on curve rows (never emitted to files).

    Evaluated at the full spectrum when lam > 0; in the ridgeless case the
    final degenerate block is treated as the tail so the required positive
    tail trace exists.
    """
    m = spectrum.total_rank
    if lam == 0:
        m -= int(spectrum.multiplicities[-1])
        if m < 1:
            return math.nan
    try:
        return nu_diagnostic(spectrum, m, n, lam)
    except SpectrumError:
        return math.nan


def _prediction_rows(kind, reps, seed, points, model_at, outcomes) -> ExperimentResult:
    """One curve row per (n, lam) point: the risk of ``model_at(n, lam)`` beside the
    point's replication outcomes, a list of ``_outcome`` pairs (empty for ``deteq``).

    The status names the prediction's error, else the first failed replication,
    else a non-finite empirical mean or std; those two cover the replications
    that succeeded, taken on the values over s = 2^(e-1), e the exponent of the largest
    magnitude, and scaled back: no sum overflows, and the bits are np.mean's and np.std's
    unless a scaled value is subnormal.  The nu diagnostic is formed only for points with replications.
    """
    rows = []
    for (n, lam), point in zip(points, outcomes):
        values = [value for value, error in point if error is None]
        stats = {"empirical_mean": math.nan, "empirical_std": math.nan}
        if values:  # finite (``seeds._outcome``); 2^e itself overflows at e = 1024
            scale = 2.0 ** (math.frexp(max(map(abs, values)))[1] - 1)
            scaled = np.divide(values, scale)
            std = float(np.std(scaled, ddof=1)) if len(values) > 1 else 0.0
            stats = {"empirical_mean": scale * float(np.mean(scaled)), "empirical_std": scale * std}
        failure = next((error for _, error in point if error is not None), None)
        if failure is None and values:
            failure = next((f"non-finite {key} {v!r}" for key, v in stats.items() if not math.isfinite(v)), None)
        try:
            model = model_at(n, lam)
            pred = deterministic_equivalents(model)
            prediction, star, upsilon2 = pred.risk, pred.effective.lambda_star, pred.effective.upsilon2
            nu = _diagnostic_nu(model.spectrum, n, lam) if point else math.nan
            status = "ok" if failure is None else "error: " + failure
        except Exception as exc:
            prediction = star = upsilon2 = nu = math.nan
            status = "error: " + _error(exc)
        rows.append({
            "kind": kind, "n": n, "lambda": lam, "prediction": prediction, **stats,
            "reps": reps, "seed": seed, "lambda_star": star, "upsilon2": upsilon2, "nu": nu, "status": status,
        })
    return ExperimentResult(rows, "curve")


def _run_curve(config, tag, simulate, model_at) -> ExperimentResult:
    """Curve over ``config.n_grid``: replication ``rep`` at grid index ``i`` is
    ``simulate(n, derive_rng(seed, tag, i, rep))``."""
    per_n = replicate(config.seed, tag, config.n_grid, config.reps, simulate, config.threads)
    points = [(n, config.lam) for n in config.n_grid]
    return _prediction_rows(config.kind, config.reps, config.seed, points, model_at, per_n)


def _gaussian_problem(config: ExperimentConfig):
    """Setup shared by the Gaussian-feature kinds: ``draw(n, rng) -> (sample, y)``,
    ``linear_risk(n, rng)``, the exact test error of one fit at ``config.lam``,
    and ``model_at(n, lam)``, the true spectral model."""
    spectrum = _build_spectrum(config.spectrum)
    beta = _build_beta(config.target, spectrum, config.seed)
    theta = beta / np.sqrt(spectrum.expand())
    alignment = Alignment(_block_energies(spectrum, beta))
    noise = NoiseModel(config.noise_variance)
    sigma = math.sqrt(config.noise_variance)

    def draw(n, rng):
        sample = functionals.sample_gaussian_features(spectrum, n, rng)
        return sample, sample.matrix @ theta + sigma * rng.standard_normal(n)

    def linear_risk(n, rng):
        sample, y = draw(n, rng)
        return krr.test_error_linear_exact(sample, theta, y, config.lam, config.noise_variance)

    return draw, linear_risk, functools.partial(ModelSpec, spectrum=spectrum, alignment=alignment, noise=noise)


def _run_gaussian_curve(config: ExperimentConfig) -> ExperimentResult:
    _, linear_risk, model_at = _gaussian_problem(config)
    return _run_curve(config, 1, linear_risk, model_at)


def _run_sphere_curve(config: ExperimentConfig) -> ExperimentResult:
    kernel = sphere.kernel_from_gaps(config.d, config.levels, config.gap)
    energies = config.energies
    if energies is None:  # an empty mapping is a zero target
        energies = {k: k**-2.0 for k in range(1, config.levels + 1)}
    target = sphere.SphereTarget(config.d, energies)
    noise = NoiseModel(config.noise_variance)
    sigma = math.sqrt(config.noise_variance)

    def simulate(n, rng):
        points = sphere.sample_sphere(config.d, n, rng)
        gram = krr.GramMatrix(kernel.gram(points))
        y = target(points) + sigma * rng.standard_normal(n)
        fit = krr.fit_krr(gram, y, config.lam)
        return sphere.exact_sphere_risk(fit, kernel, target, config.noise_variance, points)

    def model_at(n, lam):
        return sphere.sphere_spectrum(kernel, target, noise, n, lam)

    return _run_curve(config, 2, simulate, model_at)


def _run_gcv_sweep(config: ExperimentConfig) -> ExperimentResult:
    draw, _, model_at = _gaussian_problem(config)
    n = config.n

    def one_rep(rep):
        try:
            sample, y = draw(n, derive_rng(config.seed, 3, rep))
            xxt = sample.matrix @ sample.matrix.T
            del sample  # free the n x p features before GramMatrix allocates its n x n check buffer
            gram = krr.GramMatrix(xxt)
            del xxt  # gram holds its own symmetrized copy: free the product before the lambda loop
        except Exception as exc:  # record-and-continue: a failed draw or Gram fails every lambda
            return [(math.nan, _error(exc))] * len(config.lambda_grid)
        return [_outcome(krr.gcv, gram, y, lam) for lam in config.lambda_grid]

    per_lam = list(zip(*map_tasks(range(config.reps), one_rep, config.threads)))
    points = [(n, lam) for lam in config.lambda_grid]
    return _prediction_rows(config.kind, config.reps, config.seed, points, model_at, per_lam)


def _run_functional_probe(config: ExperimentConfig) -> ExperimentResult:
    rows = functionals.convergence_probe(
        _build_spectrum(config.spectrum), config.n_grid, config.lam, config.a_choice, config.reps, config.seed,
        config.threads,
    )
    return ExperimentResult(rows, "probe")


def _run_estimate_and_predict(config: ExperimentConfig) -> ExperimentResult:
    draw, linear_risk, _ = _gaussian_problem(config)
    holdout, y_holdout = draw(config.holdout, derive_rng(config.seed, 4))
    est = estimation.estimate_spectrum(krr.GramMatrix(holdout.matrix @ holdout.matrix.T), y_holdout)

    def model_at(n, lam):
        return estimation.decomposition_to_model(est, n, lam, config.noise_variance, config.truncation)

    return _run_curve(config, 5, linear_risk, model_at)


_RUNNERS = {
    "gaussian_curve": _run_gaussian_curve,
    "sphere_curve": _run_sphere_curve,
    "gcv_sweep": _run_gcv_sweep,
    "functional_probe": _run_functional_probe,
    "estimate_and_predict": _run_estimate_and_predict,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment; deterministic given (config, seed).

    Per-replication seeds derive from (seed, kind tag, grid index, rep), so
    the result is independent of thread count.  Row failures are recorded in
    the status column and the remaining rows complete.
    """
    return _RUNNERS[config.kind](config)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_results(result: ExperimentResult, fmt: str, path) -> None:
    """Write the result table as CSV or JSON with a fixed column set.

    Curve tables use the 11-column schema; probe tables use the probe schema
    declared by the functional-probe interface.  Output bytes depend only on
    the table rows.
    """
    if not result.rows:
        raise ConfigError("refusing to emit an empty result table")
    columns = CURVE_COLUMNS if result.schema == "curve" else PROBE_COLUMNS
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in result.rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
    elif fmt == "json":
        doc = {
            "columns": columns,
            "rows": [{c: row[c] for c in columns} for row in result.rows],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, sort_keys=True, indent=1)
            handle.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
