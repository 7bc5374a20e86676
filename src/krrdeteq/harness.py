"""Declarative experiment runner: seeded replication, aggregation, emission.

A JSON config selects an experiment kind, model parameters, a replication
count and a root seed.  Replications derive order-independent seeds, so the
emitted tables are byte-identical for a given (config, seed) regardless of
worker count.  Failures are recorded per row and the remaining rows complete.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import estimation, functionals, krr, sphere
from .deteq import deterministic_equivalents
from .seeds import _error, _outcome, derive_rng, map_tasks, replicate
from .spectrum import Alignment, ModelSpec, NoiseModel, Spectrum, SpectrumError, nu_diagnostic

__all__ = ["ConfigError", "ExperimentConfig", "ExperimentResult", "run_experiment", "emit_results", "CURVE_COLUMNS"]

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

_NUMBER = (int, float)
_NULL = type(None)
# JSON type of every config field, and of every key of its sub-documents, that any
# subcommand reads; booleans match none of them
FIELD_TYPES = {
    "kind": str, "reps": int, "seed": int, "threads": int, "output_path": (str, _NULL),
    "noise_variance": _NUMBER, "lambda": _NUMBER, "n_grid": list, "lambda_grid": list, "n": int,
    "spectrum": (dict, _NULL), "target": (dict, _NULL), "d": int, "gap": _NUMBER, "levels": int,
    "energies": (dict, _NULL), "a_choice": str, "holdout": int, "truncation": (int, _NULL),
    "blocks": list, "alignment": list, "residual_energy": _NUMBER,
    "exponent": _NUMBER, "size": int, "values": list,
}
# the keys each kind of ``spectrum`` and ``target`` sub-document reads
SPECTRUM_FIELDS = {"power_law": ("kind", "exponent", "size"), "blocks": ("kind", "blocks")}
TARGET_FIELDS = {"random_unit": ("kind",), "energies": ("kind", "values")}
COMMON_FIELDS = ("kind", "reps", "seed", "threads", "output_path")
# the fields each kind's runner reads, besides COMMON_FIELDS
KIND_FIELDS = {
    "gaussian_curve": ("spectrum", "target", "noise_variance", "lambda", "n_grid"),
    "sphere_curve": ("d", "levels", "gap", "energies", "noise_variance", "lambda", "n_grid"),
    "gcv_sweep": ("spectrum", "target", "noise_variance", "n", "lambda_grid"),
    "functional_probe": ("spectrum", "lambda", "n_grid", "a_choice"),
    "estimate_and_predict": ("spectrum", "target", "noise_variance", "holdout", "lambda", "n_grid", "truncation"),
}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _is_json(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def check_fields(doc, allowed, what: str) -> None:
    """Reject a non-object config, fields outside ``allowed`` and fields of the wrong JSON type."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"field {key!r} does not apply to {what}")
        if not _is_json(value, FIELD_TYPES[key]):
            raise ConfigError(f"field {key!r} has the wrong JSON type ({type(value).__name__})")


def check_entries(values, types, name: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not all(_is_json(v, types) for v in values):
        raise ConfigError(f"{name} must be a list of JSON {'integers' if types is int else 'numbers'}")
    return tuple(values)


def check_nonnegative(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and >= 0")


def check_seed(seed: int) -> int:
    """A root seed names one stream only in [0, 2**64): derive_seed reduces it mod 2**64."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kind, model parameters, replication count, seed."""

    kind: str
    reps: int = 1
    seed: int = 0
    noise_variance: float = 0.0
    lam: float = 0.0
    n_grid: tuple[int, ...] = ()
    lambda_grid: tuple[float, ...] = ()
    n: int = 0
    spectrum: dict | None = None
    target: dict | None = None
    d: int = 0
    gap: float = 0.0
    levels: int = 0
    energies: dict[int, float] | None = None
    a_choice: str = "identity"
    holdout: int = 0
    truncation: int | None = None
    output_path: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        check_seed(self.seed)
        check_nonnegative("lambda", self.lam)
        for lam in self.lambda_grid:
            check_nonnegative("every lambda_grid entry", lam)
        if self.kind in ("gaussian_curve", "sphere_curve", "functional_probe", "estimate_and_predict"):
            grid = list(self.n_grid)
            if not grid or sorted(grid) != grid or len(set(grid)) != len(grid):
                raise ConfigError("n_grid must be nonempty and strictly increasing")
            if grid[0] < 1:
                raise ConfigError("every n_grid entry must be >= 1")
        if self.kind == "gcv_sweep":
            if self.n < 1:
                raise ConfigError("gcv_sweep requires a positive n")
            grid = list(self.lambda_grid)
            if not grid or sorted(grid) != grid:
                raise ConfigError("lambda_grid must be nonempty and sorted")
        if self.kind == "estimate_and_predict" and self.holdout < 2:
            raise ConfigError("estimate_and_predict requires holdout >= 2")
        if self.truncation is not None and not 1 <= self.truncation <= self.holdout:
            raise ConfigError(f"truncation must be in [1, holdout = {self.holdout}]")

    @classmethod
    def from_dict(cls, doc: dict, kind: str | None = None) -> "ExperimentConfig":
        """Parse a JSON config document; anything malformed raises ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if kind is not None:
            found = doc.get("kind", kind)
            if found != kind:
                raise ConfigError(f"config kind {found!r} does not match requested {kind!r}")
            doc = {**doc, "kind": kind}
        found = doc.get("kind")
        if not isinstance(found, str) or found not in KIND_FIELDS:
            raise ConfigError(f"unknown experiment kind {found!r}")
        check_fields(doc, COMMON_FIELDS + KIND_FIELDS[found], found)
        kwargs: dict[str, Any] = {("lam" if key == "lambda" else key): value for key, value in doc.items()}
        if "n_grid" in kwargs:
            kwargs["n_grid"] = check_entries(kwargs["n_grid"], int, "n_grid")
        if "lambda_grid" in kwargs:
            grid = check_entries(kwargs["lambda_grid"], _NUMBER, "lambda_grid")
            kwargs["lambda_grid"] = tuple(float(v) for v in grid)
        if kwargs.get("energies") is not None:
            energies = kwargs["energies"]
            values = check_entries(tuple(energies.values()), _NUMBER, "energies")
            if not all(str(k).isdecimal() for k in energies) or len({int(k) for k in energies}) < len(energies):
                raise ConfigError("energies keys must be distinct integer levels")
            kwargs["energies"] = {int(k): float(v) for k, v in zip(energies, values)}
        return cls(**kwargs)

    def with_overrides(self, seed: int | None = None, threads: int | None = None) -> "ExperimentConfig":
        changes = {"seed": seed, "threads": threads}
        return dataclasses.replace(self, **{k: v for k, v in changes.items() if v is not None})


@dataclass
class ExperimentResult:
    """Result rows; ``schema`` selects the emission column set."""

    rows: list[dict]
    schema: str  # "curve" | "probe"

    @property
    def n_failed(self) -> int:
        return sum(row.get("status", "ok") != "ok" for row in self.rows)


def _sub_kind(doc: dict, kinds: dict, default: str, what: str) -> str:
    """The kind of a ``spectrum`` or ``target`` sub-document, checked with its keys as ``check_fields`` does."""
    kind = doc.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    check_fields(doc, kinds[kind], f"a {kind} {what}")
    return kind


def _build_spectrum(doc: dict | None) -> Spectrum:
    if not doc:
        raise ConfigError("experiment requires a 'spectrum' entry")
    if _sub_kind(doc, SPECTRUM_FIELDS, "power_law", "spectrum") == "blocks":
        return Spectrum.from_blocks(doc.get("blocks", []))
    if "exponent" not in doc or "size" not in doc:  # their JSON types are checked with the keys
        raise ConfigError("a power_law spectrum needs a number 'exponent' and an integer 'size'")
    return Spectrum.power_law(float(doc["exponent"]), doc["size"])


def _build_beta(doc: dict | None, spectrum: Spectrum, seed: int) -> np.ndarray:
    """Expanded whitened target coefficients beta (per eigendirection)."""
    p = spectrum.total_rank
    if p > 2_000_000:
        raise ConfigError("expanded rank too large for feature-level simulation")
    doc = doc or {"kind": "random_unit"}
    if _sub_kind(doc, TARGET_FIELDS, "random_unit", "target") == "random_unit":
        rng = derive_rng(seed, 7)
        beta = rng.standard_normal(p)
        return beta / np.linalg.norm(beta)
    values = np.asarray(check_entries(doc.get("values", ()), _NUMBER, "target values"), dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ConfigError("target values must be finite and >= 0")
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
    if config.d < 3 or config.levels < 1 or config.gap <= 0:
        raise ConfigError("sphere_curve requires d >= 3, levels >= 1, gap > 0")
    kernel = sphere.kernel_from_gaps(config.d, config.levels, config.gap)
    energies = config.energies or {k: k**-2.0 for k in range(1, config.levels + 1)}
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
            gram = krr.GramMatrix(sample.matrix @ sample.matrix.T)
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
