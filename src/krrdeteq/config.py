"""Config documents: each experiment kind's schema and the ``deteq`` model document's, with
every check that reads only the document; standard library only, so a document is checked
before any numeric module loads.  Checks that need a built model stay with its builder.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

__all__ = ["ConfigError", "ExperimentConfig"]

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
DETEQ_FIELDS = ("blocks", "alignment", "residual_energy", "noise_variance", "lambda", "n", "n_grid", "seed", "output_path")


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


def check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError("threads must be >= 1")


def _sub_kind(doc: dict, kinds: dict, default: str, what: str) -> str:
    """The kind of a ``spectrum`` or ``target`` sub-document, checked with its keys as ``check_fields`` does."""
    kind = doc.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    check_fields(doc, kinds[kind], f"a {kind} {what}")
    return kind


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
        check_threads(self.threads)
        check_seed(self.seed)
        check_nonnegative("lambda", self.lam)
        for lam in self.lambda_grid:
            check_nonnegative("every lambda_grid entry", lam)
        reads = KIND_FIELDS[self.kind]
        if "n_grid" in reads:
            grid = list(self.n_grid)
            if not grid or sorted(grid) != grid or len(set(grid)) != len(grid):
                raise ConfigError("n_grid must be nonempty and strictly increasing")
            if grid[0] < 1:
                raise ConfigError("every n_grid entry must be >= 1")
        if "n" in reads and self.n < 1:
            raise ConfigError("gcv_sweep requires a positive n")
        if "lambda_grid" in reads:
            grid = list(self.lambda_grid)
            if not grid or sorted(grid) != grid:
                raise ConfigError("lambda_grid must be nonempty and sorted")
        if "holdout" in reads and self.holdout < 2:
            raise ConfigError("estimate_and_predict requires holdout >= 2")
        if self.truncation is not None and not 1 <= self.truncation <= self.holdout:
            raise ConfigError(f"truncation must be in [1, holdout = {self.holdout}]")
        if "spectrum" in reads:
            if not self.spectrum:
                raise ConfigError("experiment requires a 'spectrum' entry")
            power_law = _sub_kind(self.spectrum, SPECTRUM_FIELDS, "power_law", "spectrum") == "power_law"
            if power_law and not {"exponent", "size"} <= self.spectrum.keys():  # types: checked with the keys
                raise ConfigError("a power_law spectrum needs a number 'exponent' and an integer 'size'")
        if "target" in reads and self.target:  # an absent or empty target is random_unit
            if _sub_kind(self.target, TARGET_FIELDS, "random_unit", "target") == "energies":
                for value in check_entries(self.target.get("values", ()), _NUMBER, "target values"):
                    check_nonnegative("target values", value)
        if "d" in reads and (self.d < 3 or self.levels < 1 or not self.gap > 0):  # NaN fails too
            raise ConfigError("sphere_curve requires d >= 3, levels >= 1, gap > 0")

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


def deteq_settings(doc, seed: int | None = None) -> tuple[tuple[int, ...], float, int]:
    """Check a ``deteq`` model document, all but the model's own checks, and return its
    (n_grid, lambda, seed); ``n_grid`` wins over ``n``, and a ``seed`` given wins over the document's."""
    check_fields(doc, DETEQ_FIELDS, "deteq")
    for key in ("blocks", "alignment"):
        if key not in doc:
            raise ConfigError(f"deteq config requires {key!r}")
    if "n" not in doc and "n_grid" not in doc:
        raise ConfigError("deteq config requires 'n' or 'n_grid'")
    lam = float(doc.get("lambda", 0.0))
    check_nonnegative("lambda", lam)
    n_grid = check_entries(doc["n_grid"] if "n_grid" in doc else [doc["n"]], int, "n_grid (or [n])")
    if not n_grid:
        raise ConfigError("n_grid must be nonempty")
    if any(n < 1 for n in n_grid):
        raise ConfigError("every n_grid entry (or n) must be >= 1")
    return n_grid, lam, check_seed(doc.get("seed", 0) if seed is None else seed)
