"""Spectral data model for kernel ridge regression risk predictions.

A kernel operator is summarized by its positive eigenvalues grouped into
blocks ``(value, multiplicity)`` in nonincreasing order, the target's energy
per block, and a label-noise model.  All downstream formulas consume the
scalar sums defined here, so everything stays O(#blocks) even when a block
is astronomically degenerate (e.g. spherical-harmonic multiplicities).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectrumError",
    "Spectrum",
    "Alignment",
    "NoiseModel",
    "ModelSpec",
    "trace_resolvents",
    "tail_rank",
    "effective_rank",
    "nu_diagnostic",
    "model_to_json",
    "model_from_json",
]

# the quantile eta of the eigenvalue factor xi_(eta n) in nu_diagnostic
NU_ETA = 0.25


class SpectrumError(ValueError):
    """Invalid spectral data or out-of-domain query."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue blocks ``(value, multiplicity)``, nonincreasing in value.

    Values must be strictly positive and finite; multiplicities are positive
    integers.  Blocks are stored unexpanded so that degenerate spectra cost
    O(#blocks) per evaluation.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    # cumulative expanded counts / traces and float64 multiplicities for the
    # resolvent sums, filled in __post_init__
    _cum_mult: np.ndarray = field(init=False, repr=False, default=None)
    _cum_trace: np.ndarray = field(init=False, repr=False, default=None)
    _weights: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        raw = np.asarray(self.multiplicities)
        with np.errstate(invalid="ignore"):  # nan, inf and huge floats cast to garbage, rejected below
            mults = raw.astype(np.int64, copy=False)
        if values.ndim != 1 or mults.ndim != 1 or values.size != mults.size:
            raise SpectrumError("values and multiplicities must be matching 1-d sequences")
        if values.size == 0:
            raise SpectrumError("spectrum must contain at least one block")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise SpectrumError("eigenvalues must be finite and strictly positive")
        if np.any(values[1:] > values[:-1] * (1 + 1e-15)):
            raise SpectrumError("eigenvalues must be nonincreasing across blocks")
        if not np.array_equal(mults, raw):
            raise SpectrumError("multiplicities must be integers")
        if np.any(mults < 1):
            raise SpectrumError("multiplicities must be positive integers")
        cum_mult = np.cumsum(mults)
        if np.any(cum_mult[1:] <= cum_mult[:-1]):  # the int64 running sum wrapped
            raise SpectrumError("total multiplicity must be below 2**63")
        with np.errstate(over="ignore"):  # the positive running sum is inf at its end iff it overflowed
            cum_trace = np.cumsum(values * mults)
        if not math.isfinite(cum_trace[-1]):
            raise SpectrumError("total trace must be below the float limit")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "_cum_mult", cum_mult)
        object.__setattr__(self, "_cum_trace", cum_trace)
        object.__setattr__(self, "_weights", mults.astype(float))

    @classmethod
    def from_blocks(cls, blocks) -> "Spectrum":
        """Build from an iterable of ``(eigenvalue, multiplicity)`` pairs."""
        try:
            blocks = list(blocks)
            values = np.array([b[0] for b in blocks], dtype=float)
            return cls(values=values, multiplicities=np.asarray([b[1] for b in blocks]))
        except (TypeError, LookupError, OverflowError) as exc:
            raise SpectrumError(f"blocks must be (eigenvalue, multiplicity) pairs: {exc}") from None

    @classmethod
    def power_law(cls, exponent: float, size: int) -> "Spectrum":
        """Unit-multiplicity spectrum xi_j = j^(-exponent), j = 1..size."""
        j = np.arange(1, size + 1, dtype=float)
        return cls(values=j ** (-float(exponent)), multiplicities=np.ones(size, dtype=np.int64))

    @property
    def n_blocks(self) -> int:
        return self.values.size

    @property
    def total_rank(self) -> int:
        return int(self._cum_mult[-1])

    @property
    def trace(self) -> float:
        return float(self._cum_trace[-1])

    def _cut(self, m: int) -> tuple[int, int]:
        """(block, keep): the block holding expanded index 1 <= m <= rank and its count among the top m."""
        block = int(np.searchsorted(self._cum_mult, m))
        return block, m - (int(self._cum_mult[block - 1]) if block > 0 else 0)

    def eigenvalue_at(self, j: int) -> float:
        """The j-th largest eigenvalue (1-based, blocks expanded)."""
        if not 1 <= j <= self.total_rank:
            raise SpectrumError(f"expanded index {j} outside [1, {self.total_rank}]")
        return float(self.values[self._cut(j)[0]])

    def head_trace(self, m: int) -> float:
        """Sum of the m largest eigenvalues (blocks expanded)."""
        if not 0 <= m <= self.total_rank:
            raise SpectrumError(f"expanded index {m} outside [0, {self.total_rank}]")
        if m == 0:
            return 0.0
        block, keep = self._cut(m)
        prev_trace = float(self._cum_trace[block - 1]) if block > 0 else 0.0
        return prev_trace + keep * float(self.values[block])

    def tail_trace(self, m: int) -> float:
        """Sum of eigenvalues past the m largest (blocks expanded)."""
        return self.trace - self.head_trace(m)

    def head(self, m: int) -> "Spectrum":
        """The m largest eigenvalues, 1 <= m <= rank; the cut may divide a block."""
        if not 1 <= m <= self.total_rank:
            raise SpectrumError(f"expanded index {m} outside [1, {self.total_rank}]")
        block, keep = self._cut(m)
        return Spectrum(self.values[: block + 1], np.append(self.multiplicities[:block], keep))

    def expand(self) -> np.ndarray:
        """Expanded eigenvalue vector (length = total rank).  Use sparingly."""
        return np.repeat(self.values, self.multiplicities)

    def scaled(self, c: float) -> "Spectrum":
        if c <= 0:
            raise SpectrumError("scale factor must be positive")
        return Spectrum(self.values * c, self.multiplicities)


@dataclass(frozen=True, eq=False)
class Alignment:
    """Target energy per spectrum block plus energy outside the spectrum.

    ``energies[k]`` is the squared target coefficient mass in block k;
    ``residual_energy`` is target energy orthogonal to every listed block,
    which downstream acts as extra label noise.
    """

    energies: np.ndarray
    residual_energy: float = 0.0

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        if energies.ndim != 1:
            raise SpectrumError("alignment energies must be a 1-d sequence")
        if np.any(energies < 0) or not np.all(np.isfinite(energies)):
            raise SpectrumError("alignment energies must be finite and nonnegative")
        if not (math.isfinite(self.residual_energy) and self.residual_energy >= 0):
            raise SpectrumError("residual_energy must be finite and nonnegative")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "residual_energy", float(self.residual_energy))

    @property
    def total_energy(self) -> float:
        """Squared L2 norm of the target function."""
        return float(self.energies.sum()) + self.residual_energy

    def matches(self, spectrum: Spectrum) -> bool:
        return self.energies.size == spectrum.n_blocks


@dataclass(frozen=True)
class NoiseModel:
    """Label-noise variance."""

    variance: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise SpectrumError("noise variance must be finite and nonnegative")
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A full prediction instance: (n, lambda, spectrum, alignment, noise)."""

    n: int
    lam: float
    spectrum: Spectrum
    alignment: Alignment
    noise: NoiseModel = NoiseModel(0.0)

    def __post_init__(self):
        if self.n < 1:
            raise SpectrumError("sample count n must be a positive integer")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise SpectrumError("ridge parameter must be finite and nonnegative")
        if self.lam == 0 and self.spectrum.total_rank <= self.n:
            raise SpectrumError(
                "lambda = 0 requires spectrum rank > n, otherwise the "
                "effective-regularization fixed point has no positive solution"
            )
        if not self.alignment.matches(self.spectrum):
            raise SpectrumError("alignment length must equal the number of spectrum blocks")

    def truncated(self, m: int) -> "ModelSpec":
        """The truncated model at expanded cut 1 <= m <= total rank.

        It keeps n, the noise and the top-m eigenvalues with their energies;
        the tail's trace joins lambda and its energy joins the residual.  A
        block that the cut passes through splits its energy in proportion to
        the eigenvalues kept, the only choice consistent with block granularity.
        """
        head = self.spectrum.head(m)
        k = head.n_blocks - 1  # the last head block, the one the cut may pass through
        frac = int(head.multiplicities[k]) / int(self.spectrum.multiplicities[k])
        energies = self.alignment.energies
        tail_energy = float(energies[k]) * (1.0 - frac) + float(energies[k + 1 :].sum())
        head_energies = np.append(energies[:k], energies[k] * frac)
        alignment = Alignment(head_energies, self.alignment.residual_energy + tail_energy)
        return ModelSpec(self.n, self.lam + self.spectrum.tail_trace(m), head, alignment, self.noise)


def trace_resolvents(spectrum: Spectrum, s: float) -> tuple[float, float, float]:
    """Resolvent trace sums (T1, T2) at shift s > 0, and the slope sum S.

    T1 = sum_k m_k xi_k / (xi_k + s), T2 = sum_k m_k xi_k^2 / (xi_k + s)^2,
    S = sum_k m_k (xi_k / (xi_k + s)) (s / (xi_k + s)) = -s dT1/ds, formed as
    a product of two ratios in [0, 1]: squaring xi_k + s would underflow for
    tiny xi_k and s.
    """
    if not (math.isfinite(s) and s > 0):
        raise SpectrumError("resolvent shift s must be positive")
    # two block-length arrays; einsum, not np.dot: threaded BLAS splits long
    # dot products, so the sums would depend on the BLAS thread count
    weights = spectrum._weights
    shifted = spectrum.values + s
    ratio = spectrum.values / shifted
    t1 = float(np.einsum("i,i->", weights, ratio))
    np.divide(s, shifted, out=shifted)
    shifted *= ratio  # ratio * (s / shifted), bit for bit
    slope = float(np.einsum("i,i->", weights, shifted))
    ratio *= ratio
    t2 = float(np.einsum("i,i->", weights, ratio))
    return t1, t2, slope


def tail_rank(spectrum: Spectrum, m: int, lam: float) -> float:
    """Regularized tail rank (lambda + sum_{j>m} xi_j) / xi_{m+1}.

    m counts leading eigenvalues with blocks expanded; returns +inf at
    m = total rank by convention.
    """
    if lam < 0 or not math.isfinite(lam):
        raise SpectrumError("regularization must be finite and nonnegative")
    if not 0 <= m <= spectrum.total_rank:
        raise SpectrumError(f"m = {m} outside [0, total rank = {spectrum.total_rank}]")
    if m == spectrum.total_rank:
        return math.inf
    return (lam + spectrum.tail_trace(m)) / spectrum.eigenvalue_at(m + 1)


def effective_rank(spectrum: Spectrum, m: int, n: int) -> float:
    """Smallest r >= n dominating intrinsic dimension at every scale.

    r = max(n, max_{0 <= k < min(n,m)} (sum_{j=k+1..m} xi_j) / xi_{k+1}).
    Within a constant-eigenvalue block the ratio is largest at the block
    start, so only block boundaries need scanning.
    """
    if n < 1:
        raise SpectrumError("n must be a positive integer")
    if not 1 <= m <= spectrum.total_rank:
        raise SpectrumError(f"m = {m} outside [1, total rank = {spectrum.total_rank}]")
    head = spectrum.head_trace(m)
    starts = np.concatenate(([0], spectrum._cum_mult[:-1]))
    before = np.concatenate(([0.0], spectrum._cum_trace[:-1]))  # head_trace at each block start
    live = starts <= min(n, m) - 1
    return max(float(n), float(np.max((head - before[live]) / spectrum.values[live])))


def nu_diagnostic(spectrum: Spectrum, m: int, n: int, lam: float) -> float:
    """Conditioning diagnostic 1 + xi_(eta n) * r_eff * sqrt(log r_eff) / lambda_tail.

    ``lambda_tail = lam + sum_{j>m} xi_j`` must be positive, and eta is
    NU_ETA.  The eigenvalue factor is xi at expanded index floor(eta*n) when
    that index is <= m and 0 otherwise; an index below 1 is clamped to the
    top eigenvalue.  The diagnostic is reported only, never used in
    predictions.
    """
    if not 1 <= m <= spectrum.total_rank:
        raise SpectrumError(f"m = {m} outside [1, total rank = {spectrum.total_rank}]")
    lam_tail = lam + spectrum.tail_trace(m)
    if lam_tail <= 0:
        raise SpectrumError("lambda + tail trace must be positive")
    idx = int(math.floor(NU_ETA * n))
    if idx > m:
        return 1.0
    xi = spectrum.eigenvalue_at(max(idx, 1))
    r_eff = effective_rank(spectrum, m, n)
    return 1.0 + xi * r_eff * math.sqrt(math.log(r_eff)) / lam_tail


def model_to_json(spectrum: Spectrum, alignment: Alignment, noise: NoiseModel) -> str:
    """Serialize the spectral data to the canonical JSON document."""
    doc = {
        "blocks": [[float(v), int(m)] for v, m in zip(spectrum.values, spectrum.multiplicities)],
        "alignment": [float(t) for t in alignment.energies],
        "residual_energy": float(alignment.residual_energy),
        "noise_variance": float(noise.variance),
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(doc: dict) -> tuple[Spectrum, Alignment, NoiseModel]:
    """Build the spectral data from a parsed model document.

    ``doc`` is the object ``json.load`` returns for a document in the format
    ``model_to_json`` writes.  Keys other than ``blocks``, ``alignment``,
    ``residual_energy`` and ``noise_variance`` are ignored.
    """
    spectrum = Spectrum.from_blocks(doc["blocks"])
    try:
        energies = np.asarray(doc["alignment"], dtype=float)
    except TypeError as exc:
        raise SpectrumError(f"alignment must be a list of numbers: {exc}") from None
    alignment = Alignment(energies, doc.get("residual_energy", 0.0))
    noise = NoiseModel(doc.get("noise_variance", 0.0))
    if not alignment.matches(spectrum):
        raise SpectrumError("alignment length must equal the number of spectrum blocks")
    return spectrum, alignment, noise
