"""Empirical resolvent functionals and their closed-form counterparts.

For a feature matrix X (rows x_i = Sigma^{1/2} z_i) and resolvent
R = (X^T X + lam)^{-1}, four trace functionals of a p.s.d. test matrix A are
evaluated empirically and predicted in closed form from the effective
regularization.  A convergence probe measures how fast the empirical values
concentrate on the predictions as n grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .deteq import solve_effective_reg
from .seeds import replicate
from .spectrum import Spectrum, SpectrumError

__all__ = [
    "FeatureSample",
    "RiskMatrix",
    "IdentityMatrix",
    "sample_gaussian_features",
    "empirical_functionals",
    "deterministic_functionals",
    "convergence_probe",
]

# primal (p x p) factorization up to this aspect ratio, dual (n x n) beyond
PRIMAL_RATIO = 4
# rows (or columns) per block when R is mirrored or reduced, which bounds the temporaries
_BLOCK = 256
# below this fraction of p, p - lam Tr(R) has cancelled too far to give Tr(X^T X R)
_CANCELLED = 2.0**-20


@dataclass(frozen=True, eq=False)
class FeatureSample:
    """n x p feature matrix with its known diagonal covariance."""

    matrix: np.ndarray
    covariance: Spectrum

    def __post_init__(self):
        x = np.asarray(self.matrix, dtype=float)
        if x.ndim != 2:
            raise SpectrumError("feature matrix must be 2-d")
        if x.shape[1] != self.covariance.total_rank:
            raise SpectrumError(
                f"feature dimension {x.shape[1]} != expanded covariance rank "
                f"{self.covariance.total_rank}"
            )
        object.__setattr__(self, "matrix", x)


@dataclass(frozen=True, eq=False)
class RiskMatrix:
    """Structured test matrix Sigma^-1 beta beta^T Sigma^-1.

    Kept in factored form: by design Tr(A Sigma^2) = ||beta||^2 stays finite
    even when the dense matrix would be ill-conditioned.
    """

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())


@dataclass(frozen=True)
class IdentityMatrix:
    """The size x size identity test matrix, kept structured: no p x p array is formed for it."""

    size: int


def sample_gaussian_features(spectrum: Spectrum, n: int, seed) -> FeatureSample:
    """x = Sigma^{1/2} z with z ~ N(0, I_p); p = expanded rank of the spectrum."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sqrt_sigma = np.sqrt(spectrum.expand())
    z = rng.standard_normal((n, sqrt_sigma.size))
    z *= sqrt_sigma
    return FeatureSample(matrix=z, covariance=spectrum)


def _check_test_matrix(a, p: int):
    """``a`` as a RiskMatrix, IdentityMatrix or dense float array; SpectrumError unless it is p x p."""
    if isinstance(a, RiskMatrix):
        shape = (a.beta.size, a.beta.size)
    elif isinstance(a, IdentityMatrix):
        shape = (a.size, a.size)
    else:
        a = np.asarray(a, dtype=float)
        shape = a.shape
    if shape != (p, p):
        raise SpectrumError("test matrix dimension mismatch")
    return a


def _mirror_lower(r: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of square ``r`` onto its upper triangle in place, a column block at a time."""
    p = r.shape[0]
    for j0 in range(0, p, _BLOCK):
        j1 = min(j0 + _BLOCK, p)
        diag = r[j0:j1, j0:j1]
        upper = np.triu_indices(j1 - j0, 1)
        diag[upper] = diag.T[upper]
        r[j0:j1, j1:] = r[j1:, j0:j1].T
    return r


def _resolvent(x: np.ndarray, lam: float) -> np.ndarray:
    """R = (X^T X + lam)^-1; R is the only p x p array formed here.

    Primal (p <= PRIMAL_RATIO n): Cholesky of X^T X + lam, inverted in place by
    LAPACK potri.  Dual: (I - X^T (X X^T + lam)^-1 X) / lam, built in place.
    """
    n, p = x.shape
    if p <= PRIMAL_RATIO * n:
        gram = x.T @ x
        gram.ravel()[:: p + 1] += lam
        # gram is symmetric: its transpose is the same matrix in the Fortran
        # order LAPACK overwrites without a copy
        factor, lower = cho_factor(gram.T, lower=True, overwrite_a=True)
        r, info = dpotri(factor, lower=lower, overwrite_c=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"potri failed with info {info}")
        return _mirror_lower(r).T
    gram = x @ x.T
    gram.ravel()[:: n + 1] += lam
    gx = cho_solve(cho_factor(gram, lower=True, overwrite_a=True), x)
    r = x.T @ gx
    np.negative(r, out=r)
    r.ravel()[:: p + 1] += 1.0
    r /= lam
    return r


def _weighted_squares(r: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """(sum_ij s_i r_ij^2, sum_ij s_i s_j r_ij^2), one row block at a time.

    For symmetric R these are Tr(S R^2) and ||S^1/2 R S^1/2||_F^2.
    """
    first = second = 0.0
    for i0 in range(0, r.shape[0], _BLOCK):
        sq = np.square(r[i0 : i0 + _BLOCK])
        s = sigma[i0 : i0 + _BLOCK]
        first += float(s @ sq.sum(axis=1))
        second += float(s @ (sq @ sigma))
    return first, second


def _xr_sums(x: np.ndarray, r: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """(Tr(X^T X R), sum_j s_j ||column j of XR||^2), with XR formed a row block at a time."""
    trace = weighted = 0.0
    for i0 in range(0, x.shape[0], _BLOCK):
        rows = x[i0 : i0 + _BLOCK]
        xr = rows @ r
        trace += float(np.vdot(xr, rows))
        weighted += float(np.square(xr).sum(axis=0) @ sigma)
    return trace, weighted


@np.errstate(all="ignore")  # a non-finite functional raises SpectrumError below, with no warning
def empirical_functionals(sample: FeatureSample, lam: float, a) -> tuple[float, float, float, float]:
    """The four resolvent trace functionals of the sample at test matrix ``a``.

    phi1 = Tr(A S^1/2 R S^1/2)          phi2 = Tr((X^T X / n) R)
    phi3 = Tr(A S^1/2 R S R S^1/2)      phi4 = Tr(A S^1/2 R (X^T X / n) R S^1/2)

    ``a`` is a dense symmetric p.s.d. array, a RiskMatrix or an IdentityMatrix.
    phi2 uses Tr(X^T X R) = p - lam Tr(R) and phi4 X^T X = (X^T X + lam) - lam, so only R
    and R^2 contractions are needed; where that leaves under _CANCELLED p, phi2 and the
    structured phi4 read XR instead (the dense phi4 stays their oracle).
    """
    if lam <= 0 or not math.isfinite(lam):
        raise SpectrumError("empirical functionals require lambda > 0")
    x = sample.matrix
    n, p = x.shape
    a = _check_test_matrix(a, p)
    sigma = sample.covariance.expand()
    sqrt_sigma = np.sqrt(sigma)

    r = _resolvent(x, lam)
    tr_xxr = p - lam * float(np.trace(r))
    if cancelled := tr_xxr < _CANCELLED * p:
        tr_xxr, tr_sxr = _xr_sums(x, r, sigma)  # tr_sxr = Tr(S R X^T X R)
    phi2 = tr_xxr / n

    if isinstance(a, RiskMatrix):
        u = a.beta / sqrt_sigma
        ru = r @ u
        phi1 = float(u @ ru)
        phi3 = float(np.dot(sigma, ru * ru))
        phi4 = (float(np.square(x @ ru).sum()) if cancelled else phi1 - lam * float(ru @ ru)) / n
    elif isinstance(a, IdentityMatrix):
        phi1 = float(np.dot(sigma, np.diagonal(r)))
        tr_sr2, phi3 = _weighted_squares(r, sigma)  # Tr(S R^2), Tr(M^2) with M = S^1/2 R S^1/2
        phi4 = (tr_sxr if cancelled else phi1 - lam * tr_sr2) / n
    else:
        m = sqrt_sigma[:, None] * r * sqrt_sigma[None, :]
        am = a @ m
        phi1 = float(np.trace(am))
        phi3 = float((am * m.T).sum())  # Tr(A M M)
        sa = sqrt_sigma[:, None] * a * sqrt_sigma[None, :]
        tr_ar2 = float(((sa @ r) * r).sum())  # Tr(S^1/2 A S^1/2 R R)
        phi4 = (phi1 - lam * tr_ar2) / n
    for name, val in (("phi1", phi1), ("phi2", phi2), ("phi3", phi3), ("phi4", phi4)):
        if not math.isfinite(val):
            raise SpectrumError(f"{name} is not finite")
    return phi1, phi2, phi3, phi4


@np.errstate(all="ignore")  # a non-finite prediction raises SpectrumError below, with no warning
def deterministic_functionals(
    spectrum: Spectrum, n: int, lam: float, a
) -> tuple[float, float, float, float]:
    """Closed-form predictions for the four functionals.

    With mu = lam / lambda_star:
    psi1 = Tr(A S (mu S + lam)^-1)               psi2 = Tr(S (S + ls)^-1) / n
    psi3 = Tr(A S^2 (mu S + lam)^-2) / (1 - U2)  psi4 = Tr(A S^2 (S + ls)^-2) / (n^2 (1 - U2))
    As mu S + lam = mu (S + ls), A = I gives psi1 = n U1 / mu, psi3 = n U2 / (mu^2 (1 - U2)), psi4 = U2 / (n (1 - U2));
    a RiskMatrix multiplies and squares ratios, finite where S^2 underflows; a dense A keeps the S^2 sums, as their oracle.
    """
    eff = solve_effective_reg(spectrum, n, lam)
    ls, mu = eff.lambda_star, np.float64(eff.mu_star)  # mu = 0 gives inf and the SpectrumError below
    denom = 1.0 - eff.upsilon2
    psi2 = eff.upsilon1
    a = _check_test_matrix(a, spectrum.total_rank)
    if isinstance(a, IdentityMatrix):
        psi1 = float(n * eff.upsilon1 / mu)
        psi3 = float(n * eff.upsilon2 / mu / mu / denom)
        psi4 = eff.upsilon2 / (n * denom)
    elif isinstance(a, RiskMatrix):
        sigma = spectrum.expand()
        psi1 = float(np.sum((a.beta / sigma) * (a.beta / (mu * sigma + lam))))
        psi3 = float(np.sum(np.square(a.beta / (mu * sigma + lam)))) / denom
        psi4 = float(np.sum(np.square(a.beta / (sigma + ls)))) / (n * n * denom)
    else:
        # only the diagonal of A enters; Tr(A D) = Tr(A^T D) for diagonal D
        sigma, diag_a = spectrum.expand(), np.diagonal(a)
        psi1 = float(np.dot(diag_a, sigma / (mu * sigma + lam)))
        psi3 = float(np.dot(diag_a, sigma**2 / (mu * sigma + lam) ** 2)) / denom
        psi4 = float(np.dot(diag_a, sigma**2 / (sigma + ls) ** 2)) / (n * n * denom)
    for name, val in (("psi1", psi1), ("psi2", psi2), ("psi3", psi3), ("psi4", psi4)):
        if not math.isfinite(val):
            raise SpectrumError(f"{name} is not finite")
    return psi1, psi2, psi3, psi4


def _probe_task(spectrum, lam, a, n, rng):
    sample = sample_gaussian_features(spectrum, n, rng)
    phi = empirical_functionals(sample, lam, a)
    psi = deterministic_functionals(spectrum, n, lam, a)
    return tuple(abs(emp - pred) / pred for emp, pred in zip(phi, psi))


def convergence_probe(
    spectrum: Spectrum,
    n_grid,
    lam: float,
    a_choice: str = "identity",
    reps: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Median relative errors |phi_j - psi_j| / psi_j per (n, j) over replications.

    The test matrix ``a_choice`` is "identity" (A = I) or "rank_one" (a RiskMatrix
    with beta = e_1).  Gaussian features; replication ``rep`` at grid index ``i`` draws from
    ``derive_rng(seed, 101, i, rep)`` (``seeds.replicate``), so the reduction is
    independent of worker count.  Returns rows with keys n, functional_index, median_rel_err,
    q25, q75, reps, seed; the table has no status column, so a failed replication raises SpectrumError.
    """
    n_grid = [int(v) for v in n_grid]
    if sorted(n_grid) != n_grid or not n_grid:
        raise SpectrumError("n grid must be nonempty and increasing")
    if reps < 1:
        raise SpectrumError("reps must be a positive integer")
    p = spectrum.total_rank
    # isinstance first: ``ndarray == "identity"`` compares elementwise
    if not isinstance(a_choice, str) or a_choice not in ("identity", "rank_one"):
        raise SpectrumError(f"unknown test-matrix choice {a_choice!r}")
    a = IdentityMatrix(p) if a_choice == "identity" else RiskMatrix(np.eye(1, p))  # rank one: beta = e_1
    results = replicate(seed, 101, n_grid, reps, functools.partial(_probe_task, spectrum, lam, a), threads)
    if failed := [f"n = {n}: {error}" for n, point in zip(n_grid, results) for _, error in point if error]:
        raise SpectrumError(f"functional probe failed at {failed[0]}")

    rows = []
    for n, point in zip(n_grid, results):
        q25, med, q75 = np.percentile(np.array([errs for errs, _ in point]), [25, 50, 75], axis=0)
        rows += [
            {"n": n, "functional_index": j + 1, "median_rel_err": float(med[j]), "q25": float(q25[j]),
             "q75": float(q75[j]), "reps": reps, "seed": seed}
            for j in range(4)
        ]
    return rows
