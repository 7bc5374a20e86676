"""Empirical resolvent functionals and their closed-form counterparts.

For a feature matrix X (rows x_i = Sigma^{1/2} z_i) and resolvent
R = (X^T X + lam)^{-1}, four trace functionals of a test matrix A are
evaluated empirically and predicted in closed form from the effective
regularization.  A is one of two structured forms, IdentityMatrix or the
RiskMatrix Sigma^-1 beta beta^T Sigma^-1; no dense p x p A is accepted.  A
convergence probe measures how fast the empirical values concentrate on the
predictions as n grows.

One ``_factor(x, lam)`` forms the route's Gram, X^T X when p <= n and X X^T when p > n, as one scipy
``dsyrk``, and shifts and factors it in place.  The dual route runs its products on scipy's OpenBLAS too,
beside the Cholesky work: numpy and scipy each bundle their own, and at more than one BLAS thread their
two thread pools contend when one loop calls both.  Both forms walk GX one panel at a time,
filling the diagonal of X^T GX; each tile of X^T GX is one ``dgemm`` that reads X's columns from one
reused C-ordered n x _BLOCK buffer, and the RiskMatrix products are ``dgemv`` calls.  The probe solves
each grid point's closed forms once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm, dgemv, dsyrk
from scipy.linalg.lapack import dpotri

from .deteq import _risk_denominator, solve_effective_reg
from .seeds import replicate
from .spectrum import Spectrum, SpectrumError, _integer

__all__ = [
    "FeatureSample",
    "RiskMatrix",
    "IdentityMatrix",
    "sample_gaussian_features",
    "empirical_functionals",
    "deterministic_functionals",
    "convergence_probe",
]

# rows (or columns) per block when R is mirrored or reduced; on the dual route, the columns of the one
# reused panel buffer of GX and of the one reused column buffer of X, and the side of the one reused
# tile of X^T GX, which bound the temporaries
_BLOCK = 256


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
    """x = Sigma^{1/2} z with z ~ N(0, I_p); p = expanded rank of the spectrum, n >= 0 an integer."""
    if not _integer(n) or n < 0:
        raise SpectrumError(f"sample count n must be a nonnegative integer, not {n!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sqrt_sigma = np.sqrt(spectrum.expand())
    z = rng.standard_normal((n, sqrt_sigma.size))
    z *= sqrt_sigma
    return FeatureSample(matrix=z, covariance=spectrum)


def _check_test_matrix(a, p: int) -> None:
    """SpectrumError unless ``a`` is a p x p IdentityMatrix or RiskMatrix."""
    if isinstance(a, IdentityMatrix):
        size = a.size
    elif isinstance(a, RiskMatrix):
        size = a.beta.size
    else:
        raise SpectrumError(f"test matrix must be an IdentityMatrix or a RiskMatrix, not {type(a).__name__}")
    if size != p:
        raise SpectrumError("test matrix dimension mismatch")


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


def _factor(x: np.ndarray, lam: float):
    """Lower Cholesky factor of the route's Gram + lam, X^T X when p <= n and X X^T when p > n: scipy's
    ``dsyrk`` of the Fortran-ordered x.T (no copy) sets the lower triangle LAPACK reads, which is shifted
    and factored in place.  SpectrumError names the Gram unless the shifted matrix is finite and
    numerically positive definite; the finite check is cho_factor's, so X gets no pass of its own."""
    dual = x.shape[1] > x.shape[0]
    name = "X X^T" if dual else "X^T X"
    gram = dsyrk(1.0, x.T, trans=int(dual), lower=1)
    gram.ravel(order="F")[:: gram.shape[0] + 1] += lam  # a view of the Fortran-ordered Gram: its diagonal
    try:
        return cho_factor(gram, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"{name} + lambda is not numerically positive definite: {exc}") from exc
    except ValueError as exc:  # cho_factor's finite check; LinAlgError, a ValueError too, is caught above
        raise SpectrumError(f"{name} + lambda is not finite") from exc


def _gx_panels(x: np.ndarray, factor, xgx: np.ndarray):
    """(i0, i1, GX[:, i0:i1]) for each _BLOCK-column panel of GX, with the diagonal i0:i1 of X^T GX
    written into ``xgx[i0:i1]`` first.

    Every panel is copied from X into one n x _BLOCK Fortran-order buffer and solved there in
    place, so one panel of GX is held at a time; the next panel overwrites it.  X's finite check
    is the factor's: X X^T + lam is finite only if X is.
    """
    p = x.shape[1]
    buf = np.empty((x.shape[0], min(_BLOCK, p)), order="F")
    for i0 in range(0, p, _BLOCK):
        i1 = min(i0 + _BLOCK, p)
        panel = buf[:, : i1 - i0]
        panel[...] = x[:, i0:i1]
        panel = cho_solve(factor, panel, overwrite_b=True, check_finite=False)
        np.einsum("ki,ki->i", x[:, i0:i1], panel, out=xgx[i0:i1])
        yield i0, i1, panel


def _primal_resolvent(x: np.ndarray, lam: float) -> np.ndarray:
    """R = (X^T X + lam)^-1 for p <= n: the factor of X^T X + lam, inverted in place by LAPACK potri."""
    r, info = dpotri(*_factor(x, lam), overwrite_c=True)
    if info != 0:
        raise SpectrumError(f"X^T X + lambda is not numerically positive definite: potri failed with info {info}")
    return _mirror_lower(r).T


def _dual_identity(x: np.ndarray, lam: float, sigma: np.ndarray) -> tuple[float, float, float, float]:
    """(phi1, phi2, phi3, phi4) at A = I on the dual route, from GX one panel at a time.

    With d the diagonal of X^T GX: phi1 = sum_i s_i (1 - d_i) / lam, phi2 = sum d / n and
    phi4 = sum_j s_j ||GX_j||^2 / n.  phi3 = sum_ij s_i s_j R_ij^2 with R = (I - X^T GX) / lam
    reduces R's lower triangle in _BLOCK x _BLOCK tiles: X^T GX is symmetric, so its tile
    (i0:i1, j0:j1) left of and on the diagonal is panel^T X[:, j0:j1]; the diagonal tile's
    squares count once, the tiles left of it twice.  Every tile is formed in one reused buffer,
    as the transpose X[:, j0:j1]^T panel by scipy's dgemm, which reads X[:, j0:j1] from one
    reused C-ordered n x _BLOCK column buffer: a plain row copy, whose transpose is the
    Fortran operand dgemm takes without a copy of its own.
    """
    n, p = x.shape
    xgx, gx_squares = np.empty(p), np.empty(p)
    # flat, so that each (possibly narrower) tile or column block is a contiguous view whose
    # ravel() and transpose are no copy
    flat, columns = np.empty(min(_BLOCK, p) ** 2), np.empty(n * min(_BLOCK, p))
    squares = 0.0
    for i0, i1, panel in _gx_panels(x, _factor(x, lam), xgx):
        gx_squares[i0:i1] = np.einsum("ki,ki->i", panel, panel)
        for j0 in range(0, i1, _BLOCK):
            j1 = min(j0 + _BLOCK, i1)
            tile = flat[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            xj = columns[: n * (j1 - j0)].reshape(n, j1 - j0)
            np.copyto(xj, x[:, j0:j1])
            dgemm(1.0, xj.T, panel, c=tile.T, overwrite_c=1)  # tile (i0:i1, j0:j1) of X^T GX
            if diagonal := j0 == i0:
                tile.ravel()[:: j1 - j0 + 1] -= 1.0  # the diagonal tile now holds -lam R
            np.square(tile, out=tile)
            squares += (1.0 if diagonal else 2.0) * float(sigma[i0:i1] @ (tile @ sigma[j0:j1]))
    phi1 = float(np.dot(sigma, 1.0 - xgx)) / lam
    return phi1, float(xgx.sum()) / n, squares / lam / lam, float(np.dot(gx_squares, sigma)) / n


def _dual_risk(x: np.ndarray, lam: float, u: np.ndarray, sigma: np.ndarray) -> tuple[float, float, float, float]:
    """(phi1, phi2, phi3, phi4) of the RiskMatrix with u = S^-1/2 beta on the dual route.

    GX u = X R u and the diagonal of X^T GX are summed one panel at a time.  Ru = (u - X^T GX u) / lam
    cancels where u lies in X's row space, so one step of iterative refinement follows: with the
    residual e = u - X^T X Ru - lam Ru, formed without cancellation, Ru += R e = (e - X^T G X e) / lam.
    Every matrix-vector product runs on scipy's ``dgemv``, beside the Cholesky solves.
    """
    n, p = x.shape
    factor = _factor(x, lam)
    xgx, gxu = np.empty(p), np.zeros(n)
    for i0, i1, panel in _gx_panels(x, factor, xgx):
        dgemv(1.0, panel, u[i0:i1], beta=1.0, y=gxu, overwrite_y=1)  # gxu += panel u[i0:i1], in place
    # x.T is Fortran-ordered, so dgemv reads X in place: X^T v as is, X v with trans=1
    ru = (u - dgemv(1.0, x.T, gxu)) / lam
    e = u - dgemv(1.0, x.T, dgemv(1.0, x.T, ru, trans=1)) - lam * ru
    ru += (e - dgemv(1.0, x.T, cho_solve(factor, dgemv(1.0, x.T, e, trans=1), check_finite=False))) / lam
    return float(u @ ru), float(xgx.sum()) / n, float(np.dot(sigma, ru * ru)), float(gxu @ gxu) / n


def _weighted_squares(r: np.ndarray, sigma: np.ndarray) -> float:
    """sum_ij s_i s_j r_ij^2 = ||S^1/2 R S^1/2||_F^2, one row block of R at a time."""
    total = 0.0
    for i0 in range(0, r.shape[0], _BLOCK):
        total += float(sigma[i0 : i0 + _BLOCK] @ (np.square(r[i0 : i0 + _BLOCK]) @ sigma))
    return total


def _xr_sums(x: np.ndarray, r: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """(Tr(X^T X R), sum_j s_j ||column j of XR||^2), with XR formed a row block at a time."""
    trace = weighted = 0.0
    for i0 in range(0, x.shape[0], _BLOCK):
        rows = x[i0 : i0 + _BLOCK]
        xr = rows @ r
        trace += float(np.vdot(xr, rows))
        weighted += float(np.square(xr).sum(axis=0) @ sigma)
    return trace, weighted


def _finite(prefix: str, values: tuple[float, ...]) -> tuple[float, ...]:
    """``values``, or SpectrumError naming the first that is not finite as ``prefix`` 1, 2, ..."""
    for j, value in enumerate(values, 1):
        if not math.isfinite(value):
            raise SpectrumError(f"{prefix}{j} is not finite")
    return values


@np.errstate(all="ignore")  # a non-finite functional raises SpectrumError below, with no warning
def empirical_functionals(sample: FeatureSample, lam: float, a) -> tuple[float, float, float, float]:
    """The four resolvent trace functionals of the sample at test matrix ``a``.

    phi1 = Tr(A S^1/2 R S^1/2)          phi2 = Tr((X^T X / n) R)
    phi3 = Tr(A S^1/2 R S R S^1/2)      phi4 = Tr(A S^1/2 R (X^T X / n) R S^1/2)

    ``a`` is an IdentityMatrix or a RiskMatrix; any other type raises SpectrumError.
    Dual route (p > n): XR = GX with G = (X X^T + lam)^-1, so phi2 and phi4 read GX and
    never cancel; R = (I - X^T GX) / lam gives phi1 and phi3.  Neither form holds GX whole
    nor a p x p array: GX is solved and reduced one _BLOCK-column panel at a time, in one
    reused panel buffer.  IdentityMatrix reduces R's lower triangle from each panel one
    _BLOCK x _BLOCK tile at a time, in one reused tile buffer; RiskMatrix reads
    Ru = (u - X^T (GX u)) / lam, refined by one step of iterative refinement.  Primal route
    (p <= n): R by potri, and XR formed a row block of X at a time, which gives phi2 =
    <X, XR> / n and the identity's phi4 = sum_j s_j ||column j of XR||^2 / n at every lam:
    p - lam Tr(R) and phi1 - lam Tr(S R^2), equal in exact arithmetic, lose digits as lam
    grows.  The RiskMatrix phi4 is ||X R u||^2 / n.
    """
    if lam <= 0 or not math.isfinite(lam):
        raise SpectrumError("empirical functionals require lambda > 0")
    x = sample.matrix
    n, p = x.shape
    if n == 0:
        raise SpectrumError("empirical functionals require a sample with at least one row")
    _check_test_matrix(a, p)
    sigma = sample.covariance.expand()

    if p > n:
        if isinstance(a, RiskMatrix):
            phi1, phi2, phi3, phi4 = _dual_risk(x, lam, a.beta / np.sqrt(sigma), sigma)
        else:
            phi1, phi2, phi3, phi4 = _dual_identity(x, lam, sigma)
    else:
        r = _primal_resolvent(x, lam)
        tr_xxr, tr_sxr = _xr_sums(x, r, sigma)  # tr_sxr = Tr(S R X^T X R)
        phi2 = tr_xxr / n
        if isinstance(a, RiskMatrix):
            u = a.beta / np.sqrt(sigma)
            ru = r @ u
            phi1, phi3 = float(u @ ru), float(np.dot(sigma, ru * ru))
            phi4 = float(np.square(x @ ru).sum()) / n
        else:
            phi1 = float(np.dot(sigma, np.diagonal(r)))
            phi3 = _weighted_squares(r, sigma)  # Tr(M^2) with M = S^1/2 R S^1/2
            phi4 = tr_sxr / n
    return _finite("phi", (phi1, phi2, phi3, phi4))


@np.errstate(all="ignore")  # a non-finite prediction raises SpectrumError below, with no warning
def deterministic_functionals(
    spectrum: Spectrum, n: int, lam: float, a
) -> tuple[float, float, float, float]:
    """Closed-form predictions for the four functionals.

    With mu = lam / lambda_star:
    psi1 = Tr(A S (mu S + lam)^-1)               psi2 = Tr(S (S + ls)^-1) / n
    psi3 = Tr(A S^2 (mu S + lam)^-2) / (1 - U2)  psi4 = Tr(A S^2 (S + ls)^-2) / (n^2 (1 - U2))
    As mu S + lam = mu (S + ls), A = I gives psi1 = n U1 / mu, psi3 = n U2 / (mu^2 (1 - U2)), psi4 = U2 / (n (1 - U2));
    a RiskMatrix multiplies and squares ratios, finite where S^2 underflows.  ``a`` is checked first, so a
    rejected test matrix costs no fixed-point solve.
    1 - U2 at or below the risk's floor raises FixedPointError, as in deteq.deterministic_equivalents.
    """
    _check_test_matrix(a, spectrum.total_rank)
    eff = solve_effective_reg(spectrum, n, lam)
    ls, mu = eff.lambda_star, np.float64(eff.mu_star)  # mu = 0 gives inf and the SpectrumError below
    denom = _risk_denominator(eff)
    psi2 = eff.upsilon1
    if isinstance(a, IdentityMatrix):
        psi1 = float(n * eff.upsilon1 / mu)
        psi3 = float(n * eff.upsilon2 / mu / mu / denom)
        psi4 = eff.upsilon2 / (n * denom)
    else:
        sigma = spectrum.expand()
        psi1 = float(np.sum((a.beta / sigma) * (a.beta / (mu * sigma + lam))))
        psi3 = float(np.sum(np.square(a.beta / (mu * sigma + lam)))) / denom
        psi4 = float(np.sum(np.square(a.beta / (sigma + ls)))) / (n * n * denom)
    return _finite("psi", (psi1, psi2, psi3, psi4))


def _probe_task(spectrum, lam, a, psi, n, rng):
    """|phi_j - psi_j| / psi_j of one replication: phi on the sample ``rng`` draws, then psi(n)."""
    phi = empirical_functionals(sample_gaussian_features(spectrum, n, rng), lam, a)
    return tuple(abs(emp - pred) / pred for emp, pred in zip(phi, psi(n)))


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
    independent of worker count.  psi depends on n alone: a ``functools.cache`` over n solves each
    grid point's once (workers that reach it together may each solve it, to the same bits) and
    stores no raise, so a failing psi fails every replication of its point.  Returns rows with keys
    n, functional_index, median_rel_err, q25, q75, reps, seed; the table has no status column, so a
    failed replication raises SpectrumError.
    """
    n_grid = list(n_grid)
    if not all(_integer(n) and n >= 1 for n in n_grid):
        raise SpectrumError("n grid entries must be positive integers")
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):  # ExperimentConfig's rule for n_grid
        raise SpectrumError("n grid must be nonempty and strictly increasing")
    if not _integer(reps) or reps < 1:
        raise SpectrumError("reps must be a positive integer")
    if not _integer(threads) or threads < 1:
        raise SpectrumError("threads must be a positive integer")
    if isinstance(lam, (bool, np.bool_)) or not (math.isfinite(lam) and lam > 0):  # before any draw
        raise SpectrumError("empirical functionals require lambda > 0")
    p = spectrum.total_rank
    # isinstance first: ``ndarray == "identity"`` compares elementwise
    if not isinstance(a_choice, str) or a_choice not in ("identity", "rank_one"):
        raise SpectrumError(f"unknown test-matrix choice {a_choice!r}")
    a = IdentityMatrix(p) if a_choice == "identity" else RiskMatrix(np.eye(1, p))  # rank one: beta = e_1
    psi = functools.cache(lambda n: deterministic_functionals(spectrum, n, lam, a))
    results = replicate(seed, 101, n_grid, reps, functools.partial(_probe_task, spectrum, lam, a, psi), threads)
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
