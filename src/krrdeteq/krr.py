"""Empirical kernel ridge regression: fits, train error, GCV, risk estimates.

All solvers work from the n x n Gram matrix.  Ridge fits at lam > 0 use a
fresh Cholesky factorization per lambda; the ridgeless path (lam = 0) goes
through an eigendecomposition with an explicit full-rank check, matching the
minimum-norm interpolation reading of lambda -> 0.  ``linear_sweep`` reuses
one eigendecomposition across a lambda grid for linear features and is tested
for agreement with the per-lambda direct path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

__all__ = [
    "KrrError",
    "GramMatrix",
    "KrrFit",
    "fit_krr",
    "train_error",
    "gcv",
    "linear_sweep",
    "test_error_linear_exact",
    "test_error_monte_carlo",
    "write_gram_binary",
    "read_gram_binary",
    "write_labels_binary",
    "read_labels_binary",
]

PSD_TOL = 1e-8
RANK_TOL = 1e-10
FIT_RTOL = 1e-8

GRAM_MAGIC = b"KRRG"
LABEL_MAGIC = b"KRRY"


class KrrError(ValueError):
    """Invalid Gram data or an ill-posed solve."""


@dataclass(eq=False)
class GramMatrix:
    """Symmetric p.s.d. kernel matrix K_ij = K(u_i, u_j).

    Eigenvalues below -1e-8 * max eigenvalue reject the input as non-p.s.d.
    The eigendecomposition is computed lazily and cached; it backs the
    ridgeless path and the fast lambda sweep.
    """

    entries: np.ndarray
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.entries, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise KrrError("Gram matrix must be square")
        # min and max propagate NaN, so finite extremes mean finite entries
        lo, hi = (float(k.min()), float(k.max())) if k.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise KrrError("Gram matrix must be finite")
        # one n x n buffer holds |K - K^T| for the check, then the symmetrized K
        s = k - k.T
        np.abs(s, out=s)
        asym = float(s.max()) if s.size else 0.0
        if asym > 1e-10 * max(-lo, hi, 1.0):
            raise KrrError("Gram matrix must be symmetric")
        if asym == 0:
            # (k + k) * 0.5 == k, so a plain copy has the same bits and cannot overflow
            np.copyto(s, k)
        else:
            np.add(k, k.T, out=s)
            s *= 0.5
        self.entries = s

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues ascending, eigenvectors); validates p.s.d."""
        if self._eig is None:
            mu, v = np.linalg.eigh(self.entries)
            top = float(mu[-1]) if mu.size else 0.0
            if mu.size and float(mu[0]) < -PSD_TOL * max(abs(top), 1.0):
                raise KrrError(
                    f"Gram matrix is not p.s.d.: min eigenvalue {mu[0]:.3e} "
                    f"below tolerance {-PSD_TOL * max(abs(top), 1.0):.3e}"
                )
            self._eig = (mu, v)
        return self._eig


@dataclass(frozen=True, eq=False)
class KrrFit:
    """Dual coefficients alpha solving (K + lam I) alpha = y."""

    alpha: np.ndarray
    lam: float
    gram: GramMatrix

    def predict(self, cross_gram: np.ndarray) -> np.ndarray:
        """Predictions k(u)^T alpha for cross_gram[t, i] = K(u_test_t, u_i)."""
        return np.asarray(cross_gram) @ self.alpha


def _shifted_factor(gram: GramMatrix, lam: float):
    """Cholesky factor of K + lam I; KrrError when that matrix is not positive definite."""
    try:
        return cho_factor(gram.entries + lam * np.eye(gram.n), lower=True)
    except np.linalg.LinAlgError as exc:
        raise KrrError(f"shifted Gram matrix is not positive definite: {exc}") from exc


def fit_krr(gram: GramMatrix, y: np.ndarray, lam: float) -> KrrFit:
    """Solve (K + lam I) alpha = y.

    lam = 0 requires K numerically full rank (min eig > 1e-10 * max eig);
    the residual certificate ||(K + lam)alpha - y|| <= 1e-8 ||y|| is enforced.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != gram.n:
        raise KrrError("label vector length must match the Gram size")
    if not np.all(np.isfinite(y)):
        raise KrrError("labels must be finite")
    if lam < 0 or not math.isfinite(lam):
        raise KrrError("lambda must be finite and nonnegative")
    if lam == 0:
        mu, v = gram.eigendecomposition()
        if mu[0] <= RANK_TOL * mu[-1] or mu[-1] <= 0:
            raise KrrError("interpolation ill-posed: Gram matrix is rank deficient")
        alpha = v @ ((v.T @ y) / mu)
    else:
        alpha = cho_solve(_shifted_factor(gram, lam), y)
    resid = np.linalg.norm(gram.entries @ alpha + lam * alpha - y)
    if not resid <= FIT_RTOL * max(np.linalg.norm(y), 1e-300):  # a NaN residual fails too
        raise KrrError(f"solve residual {resid:.3e} exceeds tolerance")
    return KrrFit(alpha=alpha, lam=lam, gram=gram)


def train_error(fit: KrrFit, y: np.ndarray) -> float:
    """Mean squared training residual (1/n) sum (y_i - (K alpha)_i)^2."""
    y = np.asarray(y, dtype=float).ravel()
    resid = y - fit.gram.entries @ fit.alpha
    return float(resid @ resid) / y.size


def _inv_trace(gram: GramMatrix, lam: float) -> float:
    """Tr((K + lam)^-1) via a fresh Cholesky factorization."""
    n = gram.n
    low = np.linalg.cholesky(gram.entries + lam * np.eye(n))
    linv = solve_triangular(low, np.eye(n), lower=True)
    return float((linv * linv).sum())


def gcv(gram: GramMatrix, y: np.ndarray, lam: float) -> float:
    """Generalized cross-validation score n y^T (K+lam)^-2 y / Tr((K+lam)^-1)^2.

    Well defined at lam = 0 when K is full rank (min-norm interpolation).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != gram.n:
        raise KrrError("label vector length must match the Gram size")
    if lam < 0 or not math.isfinite(lam):
        raise KrrError("lambda must be finite and nonnegative")
    n = gram.n
    if lam == 0:
        mu, v = gram.eigendecomposition()
        if mu[0] <= RANK_TOL * mu[-1] or mu[-1] <= 0:
            raise KrrError("GCV at lambda = 0 requires a full-rank Gram matrix")
        c = v.T @ y
        num = float(np.sum((c / mu) ** 2))
        denom = float(np.sum(1.0 / mu))
    else:
        z = cho_solve(_shifted_factor(gram, lam), y)
        num = float(z @ z)
        denom = _inv_trace(gram, lam)
    return n * num / denom**2


def linear_sweep(sample, theta_star, y, lambda_grid, noise_variance: float = 0.0) -> list[dict]:
    """GCV, train error, Stieltjes value and exact linear-feature test error per lambda.

    One Gram eigendecomposition serves the whole grid; primal coefficients
    come from theta_hat = X^T alpha(lambda) and the test error includes the
    noise floor.  Agrees with the per-lambda direct path (tested), just
    cheaper on dense grids.  lambda = 0 on a rank-deficient Gram gives a row
    of NaN.
    """
    x = np.asarray(sample.matrix, dtype=float)
    sigma = sample.covariance.expand()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    gram = GramMatrix(x @ x.T)
    mu, v = gram.eigendecomposition()
    c = v.T @ y
    n = gram.n
    rows = []
    for lam in map(float, lambda_grid):
        row = {"lambda": lam} | dict.fromkeys(("gcv", "train_error", "stieltjes", "test_error"), math.nan)
        rows.append(row)
        if lam == 0 and mu[0] <= RANK_TOL * mu[-1]:
            continue
        shifted = mu + lam
        inv_tr = float(np.sum(1.0 / shifted))
        quad2 = float(np.sum((c / shifted) ** 2))
        row["gcv"] = n * quad2 / inv_tr**2
        row["train_error"] = lam**2 * quad2 / n
        if lam > 0:
            row["stieltjes"] = inv_tr / n
        if math.isfinite(row["gcv"]):
            diff = theta_star - x.T @ (v @ (c / shifted))
            row["test_error"] = float(np.dot(sigma, diff * diff)) + float(noise_variance)
    return rows


def test_error_linear_exact(sample, theta_star, y, lam: float, noise_variance: float) -> float:
    """Exact test risk of a linear-feature ridge fit with known diagonal covariance.

    ``sample`` is a FeatureSample; fits theta_hat = X^T (X X^T + lam)^-1 y
    through the dual and returns ||theta_star - theta_hat||_Sigma^2 + sigma^2.
    At lam = 0 with more samples than features the ridgeless limit is the
    least-squares solution, solved in the primal with a full-column-rank check.
    """
    x = np.asarray(sample.matrix, dtype=float)
    sigma = sample.covariance.expand()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n, p = x.shape
    if theta_star.size != p or y.size != n:
        raise KrrError("feature/target dimensions disagree")
    if lam == 0 and n > p:
        h = x.T @ x
        mu = np.linalg.eigvalsh(h)
        if mu[0] <= RANK_TOL * mu[-1] or mu[-1] <= 0:
            raise KrrError("ridgeless least squares ill-posed: features rank deficient")
        theta_hat = cho_solve(cho_factor(h, lower=True), x.T @ y)
    else:
        fit = fit_krr(GramMatrix(x @ x.T), y, lam)
        theta_hat = x.T @ fit.alpha
    diff = theta_star - theta_hat
    return float(np.dot(sigma, diff * diff)) + float(noise_variance)


def test_error_monte_carlo(
    fit: KrrFit,
    kernel,
    target,
    noise_variance: float,
    train_points: np.ndarray,
    test_points: np.ndarray,
) -> tuple[float, float]:
    """Monte Carlo test risk mean((f_* - f_hat)^2) + sigma^2 with its standard error.

    ``kernel(a, b)`` must return the |a| x |b| cross-Gram matrix and
    ``target(points)`` the true function values.  The reported standard error
    covers the squared-deviation average only.
    """
    test_points = np.asarray(test_points, dtype=float)
    if test_points.size == 0:
        raise KrrError("Monte Carlo test set must be nonempty")
    cross = kernel(test_points, train_points)
    preds = cross @ fit.alpha
    sq_dev = (np.asarray(target(test_points), dtype=float).ravel() - preds) ** 2
    estimate = float(sq_dev.mean()) + float(noise_variance)
    if sq_dev.size > 1:
        std_error = float(sq_dev.std(ddof=1) / math.sqrt(sq_dev.size))
    else:
        std_error = math.inf
    return estimate, std_error


# -- binary interchange -------------------------------------------------------


def write_gram_binary(gram: GramMatrix, path) -> None:
    """magic 'KRRG', u64 n, then n*n f64 row-major, all little-endian."""
    with open(path, "wb") as handle:
        handle.write(GRAM_MAGIC)
        handle.write(struct.pack("<Q", gram.n))
        handle.write(np.ascontiguousarray(gram.entries, dtype="<f8").tobytes())


def read_gram_binary(path) -> GramMatrix:
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != GRAM_MAGIC:
            raise KrrError(f"bad Gram magic {magic!r}")
        (n,) = struct.unpack("<Q", handle.read(8))
        raw = handle.read(8 * n * n)
        if len(raw) != 8 * n * n:
            raise KrrError("truncated Gram payload")
        data = np.frombuffer(raw, dtype="<f8")
        return GramMatrix(data.reshape(n, n).astype(float))


def write_labels_binary(y: np.ndarray, path) -> None:
    """magic 'KRRY', u64 n, n f64 little-endian."""
    y = np.asarray(y, dtype=float).ravel()
    with open(path, "wb") as handle:
        handle.write(LABEL_MAGIC)
        handle.write(struct.pack("<Q", y.size))
        handle.write(np.ascontiguousarray(y, dtype="<f8").tobytes())


def read_labels_binary(path) -> np.ndarray:
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != LABEL_MAGIC:
            raise KrrError(f"bad label magic {magic!r}")
        (n,) = struct.unpack("<Q", handle.read(8))
        raw = handle.read(8 * n)
        if len(raw) != 8 * n:
            raise KrrError("truncated label payload")
        return np.frombuffer(raw, dtype="<f8").astype(float)

