"""Empirical kernel ridge regression: fits, train error, GCV, risk estimates.

All solvers work from the n x n Gram matrix.  ``fit_krr`` and ``gcv`` share
one dual solve: a fresh Cholesky factorization per lambda > 0, and at lam = 0
an eigendecomposition with an explicit full-rank check, matching the
minimum-norm interpolation reading of lambda -> 0.  The GCV denominator
Tr((K + lam)^-1) at lam > 0 is ||L^-1||_F^2 for the Cholesky factor L, which
``_tri_inverse`` inverts in place, block-wise: triangular solves on blocks of at most
TRACE_LEAF rows and two matrix products per split.  Those products run on scipy's ``dgemm``, the
OpenBLAS copy that also runs cho_factor, cho_solve and the triangular solves: numpy
and scipy each bundle their own OpenBLAS, and at more than one BLAS thread their
two thread pools contend when one loop calls both.  ``linear_sweep`` reuses one
eigendecomposition across a lambda grid for linear features.  Every route is
checked against the others, case by case, in the ``KRR_CASES`` table of
``tests/test_krr.py``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, norm, solve_triangular
from scipy.linalg.blas import dgemm

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
TRACE_LEAF = 64  # rows of a block of the trace's factor that _tri_inverse inverts directly, in place

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
            try:
                with np.errstate(over="raise"):
                    np.add(k, k.T, out=s)
                s *= 0.5
            except FloatingPointError:  # only then: halving first changes the bits of subnormal entries
                np.add(k * 0.5, k.T * 0.5, out=s)
        self.entries = s

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues ascending, eigenvectors); validates p.s.d."""
        if self._eig is None:
            mu, v = np.linalg.eigh(self.entries)
            if mu.size and mu[0] < (floor := -PSD_TOL * max(abs(float(mu[-1])), 1.0)):
                raise KrrError(f"Gram matrix is not p.s.d.: min eigenvalue {mu[0]:.3e} below {floor:.3e}")
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


def _labels(y, n: int) -> np.ndarray:
    """Labels as a flat float vector; KrrError unless there are n >= 1 of them, all finite."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != n or n == 0:
        raise KrrError(f"label vector length {y.size} must equal the Gram size {n} >= 1")
    if not np.all(np.isfinite(y)):
        raise KrrError("labels must be finite")
    return y


def _full_rank(mu: np.ndarray) -> bool:
    """Numerical full rank of ascending eigenvalues: min eig > RANK_TOL * max eig > 0."""
    return mu[-1] > 0 and mu[0] > RANK_TOL * mu[-1]


def _shifted(gram: GramMatrix, lam: float) -> np.ndarray:
    """A fresh K + lam I; KrrError when it overflows."""
    # lam changes only the diagonal, so its largest entry decides overflow
    if not math.isfinite(float(gram.entries.diagonal().max()) + lam):
        raise KrrError("shifted Gram matrix K + lam I overflows")
    shifted = gram.entries.copy()
    shifted.flat[:: gram.n + 1] += lam
    return shifted


def _factor(shifted: np.ndarray):
    """Lower Cholesky factor of a fresh, exactly symmetric, finite matrix, written over it; KrrError
    unless positive definite.  The matrix is a K + lam I from ``_shifted`` or the X^T X of the
    ridgeless least squares in ``test_error_linear_exact``.

    The transpose is Fortran-ordered, so LAPACK factors the buffer in place, and it is the
    same matrix: GramMatrix entries are exactly symmetric, and numpy forms X^T X by syrk.
    Its entries are finite (GramMatrix checks them, ``_shifted`` the diagonal, and a
    non-finite X^T X fails the rank check before it), so no finite scan.
    """
    try:
        return cho_factor(shifted.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise KrrError(f"shifted Gram matrix is not positive definite: {exc}") from exc


def _dual(gram: GramMatrix, y, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Labels checked by ``_labels`` and alpha = (K + lam I)^-1 y: Cholesky at lam > 0, the eigenbasis at
    lam = 0; KrrError unless lam is finite and nonnegative."""
    y = _labels(y, gram.n)
    if lam < 0 or not math.isfinite(lam):
        raise KrrError("lambda must be finite and nonnegative")
    if lam > 0:
        return y, cho_solve(_factor(_shifted(gram, lam)), y, check_finite=False)
    mu, v = gram.eigendecomposition()
    if not _full_rank(mu):
        raise KrrError("interpolation ill-posed: Gram matrix is rank deficient")
    return y, v @ ((v.T @ y) / mu)


def fit_krr(gram: GramMatrix, y: np.ndarray, lam: float) -> KrrFit:
    """Solve (K + lam I) alpha = y.

    lam = 0 requires K numerically full rank (min eig > 1e-10 * max eig);
    the residual certificate ||(K + lam)alpha - y|| <= 1e-8 ||y|| is enforced.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing alpha fails the certificate below
        y, alpha = _dual(gram, y, lam)
        # BLAS nrm2 scales as it sums, so neither norm overflows below the float limit
        resid = norm(gram.entries @ alpha + lam * alpha - y, check_finite=False)
        tol = FIT_RTOL * max(norm(y, check_finite=False), 1e-300)
    if not resid <= tol:  # a NaN residual fails too
        raise KrrError(f"solve residual {resid:.3e} exceeds tolerance")
    return KrrFit(alpha=alpha, lam=lam, gram=gram)


def train_error(fit: KrrFit, y: np.ndarray) -> float:
    """Mean squared training residual (1/n) sum (y_i - (K alpha)_i)^2."""
    y = _labels(y, fit.gram.n)
    resid = y - fit.gram.entries @ fit.alpha
    return float(resid @ resid) / y.size


def _tri_inverse(low: np.ndarray) -> float:
    """Overwrite a lower-triangular L (zero above the diagonal) with W = L^-1 and return ||W||_F^2.

    A block of at most TRACE_LEAF rows is solved against the identity.  A larger one
    is split in two, L = [[L11, 0], [L21, L22]], so W = [[W11, 0], [-W22 L21 W11, W22]]
    (the blocked ``trtri`` of Du Croz & Higham 1992): W11 and W22 go over their blocks, then
    W21 over L21, from two products on scipy's ``dgemm`` that form W21^T = -(W11^T L21^T) W22^T,
    the association W22 (L21 W11) on the Fortran-ordered transposes of the C-ordered blocks.
    Squares are summed on each contiguous result, not on the strided block it is copied into.
    """
    n = low.shape[0]
    if n <= TRACE_LEAF:
        w = solve_triangular(low, np.eye(n), lower=True, check_finite=False)
        low[...] = w
        return float((w * w).sum())
    k = n // 2
    sumsq = _tri_inverse(low[:k, :k]) + _tri_inverse(low[k:, k:])
    w21t = dgemm(-1.0, dgemm(1.0, low[:k, :k].T, low[k:, :k].T), low[k:, k:].T)
    low[k:, :k] = w21t.T
    return sumsq + float((w21t * w21t).sum())


def _inv_trace(shifted: np.ndarray) -> float:
    """Tr(shifted^-1) = ||L^-1||_F^2 for numpy's Cholesky factor L of a K + lam I from ``_shifted``,
    inverted in place by ``_tri_inverse``.  The exactly symmetric ``shifted`` is passed as its
    Fortran-ordered transpose, which numpy factors without a strided copy."""
    # a second factorization beside _dual's cho_factor, kept while bench/workloads.py declares its span (ROADMAP
    # item 1); the last call on numpy's OpenBLAS pool in gcv's lambda loop
    return _tri_inverse(np.linalg.cholesky(shifted.T))


def gcv(gram: GramMatrix, y: np.ndarray, lam: float) -> float:
    """Generalized cross-validation score n ||alpha||^2 / Tr((K+lam)^-1)^2.

    alpha comes from the fit's own solve, ``_dual``, without its residual certificate, so the
    score stays defined near interpolation and at lam = 0 for a full-rank K.  ``_dual`` raises
    the KrrError for a K + lam I that is not positive definite before the trace factors it again.
    KrrError when the score, alpha or the trace is not a finite float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, alpha = _dual(gram, y, lam)
        if lam > 0:
            inv_trace = _inv_trace(_shifted(gram, lam))
        else:
            inv_trace = float(np.sum(1.0 / gram.eigendecomposition()[0]))
        try:
            score = gram.n * float(alpha @ alpha) / inv_trace**2
        except (OverflowError, ZeroDivisionError):  # the squared trace left the float range
            score = math.nan
    if not math.isfinite(score):
        raise KrrError(f"GCV score n ||alpha||^2 / Tr((K + lam)^-1)^2 is not a finite float at lambda = {lam!r}")
    return score


def linear_sweep(sample, theta_star, y, lambda_grid, noise_variance: float = 0.0) -> list[dict]:
    """GCV, train error, Stieltjes value and exact linear-feature test error per lambda.

    One Gram eigendecomposition serves the whole grid; primal coefficients
    come from theta_hat = X^T alpha(lambda) and the test error includes the
    noise floor.  Agrees with the per-lambda direct path (tested on every
    feature row of ``KRR_CASES``), just cheaper on dense grids.  Labels,
    lambdas and theta_star are checked as in every entry point, before any
    work; lambda = 0 on a rank-deficient Gram gives a row of NaN.
    """
    x = np.asarray(sample.matrix, dtype=float)
    sigma = sample.covariance.expand()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    y = _labels(y, x.shape[0])
    if theta_star.size != x.shape[1]:
        raise KrrError("feature/target dimensions disagree")
    lambda_grid = [float(lam) for lam in lambda_grid]
    if not all(0 <= lam < math.inf for lam in lambda_grid):  # NaN fails both comparisons
        raise KrrError("lambda must be finite and nonnegative")
    gram = GramMatrix(x @ x.T)
    mu, v = gram.eigendecomposition()
    c = v.T @ y
    n = gram.n
    rows = []
    for lam in lambda_grid:
        row = {"lambda": lam} | dict.fromkeys(("gcv", "train_error", "stieltjes", "test_error"), math.nan)
        rows.append(row)
        if lam == 0 and not _full_rank(mu):
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
    n, p = x.shape
    y = _labels(y, n)
    if theta_star.size != p:
        raise KrrError("feature/target dimensions disagree")
    if lam == 0 and n > p:
        h = x.T @ x
        if not _full_rank(np.linalg.eigvalsh(h)):
            raise KrrError("ridgeless least squares ill-posed: features rank deficient")
        theta_hat = cho_solve(_factor(h), x.T @ y)
    else:
        theta_hat = x.T @ fit_krr(GramMatrix(x @ x.T), y, lam).alpha
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
    preds = fit.predict(kernel(test_points, train_points))
    sq_dev = (np.asarray(target(test_points), dtype=float).ravel() - preds) ** 2
    estimate = float(sq_dev.mean()) + float(noise_variance)
    if sq_dev.size > 1:
        std_error = float(sq_dev.std(ddof=1) / math.sqrt(sq_dev.size))
    else:
        std_error = math.inf
    return estimate, std_error


# -- binary interchange -------------------------------------------------------


def _write_binary(path, magic: bytes, values) -> None:
    """magic, u64 n = len(values), then the values as f64, all little-endian."""
    values = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(magic + struct.pack("<Q", len(values)))
        handle.write(values.tobytes())


def _read_binary(path, magic: bytes, ndim: int) -> np.ndarray:
    """The n x ... x n (ndim axes) f64 array after the header, checked against the
    file size before the payload is read; trailing bytes are ignored."""
    with open(path, "rb") as handle:
        head = handle.read(12)
        if head[:4] != magic or len(head) < 12:
            raise KrrError(f"bad {magic.decode()} magic or short header {head!r}")
        (n,) = struct.unpack("<Q", head[4:])
        if os.fstat(handle.fileno()).st_size - 12 < 8 * n**ndim:
            raise KrrError(f"truncated {magic.decode()} payload: header n = {n}")
        data = np.frombuffer(handle.read(8 * n**ndim), dtype="<f8")
    return data.reshape((n,) * ndim).astype(float)


def write_gram_binary(gram: GramMatrix, path) -> None:
    """magic 'KRRG', u64 n, then n*n f64 row-major, all little-endian."""
    _write_binary(path, GRAM_MAGIC, gram.entries)


def read_gram_binary(path) -> GramMatrix:
    return GramMatrix(_read_binary(path, GRAM_MAGIC, 2))


def write_labels_binary(y: np.ndarray, path) -> None:
    """magic 'KRRY', u64 n, n f64 little-endian."""
    _write_binary(path, LABEL_MAGIC, np.ravel(y))


def read_labels_binary(path) -> np.ndarray:
    return _read_binary(path, LABEL_MAGIC, 1)
