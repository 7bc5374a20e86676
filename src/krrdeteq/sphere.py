"""Inner-product kernels on the sphere S^{d-1}(sqrt(d)).

The coordinate distribution t = <u, e1>/sqrt(d) of a uniform point has
density proportional to (1-t^2)^{(d-3)/2} on [-1, 1].  The orthonormal
polynomial family Q_k for that weight diagonalizes every inner-product
kernel h(<u,u'>/d): eigenvalue xi_k with multiplicity B_{d,k} (the dimension
of the degree-k harmonic subspace), where

    h(t) = sum_k xi_k * sqrt(B_{d,k}) * Q_k(t),
    Q_k(<u,u'>/d) = B_{d,k}^{-1/2} sum_s Y_ks(u) Y_ks(u'),

and the second identity (evaluated at u = u') gives Q_k(1) = sqrt(B_{d,k}).
The ultraspherical polynomial C_k with parameter (d-2)/2 has
C_k(1) = C(k+d-3, k), so Q_k = C_k * sqrt(B_{d,k}) / C(k+d-3, k): every
normalization is closed form, with no quadrature.  These identities make
test risk computable in closed form without ever constructing a harmonic
basis.

Gram builds and the exact risk walk the same upper-triangle row blocks of
about _BLOCK_ELEMENTS inner products, with the recurrence run in place inside
a block, so the exact risk's extra memory is that fixed budget, not O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectrum import Alignment, ModelSpec, NoiseModel, Spectrum, _integer

__all__ = [
    "SphereError",
    "GegenbauerBasis",
    "SphereKernel",
    "SphereTarget",
    "dim_spherical",
    "kernel_from_gaps",
    "sample_sphere",
    "sphere_spectrum",
    "exact_sphere_risk",
    "sphere_moment",
]

# inner products per block of a Gram build or exact risk: the five working
# arrays of the series (1.25 MB at this size) stay in a core's L2 cache
_BLOCK_ELEMENTS = 2**15


class SphereError(ValueError):
    """Invalid sphere-model construction or query."""


def _whole(value, what: str) -> int:
    """``value`` as a Python int, whose products do not wrap at 2**63 as numpy's do; SphereError unless it is a
    Python or numpy integer, which a boolean is not."""
    if not _integer(value):
        raise SphereError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _dimension(d) -> int:
    """The ambient dimension d as a Python int, checked to be an integer >= 3."""
    d = _whole(d, "ambient dimension")
    if d < 3:
        raise SphereError("ambient dimension must be >= 3")
    return d


def dim_spherical(d: int, k: int) -> int:
    """Dimension of the degree-k harmonic subspace, exact integer arithmetic.

    B_{d,0} = 1, B_{d,1} = d, and for k >= 2
    B_{d,k} = ((d + 2k - 2) / k) * C(d + k - 3, k - 1).
    """
    d, k = _dimension(d), _whole(k, "degree")
    if k < 0:
        raise SphereError("degree must be nonnegative")
    if k == 0:
        return 1
    if k == 1:
        return d
    num = (d + 2 * k - 2) * math.comb(d + k - 3, k - 1)
    if num % k:
        raise SphereError(f"non-integer harmonic dimension at d={d}, k={k}")
    return num // k


def sphere_moment(d: int, k: int) -> float:
    """E[u_1^2 ... u_k^2] on the radius-sqrt(d) sphere: d^k / prod_{i<k}(d+2i)."""
    d, k = _dimension(d), _whole(k, "moment order")
    if not 1 <= k <= d:
        raise SphereError("moment order must lie in [1, d]")
    value = 1.0
    for i in range(k):
        value *= d / (d + 2 * i)
    return value


@dataclass(frozen=True, eq=False)
class GegenbauerBasis:
    """Orthonormal polynomials for the sphere-coordinate weight, degrees <= kmax.

    Built from the classical ultraspherical three-term recurrence with
    parameter alpha = (d-2)/2.  The raw degree-k polynomial takes the value
    C(k+d-3, k) at 1, and Q_k(1) = sqrt(B_{d,k}), so dividing by
    norms[k] = C(k+d-3, k) / sqrt(B_{d,k}) gives int Q_j Q_k d(tau) = delta_jk.
    """

    d: int
    kmax: int
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d, kmax = _dimension(self.d), _whole(self.kmax, "kmax")
        if kmax < 0:
            raise SphereError("kmax must be nonnegative")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kmax", kmax)
        norms = [math.comb(k + d - 3, k) / math.sqrt(dim_spherical(d, k)) for k in range(kmax + 1)]
        object.__setattr__(self, "norms", np.array(norms))

    def series(self, coeffs: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
        """sum_k coeffs[k] * Q_k(t), carrying only two recurrence terms.

        Inputs within 1e-12 of [-1, 1] are clamped; others (and NaN) raise.
        The recurrence runs in place on three buffers shaped like t, and the
        sum accumulates in ``out`` when given (an array shaped like t).
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.size > self.kmax + 1:
            raise SphereError("series has more coefficients than basis degrees")
        t = np.asarray(t, dtype=float)
        if t.size:
            lo, hi = t.min(), t.max()
            # written so that a NaN fails both comparisons
            if not (lo >= -1 - 1e-12 and hi <= 1 + 1e-12):
                raise SphereError("argument outside [-1, 1]")
            if lo < -1 or hi > 1:
                t = np.clip(t, -1.0, 1.0)
        acc = np.empty_like(t) if out is None else out
        # the same operations in the same order as the out-of-place recurrence
        # ((2(k+alpha-1)) t) cur - (k+2alpha-2) prev, then / k: the bits do not
        # depend on where the arrays live
        acc.fill(coeffs[0] / self.norms[0])
        if coeffs.size == 1:
            return acc
        alpha = (self.d - 2) / 2.0
        prev = np.ones_like(t)
        cur = np.multiply(t, 2.0 * alpha)
        tmp = np.multiply(cur, coeffs[1] / self.norms[1])
        acc += tmp
        for k in range(2, coeffs.size):
            np.multiply(t, 2.0 * (k + alpha - 1), out=tmp)
            tmp *= cur
            prev *= k + 2 * alpha - 2
            tmp -= prev
            tmp /= k
            prev, cur, tmp = cur, tmp, prev
            np.multiply(cur, coeffs[k] / self.norms[k], out=tmp)
            acc += tmp
        return acc


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices of an n_rows x n_cols array, about _BLOCK_ELEMENTS entries each.

    A block's row count is a multiple of 8, the widest register tile of
    common gemm kernels: when n_cols is a multiple of 8 too, the blocked
    inner products are bitwise those of one whole product (on OpenBLAS),
    except in a one-row block, a matrix-vector product that sums in another
    order (16 columns in 8-row blocks at d in {3, 10, 24}: 97-100 of 100
    seeds differed at 9 and 17 rows, none at 23).  No output depends on
    this: gram mirrors its upper triangle.
    """
    step = max(8, _BLOCK_ELEMENTS // max(1, n_cols) // 8 * 8)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _inner_products(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """t = <a_i, b_j>/d clipped to [-1, 1], computed in place."""
    t = a @ b.T
    t /= d
    # inner products of same-radius sphere points live in [-d, d]
    return np.clip(t, -1.0, 1.0, out=t)


@dataclass(frozen=True, eq=False)
class SphereKernel:
    """Band-limited inner-product kernel h(t) = sum_k coeffs[k] sqrt(B_{d,k}) Q_k(t)."""

    d: int
    coeffs: np.ndarray
    basis: GegenbauerBasis = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise SphereError("kernel coefficients must be a nonempty 1-d sequence")
        if np.any(coeffs < 0) or not np.all(np.isfinite(coeffs)):
            raise SphereError("kernel eigenvalues must be finite and nonnegative")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "basis", GegenbauerBasis(self.d, coeffs.size - 1))

    @property
    def kmax(self) -> int:
        return self.coeffs.size - 1

    def multiplicities(self) -> np.ndarray:
        mults = [dim_spherical(self.d, k) for k in range(self.coeffs.size)]
        if max(mults) >= 2**63:
            raise SphereError(f"harmonic dimension {max(mults)} at d = {self.d} does not fit in int64")
        return np.array(mults, dtype=np.int64)

    def _checked_points(self, points: np.ndarray) -> np.ndarray:
        u = np.asarray(points, dtype=float)
        if u.shape[1] != self.d:
            raise SphereError("point dimension must match the kernel's d")
        return u

    def cross_gram(self, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
        """h(<a_i, b_j>/d), streamed in row blocks to bound peak memory."""
        a, b = self._checked_points(points_a), self._checked_points(points_b)
        out = np.empty((a.shape[0], b.shape[0]))
        coeffs = self.coeffs * np.sqrt(self.multiplicities().astype(float))
        for rows in _row_blocks(a.shape[0], b.shape[0]):
            self.basis.series(coeffs, _inner_products(a[rows], b, self.d), out=out[rows])
        return out

    def _upper_blocks(self, u: np.ndarray, out: np.ndarray | None = None):
        """Yield (rows, h(<u[rows], u[rows.start:]>/d)) per upper-triangle row block, written into ``out`` when given."""
        coeffs = self.coeffs * np.sqrt(self.multiplicities().astype(float))
        for rows in _row_blocks(u.shape[0], u.shape[0]):
            block = None if out is None else out[rows, rows.start :]
            yield rows, self.basis.series(coeffs, _inner_products(u[rows], u[rows.start :], self.d), out=block)

    def gram(self, points: np.ndarray) -> np.ndarray:
        """h(<u_i, u_j>/d): the upper triangle in row blocks, mirrored, so exactly symmetric."""
        u = self._checked_points(points)
        n = u.shape[0]
        out = np.empty((n, n))
        for rows, _ in self._upper_blocks(u, out):
            out[rows.stop :, rows] = out[rows, rows.stop :].T
            diag = out[rows, rows]
            lower = np.tril_indices(diag.shape[0], -1)
            diag[lower] = diag.T[lower]
        return out


def kernel_from_gaps(d: int, levels: int, gap: float) -> SphereKernel:
    """Kernel with geometrically decaying level eigenvalues gap^-(k-1), k = 1..levels."""
    if _whole(levels, "levels") < 1:
        raise SphereError("levels must be >= 1")
    if not gap > 0:  # NaN fails too
        raise SphereError("gap must be positive")
    coeffs = np.zeros(levels + 1)
    coeffs[1:] = float(gap) ** -(np.arange(1, levels + 1, dtype=float) - 1.0)
    return SphereKernel(d=d, coeffs=coeffs)


def sample_sphere(d: int, n: int, seed) -> np.ndarray:
    """n i.i.d. points uniform on the radius-sqrt(d) sphere; seeded, bit-stable."""
    if not (_integer(d) and _integer(n)):
        raise SphereError(f"d and n must be integers, not {d!r} and {n!r}")
    if d < 1 or n < 1:
        raise SphereError("d and n must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, d))
    return g * (math.sqrt(d) / np.linalg.norm(g, axis=1))[:, None]


@dataclass(frozen=True)
class SphereTarget:
    """Sum of cyclic multilinear monomials, one pure harmonic level per degree.

    Level k contributes C_{d,k} * sum_{j in [d]} prod_{s=j..j+k-1} u_s with
    cyclic indexing.  Distinct windows are uncorrelated (each product leaves
    odd powers), so level k's energy is exactly C_{d,k}^2 * d * M_{d,k} with
    M_{d,k} the diagonal moment E[u_1^2...u_k^2].  ``energies`` maps level k
    to its energy e_k; it is copied, and the coefficients are solved exactly.
    """

    d: int
    energies: dict[int, float]
    coeffs: dict[int, float] = field(init=False)

    def __post_init__(self):
        d = _dimension(self.d)
        energies = {_whole(k, "level"): float(e) for k, e in self.energies.items()}
        coeffs = {}
        for k, e in energies.items():
            if e < 0 or not math.isfinite(e):
                raise SphereError("level energies must be finite and nonnegative")
            if not 1 <= k < d:
                raise SphereError(
                    f"level {k} outside [1, d-1]: cyclic windows degenerate at k >= d"
                )
            coeffs[k] = math.sqrt(e / (d * sphere_moment(d, k)))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def total_energy(self) -> float:
        return float(sum(self.energies.values()))

    def level_values(self, k: int, points: np.ndarray) -> np.ndarray:
        """The degree-k component C_{d,k} * sum_j prod of cyclic windows."""
        u = np.asarray(points, dtype=float)
        if u.shape[1] != self.d:
            raise SphereError("point dimension must match the target's d")
        if k not in self.coeffs:
            return np.zeros(u.shape[0])
        w = u.copy()
        for s in range(1, k):
            w *= np.roll(u, -s, axis=1)
        return self.coeffs[k] * w.sum(axis=1)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        u = np.asarray(points, dtype=float)
        out = np.zeros(u.shape[0])
        for k in self.coeffs:
            out += self.level_values(k, u)
        return out


def sphere_spectrum(
    kernel: SphereKernel,
    target: SphereTarget,
    noise: NoiseModel,
    n: int,
    lam: float,
) -> ModelSpec:
    """Pack the kernel levels and target energies into a prediction instance.

    Blocks are (xi_k, B_{d,k}) sorted by eigenvalue; target energy on levels
    the kernel gives zero weight (including k > kmax) is unlearnable and goes
    to the alignment residual.  The kernel is exactly band-limited, so the
    levels up to kmax carry its whole trace.
    """
    if kernel.d != target.d:
        raise SphereError("kernel and target dimensions disagree")
    mults = kernel.multiplicities()
    live = kernel.coeffs > 0
    if not np.any(live):
        raise SphereError("kernel has no positive eigenvalues")
    degrees = np.flatnonzero(live)
    values = kernel.coeffs[live]
    block_mults = mults[live]
    energies = np.array([target.energies.get(int(k), 0.0) for k in degrees])
    residual = sum(
        e for k, e in target.energies.items() if k > kernel.kmax or kernel.coeffs[k] <= 0
    )
    order = np.argsort(-values, kind="stable")
    spectrum = Spectrum(values[order], block_mults[order])
    alignment = Alignment(energies[order], residual_energy=residual)
    return ModelSpec(n=n, lam=lam, spectrum=spectrum, alignment=alignment, noise=noise)


def exact_sphere_risk(
    fit,
    kernel: SphereKernel,
    target: SphereTarget,
    noise_variance: float,
    train_points: np.ndarray,
) -> float:
    """Population test risk of a fitted dual vector, in closed form.

    E_u[(f_*(u) - sum_i alpha_i h(<u_i,u>/d))^2] + sigma^2
      = ||f_*||^2 - 2 alpha^T v + alpha^T H2 alpha + sigma^2,
    where v_i = sum_k xi_k (P_k f_*)(u_i) and H2 is the Gram matrix of the
    squared-eigenvalue kernel.  Both pieces follow from averaging the harmonic
    expansion of h against itself and against the target.
    """
    u = np.asarray(train_points, dtype=float)
    if kernel.d != target.d or u.shape[1] != kernel.d:
        raise SphereError("kernel/target/points dimensions disagree")
    alpha = np.asarray(fit.alpha, dtype=float).ravel()
    if alpha.size != u.shape[0]:
        raise SphereError("fit size must match the number of train points")
    v = np.zeros(u.shape[0])
    for k, _ in target.energies.items():
        if k <= kernel.kmax and kernel.coeffs[k] > 0:
            v += kernel.coeffs[k] * target.level_values(k, u)
    # H2 is the Gram of the squared-coefficient kernel: each upper-triangle block
    # adds to H2 alpha for its own rows and, transposed, for the rows below them.
    # The coefficients are squared over s = 2^(e-1), e the exponent of the largest
    # (s >= 1), and alpha taken times s: exact, so no square overflows, and every
    # kernel with coefficients below 2 keeps s = 1
    scale = max(2.0 ** (math.frexp(float(kernel.coeffs.max()))[1] - 1), 1.0)
    alpha_s = alpha * scale
    h2_alpha = np.zeros(u.shape[0])
    for rows, block in SphereKernel(kernel.d, (kernel.coeffs / scale) ** 2)._upper_blocks(u):
        h2_alpha[rows] += block @ alpha_s[rows.start :]
        h2_alpha[rows.stop :] += block[:, rows.stop - rows.start :].T @ alpha_s[rows]
    return target.total_energy - 2.0 * float(alpha @ v) + float(alpha_s @ h2_alpha) + float(noise_variance)
