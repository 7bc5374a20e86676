import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from krrdeteq.spectrum import Spectrum, trace_resolvents


def random_spectrum(rng, max_blocks=50, lo=1e-6, hi=1.0):
    """Random block spectrum with eigenvalues in [lo, hi], nonincreasing."""
    k = int(rng.integers(1, max_blocks + 1))
    values = np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=k)))[::-1]
    mults = rng.integers(1, 40, size=k)
    return Spectrum(values, mults)


def sphere_quadrature(d, nodes=60):
    """Gauss-Jacobi nodes and weights (summing to 1) for the sphere-coordinate density (1-t^2)^((d-3)/2)."""
    a = (d - 3) / 2.0
    x, w = roots_jacobi(nodes, a, a)
    return x, w / w.sum()


def isotropic_effective_reg(xi, p, n, lam):
    """Closed-form root for a single-block spectrum {(xi, p)}, the solver's independent oracle.

    From n*ls^2 + (n*xi - lam - p*xi)*ls - lam*xi = 0, the positive root.
    """
    b = n * xi - lam - p * xi
    disc = b * b + 4.0 * n * lam * xi
    root = (-b + math.sqrt(disc)) / (2.0 * n)
    if root <= 0 and lam == 0:
        # lam = 0 collapses the quadratic to n*ls + (n-p)*xi = 0
        root = (p - n) * xi / n
    return root


def monotone_newton(spectrum, n, lam):
    """The fixed point by plain monotone Newton, the solver's slow path: (root, residual, evaluations).

    From the solver's start, each step s *= 1 - g / (s g'(s)) rises to the root of
    the concave defect without overshooting, until |g| <= 1e-14 * n or s stops moving.
    """
    tol = 1e-12 * n
    nxt = max(lam / n, 5e-324) if lam > 0 else 1e-300 * spectrum.trace / n
    for evaluations in range(1, 501):
        ls = nxt
        t1, _, slope = trace_resolvents(spectrum, ls)
        residual = n - lam / ls - t1
        if abs(residual) <= 0.01 * tol:
            break
        nxt = ls * (1.0 - residual / (lam / ls + slope))
        if nxt == ls or not nxt > 0:
            break
    return ls, residual, evaluations


def gegenbauer(basis, k, t):
    """Q_k(t) of a GegenbauerBasis; a degree above its kmax raises SphereError through ``series``."""
    return basis.series(np.eye(k + 1)[k], np.atleast_1d(t))


def h_values(kernel, t):
    """The kernel function h(t) = sum_k coeffs[k] sqrt(B_{d,k}) Q_k(t) of a SphereKernel."""
    return kernel.basis.series(kernel.coeffs * np.sqrt(kernel.multiplicities().astype(float)), t)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)
