import numpy as np
import pytest
from scipy.special import roots_jacobi

from krrdeteq.spectrum import Spectrum


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)
