"""Array-holding value types compare by identity: ``==`` answers instead of raising."""

import numpy as np
import pytest

from krrdeteq.estimation import EstimatedDecomposition
from krrdeteq.functionals import FeatureSample, RiskMatrix
from krrdeteq.krr import GramMatrix, KrrFit
from krrdeteq.spectrum import Alignment, ModelSpec, Spectrum
from krrdeteq.sphere import GegenbauerBasis, SphereKernel


def _spectrum():
    return Spectrum.from_blocks([(1.0, 2), (0.5, 1)])


MAKERS = {
    "Spectrum": _spectrum,
    "Alignment": lambda: Alignment([0.5, 0.25]),
    "ModelSpec": lambda: ModelSpec(4, 0.1, _spectrum(), Alignment([0.5, 0.25])),
    "GramMatrix": lambda: GramMatrix(np.eye(2)),
    "KrrFit": lambda: KrrFit(np.ones(2), 0.1, GramMatrix(np.eye(2))),
    "FeatureSample": lambda: FeatureSample(np.ones((2, 3)), _spectrum()),
    "RiskMatrix": lambda: RiskMatrix([1.0, 2.0]),
    "EstimatedDecomposition": lambda: EstimatedDecomposition(np.array([1.0, 0.5]), np.array([0.3, 0.2]), 2),
    "SphereKernel": lambda: SphereKernel(10, np.array([0.0, 1.0, 0.5])),
    "GegenbauerBasis": lambda: GegenbauerBasis(10, 3),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equal_values_compare_by_identity(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert (a == b) is False
    assert (a != b) is True
    assert a == a
    assert hash(a) == hash(a)
