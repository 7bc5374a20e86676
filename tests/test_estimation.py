import numpy as np
import pytest

from krrdeteq.deteq import deterministic_equivalents
from krrdeteq.estimation import (
    EstimatedDecomposition,
    decomposition_to_model,
    estimate_spectrum,
)
from krrdeteq.functionals import sample_gaussian_features
from krrdeteq.krr import GramMatrix, KrrError
from krrdeteq.spectrum import Alignment, ModelSpec, NoiseModel, Spectrum


class TestEstimateSpectrum:
    def test_identity_caricature(self, rng):
        m = 16
        y = rng.standard_normal(m)
        est = estimate_spectrum(GramMatrix(m * np.eye(m)), y)
        np.testing.assert_allclose(est.eigenvalues, np.ones(m), rtol=1e-12)
        assert est.alignments.sum() == pytest.approx(float(y @ y) / m, rel=1e-12)

    def test_rank_one_exact_recovery(self, rng):
        m, c = 12, 0.8
        q = rng.standard_normal(m)
        q /= np.linalg.norm(q)
        k = m * np.outer(q, q)
        y = c * np.sqrt(m) * q
        est = estimate_spectrum(GramMatrix(k), y)
        assert est.eigenvalues[0] == pytest.approx(1.0, rel=1e-10)
        assert np.abs(est.eigenvalues[1:]).max() <= 1e-10
        assert est.alignments[0] == pytest.approx(c**2, rel=1e-10)
        assert np.abs(est.alignments[1:]).max() <= 1e-20

    def test_parseval(self, rng):
        x = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        est = estimate_spectrum(GramMatrix(x @ x.T), y)
        assert est.alignments.sum() == pytest.approx(float(y @ y) / 20, rel=1e-10)
        assert all(a >= b for a, b in zip(est.eigenvalues, est.eigenvalues[1:]))

    def test_rejects_non_psd(self, rng):
        with pytest.raises(KrrError):
            estimate_spectrum(GramMatrix(np.diag([1.0, -1.0])), np.ones(2))

    def test_rejects_empty_gram_and_nonfinite_labels(self):
        with pytest.raises(KrrError, match="Gram size 0"):
            estimate_spectrum(GramMatrix(np.zeros((0, 0))), [])
        with pytest.raises(KrrError, match="labels must be finite"):
            estimate_spectrum(GramMatrix(np.eye(2)), [np.nan, 1.0])



def plugin_risk(est, n, lam, noise_variance, truncation=None):
    """The closed-form risk of the model estimated from ``est``, as an ``estimate`` row predicts it."""
    return deterministic_equivalents(decomposition_to_model(est, n, lam, noise_variance, truncation)).risk


class TestPluginCurve:
    def test_exact_decomposition_matches_deteq_bitwise(self):
        p, n, lam, s2 = 12, 6, 0.3, 0.2
        values = np.sort(np.exp(np.linspace(0, -3, p)))[::-1]
        beta_sq = np.linspace(0.5, 0.1, p)
        est = EstimatedDecomposition(eigenvalues=values, alignments=beta_sq, holdout_size=64)
        plug = plugin_risk(est, n, lam, s2, truncation=p)
        spec = ModelSpec(
            n=n,
            lam=lam,
            spectrum=Spectrum(values, np.ones(p, dtype=np.int64)),
            alignment=Alignment(np.maximum(beta_sq - s2 / 64, 0.0), residual_energy=0.0),
            noise=NoiseModel(s2),
        )
        assert plug == deterministic_equivalents(spec).risk  # bit-for-bit

    def test_rank_one_closed_form(self):
        # single estimated eigenvalue: risk solvable by hand
        est = EstimatedDecomposition(np.array([1.0]), np.array([0.8]), holdout_size=32)
        n, lam = 4, 0.5
        risk = plugin_risk(est, n, lam, 0.0)
        spec = ModelSpec(
            n=n,
            lam=lam,
            spectrum=Spectrum(np.array([1.0]), np.array([1], dtype=np.int64)),
            alignment=Alignment(np.array([0.8])),
            noise=NoiseModel(0.0),
        )
        assert risk == pytest.approx(deterministic_equivalents(spec).risk, rel=1e-14)

    def test_truncation_folds_tail_into_residual(self):
        values = np.array([1.0, 0.5, 0.25, 0.125])
        beta_sq = np.array([0.4, 0.3, 0.2, 0.1])
        est = EstimatedDecomposition(values, beta_sq, holdout_size=64)
        model = decomposition_to_model(est, 4, 0.1, 0.0, truncation=2)
        np.testing.assert_array_equal(model.spectrum.values, values[:2])
        assert model.alignment.residual_energy == pytest.approx(0.3, rel=1e-14)

    def test_noise_correction_shrinks_alignments(self):
        values = np.array([1.0, 0.5])
        beta_sq = np.array([0.4, 0.00001])
        est = EstimatedDecomposition(values, beta_sq, holdout_size=100)
        model = decomposition_to_model(est, 4, 0.1, noise_variance=0.5, truncation=2)
        assert model.alignment.energies[0] == pytest.approx(0.4 - 0.005, rel=1e-12)
        assert model.alignment.energies[1] == 0.0  # clamped

    def test_bad_truncation(self):
        est = EstimatedDecomposition(np.array([1.0]), np.array([0.5]), holdout_size=8)
        with pytest.raises(KrrError):
            decomposition_to_model(est, 2, 0.1, 0.0, truncation=0)


class TestConsistency:
    def test_eigenvalue_error_improves_with_holdout(self, rng):
        p = 50
        sp = Spectrum.power_law(2.0, p)
        true = sp.expand()
        theta = rng.standard_normal(p)
        med_errors = []
        for m in (100, 400, 1600):
            errs = []
            for rep in range(5):
                sample = sample_gaussian_features(sp, m, rng)
                y = sample.matrix @ theta
                est = estimate_spectrum(GramMatrix(sample.matrix @ sample.matrix.T), y)
                errs.append(np.median(np.abs(est.eigenvalues[:5] - true[:5]) / true[:5]))
            med_errors.append(float(np.median(errs)))
        assert med_errors[0] >= med_errors[1] >= med_errors[2]
