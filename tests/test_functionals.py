import math

import numpy as np
import pytest

from krrdeteq import functionals
from krrdeteq.deteq import solve_effective_reg
from krrdeteq.functionals import (
    FeatureSample,
    IdentityMatrix,
    RiskMatrix,
    _probe_task,
    _resolvent,
    convergence_probe,
    deterministic_functionals,
    empirical_functionals,
    sample_gaussian_features,
)
from krrdeteq.seeds import derive_rng
from krrdeteq.spectrum import Spectrum, SpectrumError


def reference_functionals(x, sigma_diag, lam, a_dense):
    """Literal dense-matrix oracle via an explicit inverse."""
    p = x.shape[1]
    r = np.linalg.inv(x.T @ x + lam * np.eye(p))
    s_half = np.diag(np.sqrt(sigma_diag))
    sigma = np.diag(sigma_diag)
    phi1 = np.trace(a_dense @ s_half @ r @ s_half)
    phi2 = np.trace((x.T @ x / x.shape[0]) @ r)
    phi3 = np.trace(a_dense @ s_half @ r @ sigma @ r @ s_half)
    phi4 = np.trace(a_dense @ s_half @ r @ (x.T @ x / x.shape[0]) @ r @ s_half)
    return phi1, phi2, phi3, phi4


def svd_phi2_phi4(x, sigma_diag, lam, u=None):
    """phi2, and phi4 at A = I (or at the RiskMatrix with beta = S^1/2 u), from X = U diag(s) V^T:
    X^T X R = V diag(s^2 / (s^2 + lam)) V^T and R X^T X R = V diag(s^2 / (s^2 + lam)^2) V^T, free of cancellation."""
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    s2 = s * s
    w = s2 / (s2 + lam) ** 2
    quad = sigma_diag @ (vt.T**2 @ w) if u is None else w @ (vt @ u) ** 2
    return float(np.sum(s2 / (s2 + lam))) / x.shape[0], float(quad) / x.shape[0]


def test_feature_draw_is_scaled_normal_draw():
    """x = z * sqrt(Sigma) row by row, bit for bit, from the generator's standard normals."""
    s = Spectrum.from_blocks([(4.0, 3), (0.3, 5), (1e-300, 2)])
    sample = sample_gaussian_features(s, 7, 11)
    z = np.random.default_rng(11).standard_normal((7, 10))
    np.testing.assert_array_equal(sample.matrix, z * np.sqrt(s.expand()))
    assert sample.covariance is s


class TestEmpiricalFunctionals:
    def test_zero_feature_matrix(self):
        s = Spectrum.from_blocks([(1.0, 5)])
        sample = FeatureSample(matrix=np.zeros((3, 5)), covariance=s)
        phi = empirical_functionals(sample, 2.0, np.eye(5))
        assert phi[0] == pytest.approx(5 / 2.0, rel=1e-12)
        assert phi[1] == pytest.approx(0.0, abs=1e-14)
        assert phi[2] == pytest.approx(5 / 4.0, rel=1e-12)
        assert phi[3] == pytest.approx(0.0, abs=1e-14)

    def test_scalar_instance(self):
        s = Spectrum.from_blocks([(1.0, 1)])
        sample = FeatureSample(matrix=np.array([[2.0]]), covariance=s)
        phi = empirical_functionals(sample, 1.0, np.array([[1.0]]))
        np.testing.assert_allclose(phi, [0.2, 0.8, 0.04, 0.16], rtol=1e-12)

    def test_zero_test_matrix(self, rng):
        s = Spectrum.power_law(1.0, 6)
        sample = sample_gaussian_features(s, 4, rng)
        phi = empirical_functionals(sample, 0.5, np.zeros((6, 6)))
        assert phi[0] == phi[2] == phi[3] == 0.0
        assert phi[1] > 0

    def test_matches_dense_oracle_primal_and_dual(self, rng):
        for n, p in ((12, 5), (4, 40)):  # primal path / dual path
            s = Spectrum.power_law(1.3, p)
            sample = sample_gaussian_features(s, n, rng)
            b = rng.standard_normal((p, p))
            a = b @ b.T
            phi = empirical_functionals(sample, 0.7, a)
            ref = reference_functionals(sample.matrix, s.expand(), 0.7, a)
            np.testing.assert_allclose(phi, ref, rtol=1e-9)

    def test_risk_matrix_matches_dense_equivalent(self, rng):
        p, n = 15, 10
        s = Spectrum.power_law(2.0, p)
        sample = sample_gaussian_features(s, n, rng)
        beta = rng.standard_normal(p)
        sigma = s.expand()
        a_dense = np.outer(beta / sigma, beta / sigma)
        phi_struct = empirical_functionals(sample, 0.4, RiskMatrix(beta))
        phi_dense = empirical_functionals(sample, 0.4, a_dense)
        np.testing.assert_allclose(phi_struct, phi_dense, rtol=1e-9)

    def test_symmetrization_invariance(self, rng):
        p, n = 8, 6
        s = Spectrum.power_law(1.0, p)
        sample = sample_gaussian_features(s, n, rng)
        b = rng.standard_normal((p, p))
        a = b @ b.T
        skew = rng.standard_normal((p, p))
        skew = skew - skew.T
        phi_sym = empirical_functionals(sample, 0.9, a)
        phi_askew = empirical_functionals(sample, 0.9, a + skew)
        np.testing.assert_allclose(phi_askew, phi_sym, rtol=1e-10)

    def test_dual_form_trace_identity(self, rng):
        # Tr(A S^1/2 R S^1/2) == (Tr(A S) - Tr(A S^1/2 X^T G X S^1/2)) / lam
        p, n, lam = 30, 9, 0.3
        s = Spectrum.power_law(1.5, p)
        sample = sample_gaussian_features(s, n, rng)
        x = sample.matrix
        b = rng.standard_normal((p, p))
        a = b @ b.T
        phi1 = empirical_functionals(sample, lam, a)[0]
        s_half = np.diag(np.sqrt(s.expand()))
        g = np.linalg.inv(x @ x.T + lam * np.eye(n))
        dual = (np.trace(a @ np.diag(s.expand())) - np.trace(a @ s_half @ x.T @ g @ x @ s_half)) / lam
        assert phi1 == pytest.approx(dual, rel=1e-8)

    @pytest.mark.parametrize("n,p", [(12, 5), (100, 300), (4, 40), (20, 300)])  # primal x2, dual x2
    def test_identity_matrix_matches_dense_oracle(self, rng, n, p):
        s = Spectrum.power_law(1.3, p)
        sample = sample_gaussian_features(s, n, rng)
        phi = empirical_functionals(sample, 0.7, IdentityMatrix(p))
        ref = reference_functionals(sample.matrix, s.expand(), 0.7, np.eye(p))
        np.testing.assert_allclose(phi, ref, rtol=1e-9)
        np.testing.assert_allclose(phi, empirical_functionals(sample, 0.7, np.eye(p)), rtol=1e-12)

    @pytest.mark.parametrize("n", [5, 20, 200])  # dual, then primal
    def test_large_lambda_matches_svd_oracle(self, n):
        """Where lam Tr(R) cancels p, phi2 and the structured phi4 read XR: no more than the
        2^20 eps that the cancellation threshold allows is lost, up to lam = 1e14."""
        s = Spectrum.power_law(2.0, 50)
        sigma, beta = s.expand(), np.eye(1, 50)[0]
        sample = sample_gaussian_features(s, n, 0)
        for lam in 10.0 ** np.arange(-2, 15):
            want = svd_phi2_phi4(sample.matrix, sigma, lam)
            np.testing.assert_allclose(empirical_functionals(sample, lam, IdentityMatrix(50))[1::2], want, rtol=1e-9)
            want = (want[0], svd_phi2_phi4(sample.matrix, sigma, lam, beta / np.sqrt(sigma))[1])
            np.testing.assert_allclose(empirical_functionals(sample, lam, RiskMatrix(beta))[1::2], want, rtol=1e-9)
            assert empirical_functionals(sample, lam, np.eye(50))[1] == pytest.approx(want[0], rel=1e-9)

    @pytest.mark.parametrize("n,p", [(12, 5), (100, 300), (700, 600)])
    def test_primal_resolvent_is_exact_symmetric_inverse(self, rng, n, p):
        # p = 300 and 600 span two and three mirror blocks
        x = rng.standard_normal((n, p))
        r = _resolvent(x, 0.3)
        assert np.array_equal(r, r.T)
        np.testing.assert_allclose(r, np.linalg.inv(x.T @ x + 0.3 * np.eye(p)), rtol=1e-10, atol=1e-13)

    def test_dual_resolvent_matches_inverse(self, rng):
        x = rng.standard_normal((10, 60))
        np.testing.assert_allclose(_resolvent(x, 0.3), np.linalg.inv(x.T @ x + 0.3 * np.eye(60)), rtol=1e-9, atol=1e-12)

    def test_rejects_bad_inputs(self, rng):
        s = Spectrum.power_law(1.0, 4)
        sample = sample_gaussian_features(s, 3, rng)
        with pytest.raises(SpectrumError):
            empirical_functionals(sample, 0.0, np.eye(4))
        with pytest.raises(SpectrumError):
            empirical_functionals(sample, 1.0, np.eye(5))
        with pytest.raises(SpectrumError):
            FeatureSample(matrix=np.zeros((2, 3)), covariance=Spectrum.power_law(1.0, 4))
        for a in (IdentityMatrix(5), RiskMatrix(np.ones(5)), np.eye(4)[:, :3]):
            with pytest.raises(SpectrumError, match="dimension mismatch"):
                empirical_functionals(sample, 1.0, a)


class TestDeterministicFunctionals:
    def test_identity_matrix_psi2_isotropic(self):
        s = Spectrum.from_blocks([(1.0, 200)])
        psi = deterministic_functionals(s, 100, 1.0, np.eye(200))
        ls = (101 + math.sqrt(10601)) / 200
        assert psi[1] == pytest.approx(1 - 1 / (100 * ls), rel=1e-10)

    def test_identity_matrix_equals_dense_identity(self):
        s = Spectrum.power_law(1.5, 300)
        for n, lam in ((50, 0.2), (500, 1e-3)):
            psi = deterministic_functionals(s, n, lam, IdentityMatrix(300))
            np.testing.assert_allclose(psi, deterministic_functionals(s, n, lam, np.eye(300)), rtol=1e-14)

    def test_identity_predictions_survive_underflowing_squares(self):
        """sigma^2 and (mu sigma + lam)^2 underflow at 1e-200; the predictions are scale-free,
        so they equal the dense oracle's at sigma = lam = 1."""
        tiny = deterministic_functionals(Spectrum.from_blocks([(1e-200, 50)]), 10, 1e-200, IdentityMatrix(50))
        unit = deterministic_functionals(Spectrum.from_blocks([(1.0, 50)]), 10, 1.0, np.eye(50))
        np.testing.assert_allclose(tiny, unit, rtol=1e-14)
        np.testing.assert_allclose(tiny, (40.2425, 0.975753, 40.0073, 0.0235207), rtol=1e-5)

    def test_risk_matrix_squares_ratios(self):
        """beta^2 and sigma^2 are subnormal at 1e-160; every prediction takes ratios near 1 instead."""
        tiny = deterministic_functionals(Spectrum.from_blocks([(1e-160, 50)]), 10, 1e-160, RiskMatrix(1e-160 * np.eye(1, 50)))
        unit = deterministic_functionals(Spectrum.from_blocks([(1.0, 50)]), 10, 1.0, RiskMatrix(np.eye(1, 50)))
        np.testing.assert_allclose(tiny, unit, rtol=1e-14)

    def test_dense_matrix_reads_only_its_diagonal(self, rng):
        s = Spectrum.power_law(2.0, 12)
        b = rng.standard_normal((12, 12))
        a = b @ b.T
        skew = np.triu(rng.standard_normal((12, 12)), 1)
        expected = deterministic_functionals(s, 6, 0.3, np.diag(np.diag(a)))
        assert deterministic_functionals(s, 6, 0.3, a) == expected
        assert deterministic_functionals(s, 6, 0.3, a + skew) == expected

    def test_rejects_size_mismatch(self):
        s = Spectrum.power_law(2.0, 12)
        for a in (IdentityMatrix(11), RiskMatrix(np.ones(13)), np.eye(12)[:, :11], np.ones(12)):
            with pytest.raises(SpectrumError, match="dimension mismatch"):
                deterministic_functionals(s, 6, 0.3, a)

    def test_zero_matrix(self):
        s = Spectrum.from_blocks([(1.0, 10)])
        psi = deterministic_functionals(s, 5, 1.0, np.zeros((10, 10)))
        assert psi[0] == psi[2] == psi[3] == 0.0

    def test_exact_identities(self, rng):
        s = Spectrum.power_law(2.0, 80)
        n, lam = 20, 0.25
        eff = solve_effective_reg(s, n, lam)
        for a in (np.eye(80), RiskMatrix(rng.standard_normal(80))):
            psi = deterministic_functionals(s, n, lam, a)
            assert psi[1] == pytest.approx(1 - lam / (n * eff.lambda_star), abs=1e-12)
            assert psi[3] / psi[2] == pytest.approx((eff.mu_star / n) ** 2, rel=1e-12)

    def test_rank_one_energy_contraction(self):
        # Tr(A Sigma^2) = ||beta||^2 stays finite however small the tail gets
        s = Spectrum.power_law(4.0, 50)
        beta = np.full(50, 1 / math.sqrt(50))
        psi = deterministic_functionals(s, 10, 0.1, RiskMatrix(beta))
        assert all(math.isfinite(v) and v >= 0 for v in psi)
        assert deterministic_functionals(Spectrum.power_law(2.0, 30), 6, 0.5, RiskMatrix(np.eye(30)[0]))[2] > 0


class TestNonFinite:
    """A functional that overflows raises SpectrumError, and numpy prints no warning."""

    def test_empirical(self):
        sample = sample_gaussian_features(Spectrum.power_law(2.0, 50), 10, 0)
        with pytest.raises(SpectrumError, match="phi3 is not finite"):
            empirical_functionals(sample, 1e-300, IdentityMatrix(50))

    def test_deterministic(self):
        s = Spectrum.power_law(2.0, 50)
        with pytest.raises(SpectrumError, match="psi1 is not finite"):
            deterministic_functionals(s, 10, 0.1, RiskMatrix(np.full(50, 1e200)))


class TestConvergenceProbe:
    def test_rejects_zero_reps(self):
        with pytest.raises(SpectrumError):
            convergence_probe(Spectrum.power_law(2.0, 10), [4, 8], 0.5, reps=0)

    def test_rejects_decreasing_grid(self):
        with pytest.raises(SpectrumError):
            convergence_probe(Spectrum.power_law(2.0, 10), [8, 4], 0.5, reps=2)

    def test_rows_and_determinism(self):
        s = Spectrum.power_law(2.0, 30)
        rows1 = convergence_probe(s, [5, 10], 0.5, a_choice="identity", reps=3, seed=11)
        rows2 = convergence_probe(s, [5, 10], 0.5, a_choice="identity", reps=3, seed=11, threads=3)
        assert rows1 == rows2
        assert len(rows1) == 8  # 2 grid points x 4 functionals
        for row in rows1:
            assert set(row) == {"n", "functional_index", "median_rel_err", "q25", "q75", "reps", "seed"}
            assert row["q25"] <= row["median_rel_err"] <= row["q75"]

    def test_task_relative_errors(self):
        # one replication: |phi_j - psi_j| / psi_j on the sample its generator draws
        s = Spectrum.power_law(2.0, 40)
        errs = _probe_task(s, 0.5, IdentityMatrix(40), 30, derive_rng(3, 101, 0, 1))
        sample = sample_gaussian_features(s, 30, derive_rng(3, 101, 0, 1))
        phi = empirical_functionals(sample, 0.5, IdentityMatrix(40))
        psi = deterministic_functionals(s, 30, 0.5, IdentityMatrix(40))
        assert errs == tuple(abs(emp - pred) / pred for emp, pred in zip(phi, psi))
        # the probe's replication 0 at grid index 0 draws from the stream (seed, 101, 0, 0)
        rows = convergence_probe(s, [30], 0.5, reps=1, seed=3)
        first = _probe_task(s, 0.5, IdentityMatrix(40), 30, derive_rng(3, 101, 0, 0))
        assert [row["median_rel_err"] for row in rows] == list(first)

    def test_bad_choice_raises_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(functionals, "sample_gaussian_features", lambda *args: draws.append(args))
        with pytest.raises(SpectrumError, match="unknown test-matrix choice"):
            convergence_probe(Spectrum.power_law(2.0, 10), [4, 8], 0.5, a_choice="bogus", reps=2)
        with pytest.raises(SpectrumError, match="unknown test-matrix choice"):
            convergence_probe(Spectrum.power_law(2.0, 10), [4, 8], 0.5, a_choice=np.eye(9), reps=2)
        assert draws == []

    def test_failed_replication_raises_before_any_row(self):
        """The first failed replication names the probe's one error: a non-finite phi, or a zero psi."""
        with pytest.raises(SpectrumError, match=r"^functional probe failed at n = 10: SpectrumError: phi3 is not finite$"):
            convergence_probe(Spectrum.power_law(2.0, 50), [10, 20], 1e-300, reps=2)
        tiny = Spectrum.from_blocks([(1e-300, 50)])
        with pytest.raises(SpectrumError, match=r"^functional probe failed at n = 10: ZeroDivisionError"):
            convergence_probe(tiny, [10, 20], 1.0, reps=2)
