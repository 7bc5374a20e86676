import math
import struct
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from krrdeteq import krr
from krrdeteq.functionals import FeatureSample, sample_gaussian_features
from krrdeteq.krr import (
    TRACE_LEAF,
    GramMatrix,
    KrrError,
    fit_krr,
    gcv,
    linear_sweep,
    read_gram_binary,
    read_labels_binary,
    train_error,
    write_gram_binary,
    write_labels_binary,
)
from krrdeteq.krr import _inv_trace
from krrdeteq.krr import test_error_linear_exact as exact_linear_risk
from krrdeteq.krr import test_error_monte_carlo as monte_carlo_risk
from krrdeteq.spectrum import Spectrum


def random_spd_gram(rng, n):
    b = rng.standard_normal((n, n + 3))
    return GramMatrix(b @ b.T / n)


def gcv_reference(gram, y, lam):
    """GCV with its own solve: the eigenbasis at lam = 0, a Cholesky solve at lam > 0."""
    y = np.asarray(y, dtype=float).ravel()
    if lam == 0:
        mu, v = gram.eigendecomposition()
        c = v.T @ y
        num, denom = float(np.sum((c / mu) ** 2)), float(np.sum(1.0 / mu))
    else:
        shifted = gram.entries + lam * np.eye(gram.n)
        z = cho_solve(cho_factor(shifted, lower=True), y)
        linv = solve_triangular(np.linalg.cholesky(shifted), np.eye(gram.n), lower=True)
        num, denom = float(z @ z), float((linv * linv).sum())
    return gram.n * num / denom**2


def dense_stieltjes(gram, lam):
    """Tr((K + lam)^-1) / n from a dense inverse."""
    return float(np.trace(np.linalg.inv(gram.entries + lam * np.eye(gram.n)))) / gram.n


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(KrrError):
            GramMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_symmetry_check_matches_allclose_oracle(self, rng):
        base = rng.standard_normal((6, 6))
        base = 3.0 * (base + base.T)
        for rel in (0.0, 0.5, 0.99, 1.01, 3.0):
            k = base.copy()
            atol = 1e-10 * max(float(np.abs(k).max()), 1.0)
            k[1, 4] += rel * atol
            if np.allclose(k, k.T, atol=1e-10 * max(float(np.abs(k).max()), 1.0), rtol=0.0):
                g = GramMatrix(k)
                np.testing.assert_array_equal(g.entries, 0.5 * (k + k.T))
                assert g.entries is not k
            else:
                with pytest.raises(KrrError, match="symmetric"):
                    GramMatrix(k)

    def test_exactly_symmetric_input_is_copied(self, rng):
        b = rng.standard_normal((7, 7))
        k = b + b.T
        k[0, 1] = k[1, 0] = 5e-324  # subnormal: (k + k) * 0.5 keeps it as well
        g = GramMatrix(k)
        assert g.entries is not k and not np.shares_memory(g.entries, k)
        np.testing.assert_array_equal(g.entries, k)
        np.testing.assert_array_equal(g.entries, 0.5 * (k + k.T))

    def test_exactly_symmetric_near_overflow(self):
        g = GramMatrix(np.array([[1e308, 0.0], [0.0, 1e308]]))
        np.testing.assert_array_equal(g.entries, [[1e308, 0.0], [0.0, 1e308]])
        for lam in (0.0, 1.0):
            np.testing.assert_allclose(fit_krr(g, np.ones(2), lam).alpha, [1e-308, 1e-308], rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_nearly_symmetric_near_overflow_stays_finite(self):
        k = np.array([[1.7e308, 1.7e308], [np.nextafter(1.7e308, 0), 1.7e308]])
        g = GramMatrix(k)
        np.testing.assert_array_equal(g.entries, k * 0.5 + k.T * 0.5)
        assert np.all(np.isfinite(g.entries)) and np.array_equal(g.entries, g.entries.T)

    def test_nearly_symmetric_input_is_symmetrized(self, rng):
        b = rng.standard_normal((6, 6))
        k = b + b.T
        k[2, 3] += 1e-13
        g = GramMatrix(k)
        np.testing.assert_array_equal(g.entries, 0.5 * (k + k.T))
        np.testing.assert_array_equal(g.entries, g.entries.T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        k = np.eye(3)
        k[2, 1] = bad
        with pytest.raises(KrrError, match="finite"):
            GramMatrix(k)

    def test_rejects_indefinite_on_use(self):
        g = GramMatrix(np.array([[1.0, 0.0], [0.0, -0.5]]))
        with pytest.raises(KrrError, match="not p.s.d."):
            g.eigendecomposition()

    def test_accepts_tiny_negative_eigenvalue(self):
        g = GramMatrix(np.array([[1.0, 0.0], [0.0, -1e-10]]))
        g.eigendecomposition()

    def test_cached_eigendecomposition_is_not_a_constructor_argument(self):
        # a forged cache would skip the p.s.d. check: [[1, 2], [2, 1]] has eigenvalue -1
        k = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(TypeError):
            GramMatrix(k, _eig=(np.array([1.0, 3.0]), np.eye(2)))
        with pytest.raises(KrrError, match="not p.s.d."):
            gcv(GramMatrix(k), np.array([1.0, 0.0]), 0.0)


class TestFit:
    def test_scalar_interpolation(self):
        fit = fit_krr(GramMatrix(np.array([[5.0]])), np.array([3.0]), 0.0)
        assert fit.alpha[0] == pytest.approx(0.6, rel=1e-12)

    def test_two_point_identity_gram(self):
        fit = fit_krr(GramMatrix(np.eye(2)), np.array([1.0, -1.0]), 1.0)
        np.testing.assert_allclose(fit.alpha, [0.5, -0.5], rtol=1e-12)

    def test_heavy_ridge_shrinks_to_zero(self):
        fit = fit_krr(GramMatrix(np.eye(3)), np.ones(3), 1e12)
        assert np.abs(fit.alpha).max() < 1e-11

    def test_ridgeless_rank_deficient_rejected(self):
        k = np.ones((3, 3))
        with pytest.raises(KrrError, match="ill-posed"):
            fit_krr(GramMatrix(k), np.array([1.0, 2.0, 3.0]), 0.0)

    def test_residual_certificate_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            gram = random_spd_gram(rng, n)
            y = rng.standard_normal(n)
            lam = float(rng.uniform(0, 2.0))
            fit = fit_krr(gram, y, lam)
            resid = gram.entries @ fit.alpha + lam * fit.alpha - y
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_labels(self, lam, bad):
        with pytest.raises(KrrError, match="labels must be finite"):
            fit_krr(GramMatrix(np.eye(2)), np.array([bad, 1.0]), lam)

    @pytest.mark.parametrize("lam", [0.0, 1e-300])
    def test_nan_residual_fails_certificate(self, lam):
        # alpha = 1e300 / 1e-300 overflows, and K alpha - y is nan; no numpy warning on the way
        warnings.simplefilter("error")
        with pytest.raises(KrrError, match="residual nan"):
            fit_krr(GramMatrix(1e-300 * np.eye(2)), np.array([1e300, 1e300]), lam)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_certificate_holds_for_huge_labels(self, monkeypatch, scale):
        # a wrong alpha fails the residual certificate, also where ||y||^2 overflows
        dual = krr._dual

        def wrong_dual(gram, y, lam):
            y, alpha = dual(gram, y, lam)
            return y, 3 * alpha

        monkeypatch.setattr(krr, "_dual", wrong_dual)
        with pytest.raises(KrrError, match="exceeds tolerance"):
            fit_krr(GramMatrix(np.eye(2)), [scale, scale], 1.0)

    def test_huge_labels_fit(self):
        fit = fit_krr(GramMatrix(np.eye(2)), [1e200, 1e200], 1.0)
        np.testing.assert_allclose(fit.alpha, [5e199, 5e199], rtol=1e-15)

    def test_predict(self):
        fit = fit_krr(GramMatrix(np.eye(2)), np.array([2.0, 4.0]), 1.0)
        np.testing.assert_allclose(fit.predict(np.array([[1.0, 1.0]])), [3.0])


class TestTrainError:
    def test_interpolation_is_zero(self, rng):
        gram = random_spd_gram(rng, 6)
        y = rng.standard_normal(6)
        fit = fit_krr(gram, y, 0.0)
        assert train_error(fit, y) < 1e-18

    def test_scalar_value(self):
        fit = fit_krr(GramMatrix(np.array([[3.0]])), np.array([2.0]), 1.0)
        assert train_error(fit, np.array([2.0])) == pytest.approx(0.25, rel=1e-12)

    def test_zero_labels(self):
        fit = fit_krr(GramMatrix(np.eye(4)), np.zeros(4), 0.5)
        assert train_error(fit, np.zeros(4)) == 0.0

    def test_identity_with_dual_norm(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 25))
            gram = random_spd_gram(rng, n)
            y = rng.standard_normal(n)
            lam = float(rng.uniform(1e-3, 3.0))
            fit = fit_krr(gram, y, lam)
            assert train_error(fit, y) == pytest.approx(
                lam**2 * float(fit.alpha @ fit.alpha) / n, rel=1e-10
            )


def sweep_at(rng, lam):
    """The linear_sweep row at one lambda, on 12 Gaussian samples of 40 features."""
    spectrum = Spectrum.power_law(1.5, 40)
    sample = sample_gaussian_features(spectrum, 12, rng)
    theta = rng.standard_normal(40)
    (row,) = linear_sweep(sample, theta, sample.matrix @ theta, [lam])
    return row


class TestStieltjes:
    """Tr((K + lam)^-1): the GCV denominator at lam > 0, and linear_sweep's Stieltjes value."""

    def test_isotropic(self):
        # (3I + 1)^-1 = I/4 on n = 5: gcv = 5 * (|y|^2 / 16) / (5/4)^2
        y = np.arange(1.0, 6.0)
        assert gcv(GramMatrix(3.0 * np.eye(5)), y, 1.0) == pytest.approx(5 * (55 / 16) / (5 / 4) ** 2, rel=1e-12)

    def test_diagonal(self):
        # (diag(1, 3) + 1)^-1 = diag(1/2, 1/4): gcv = 2 * (1/4 + 1/16) / (3/4)^2
        g = GramMatrix(np.diag([1.0, 3.0]))
        assert gcv(g, np.ones(2), 1.0) == pytest.approx(10 / 9, rel=1e-12)

    def test_large_lambda_limit(self):
        # (I + lam)^-1 = I/(1 + lam): gcv = 3 * (|y|^2 / (1 + lam)^2) / (3 / (1 + lam))^2 = |y|^2 / 3
        y = np.array([1.0, -2.0, 2.0])
        assert gcv(GramMatrix(np.eye(3)), y, 1e12) == pytest.approx(3.0, rel=1e-12)

    def test_requires_positive_lambda(self, rng):
        row = sweep_at(rng, 0.0)
        assert math.isnan(row["stieltjes"]) and math.isfinite(row["gcv"])

    def test_range(self, rng):
        lam = 0.7
        assert 0 < sweep_at(rng, lam)["stieltjes"] <= 1 / lam

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100, 128, 129, 257, 400])
    def test_block_inverse_trace_matches_full_solves(self, rng, n):
        # ||L^-1||_F^2 against L^-1 solved in one piece, and against a dense inverse up to
        # the conditioning both carry; one block of at most TRACE_LEAF rows is that same
        # solve, bit for bit
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for spread in (1.0, 1e-6, 1e-15):
            gram = GramMatrix((q * np.geomspace(spread, 1.0, n)) @ q.T)
            for lam in (1e-12, 1e-6, 1e-2, 1.0, 1e3):
                shifted = gram.entries + lam * np.eye(n)
                linv = solve_triangular(np.linalg.cholesky(shifted), np.eye(n), lower=True)
                full = float((linv * linv).sum())
                trace = _inv_trace(gram, lam)
                if n <= TRACE_LEAF:
                    assert trace == full
                assert trace == pytest.approx(full, rel=1e-13, abs=0)
                cond = (1.0 + lam) / (spread + lam)
                dense = float(np.trace(np.linalg.inv(shifted)))
                assert trace == pytest.approx(dense, rel=1e-13 + np.finfo(float).eps * cond, abs=0)


class TestGcv:
    def test_single_point_equals_label_squared(self):
        val = gcv(GramMatrix(np.array([[3.0]])), np.array([2.0]), 1.0)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_isotropic_gram_independent_of_lambda(self, rng):
        y = rng.standard_normal(6)
        g = GramMatrix(2.0 * np.eye(6))
        vals = [gcv(g, y, lam) for lam in (0.0, 0.5, 1.0, 10.0)]
        expected = float(y @ y) / 6
        np.testing.assert_allclose(vals, expected, rtol=1e-10)

    def test_zero_labels(self):
        assert gcv(GramMatrix(np.eye(3)), np.zeros(3), 0.5) == 0.0

    def test_ridgeless_requires_full_rank(self):
        with pytest.raises(KrrError):
            gcv(GramMatrix(np.ones((2, 2))), np.array([1.0, 2.0]), 0.0)

    def test_indefinite_shifted_gram_is_krr_error(self):
        # eigenvalues 3 and -1: K + 0.5 I is not positive definite, as fit_krr reports
        gram, y = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), np.array([1.0, 0.0])
        for solve in (fit_krr, gcv):
            with pytest.raises(KrrError, match="not positive definite"):
                solve(gram, y, 0.5)

    def test_matches_train_over_scaled_stieltjes(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            gram = random_spd_gram(rng, n)
            y = rng.standard_normal(n)
            lam = float(rng.uniform(1e-2, 2.0))
            fit = fit_krr(gram, y, lam)
            lhs = gcv(gram, y, lam)
            rhs = train_error(fit, y) / (lam * dense_stieltjes(gram, lam)) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGcvSharesTheFitSolve:
    """gcv takes alpha from the solve fit_krr uses; the reference keeps its own solve."""

    @staticmethod
    def grams(rng):
        yield random_spd_gram(rng, 9)
        yield GramMatrix(np.diag([1e-6, 0.5, 2.0, 30.0]))
        # near interpolation: eigenvalues down to 1e-9 of the top one
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        yield GramMatrix(q @ np.diag(np.geomspace(1e-9, 1.0, 8)) @ q.T)

    def test_matches_reference(self, rng):
        for gram in self.grams(rng):
            for _ in range(5):
                y = rng.standard_normal(gram.n)
                for lam in (1e-9, 1e-3, 0.7, 40.0):
                    assert gcv(gram, y, lam) == gcv_reference(gram, y, lam)
                assert gcv(gram, y, 0.0) == pytest.approx(gcv_reference(gram, y, 0.0), rel=1e-13, abs=0)

    def test_defined_where_the_fit_certificate_fails(self):
        # Gaussian features, n = 390 close to p = 400, labels on the five smallest
        # Gram eigendirections: the solve's residual is about eps * cond(K) * |y|
        for seed in range(3):
            rng = np.random.default_rng(seed)
            sample = sample_gaussian_features(Spectrum.power_law(2.5, 400), 390, rng)
            gram = GramMatrix(sample.matrix @ sample.matrix.T)
            y = gram.eigendecomposition()[1][:, :5].sum(axis=1)
            for lam in (0.0, 1e-8):
                assert math.isfinite(gcv(gram, y, lam))
                with pytest.raises(KrrError, match="residual"):
                    fit_krr(gram, y, lam)


@pytest.mark.filterwarnings("error")
class TestErrorContract:
    """Bad input to every entry point is a KrrError, with no numpy warning on the way."""

    EMPTY = np.zeros((0, 0))

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_gcv_nonfinite_labels(self, lam):
        with pytest.raises(KrrError, match="labels must be finite"):
            gcv(GramMatrix(np.eye(2)), [math.nan, 1.0], lam)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_empty_gram(self, lam):
        for solve in (fit_krr, gcv):
            with pytest.raises(KrrError, match="Gram size 0"):
                solve(GramMatrix(self.EMPTY), [], lam)

    def test_train_error_label_length(self):
        fit = fit_krr(GramMatrix(np.eye(2)), [1.0, 1.0], 1.0)
        for y in ([1.0, 2.0, 3.0], [1.0]):
            with pytest.raises(KrrError, match="label vector length"):
                train_error(fit, y)
        with pytest.raises(KrrError, match="labels must be finite"):
            train_error(fit, [math.inf, 1.0])

    def test_ridgeless_least_squares_nonfinite_labels(self, rng):
        sample = sample_gaussian_features(Spectrum.from_blocks([(1.0, 2)]), 5, rng)
        with pytest.raises(KrrError, match="labels must be finite"):
            exact_linear_risk(sample, np.ones(2), [math.nan, 0, 0, 0, 0], 0.0, 0.0)

    def test_shifted_gram_overflow(self):
        gram = GramMatrix(np.array([[1e308, 0.0], [0.0, 1e308]]))
        for solve in (fit_krr, gcv):
            with pytest.raises(KrrError, match="overflows"):
                solve(gram, [1.0, 1.0], 1e308)

    @pytest.mark.parametrize(
        "scale, labels, lam",
        [
            (1.0, [1.0, -2.0], 1e308),  # Tr((K + lam)^-1)^2 underflows to 0
            (1e-300, [1e300, 1e300], 1e-300),  # alpha and Tr((K + lam)^-1)^2 overflow
            (1e-300, [1e300, 1e300], 0.0),  # alpha overflows in the eigenbasis divide
            # the same at 130 rows, where the trace comes from a block-split inverse
            (1.0, [1.0, -2.0] * 65, 1e308),
            (1e-300, [1e300] * 130, 1e-300),
            (1e-300, [1e300] * 130, 0.0),
        ],
    )
    def test_gcv_score_outside_float_range(self, scale, labels, lam):
        n = len(labels)  # K = scale (I + 2/n 11^T): [[2, 1], [1, 2]] at n = 2
        with pytest.raises(KrrError, match="not a finite float"):
            gcv(GramMatrix(scale * (np.eye(n) + 2.0 / n)), labels, lam)

    def test_linear_sweep_checks_labels(self, rng):
        sample = sample_gaussian_features(Spectrum.from_blocks([(1.0, 3)]), 4, rng)
        with pytest.raises(KrrError, match="labels must be finite"):
            linear_sweep(sample, np.ones(3), [math.nan, 0.0, 0.0, 0.0], [0.0, 1.0])
        empty = FeatureSample(np.zeros((0, 3)), Spectrum.from_blocks([(1.0, 3)]))
        with pytest.raises(KrrError, match="Gram size 0"):
            linear_sweep(empty, np.ones(3), [], [0.0, 1.0])

    @pytest.mark.parametrize("head", [b"KRRG\x01\x02", b"KRRG" + struct.pack("<Q", 2**62)])
    def test_gram_reader_short_header_or_huge_n(self, tmp_path, head):
        path = tmp_path / "k.krrg"
        path.write_bytes(head)
        with pytest.raises(KrrError):
            read_gram_binary(path)

    @pytest.mark.parametrize("head", [b"KRRY", b"KRRY" + struct.pack("<Q", 2**64 - 1)])
    def test_label_reader_short_header_or_huge_n(self, tmp_path, head):
        path = tmp_path / "y.krry"
        path.write_bytes(head)
        with pytest.raises(KrrError):
            read_labels_binary(path)


class TestSweeps:
    def test_eig_matches_direct(self, rng):
        spectrum = Spectrum.power_law(1.5, 40)
        sample = sample_gaussian_features(spectrum, 12, rng)
        theta = rng.standard_normal(40)
        y = sample.matrix @ theta + 0.1 * rng.standard_normal(12)
        gram = GramMatrix(sample.matrix @ sample.matrix.T)
        rows = linear_sweep(sample, theta, y, [1e-3, 0.1, 1.0, 25.0])
        for row in rows:
            lam = row["lambda"]
            assert row["gcv"] == pytest.approx(gcv(gram, y, lam), rel=1e-8)
            assert row["train_error"] == pytest.approx(train_error(fit_krr(gram, y, lam), y), rel=1e-8)
            assert row["stieltjes"] == pytest.approx(dense_stieltjes(gram, lam), rel=1e-8)

    def test_linear_sweep_matches_pointwise(self, rng):
        spectrum = Spectrum.power_law(1.5, 40)
        sample = sample_gaussian_features(spectrum, 25, rng)
        theta = rng.standard_normal(40)
        y = sample.matrix @ theta + 0.1 * rng.standard_normal(25)
        grid = [1e-2, 0.3, 2.0]
        rows = linear_sweep(sample, theta, y, grid, noise_variance=0.01)
        for row in rows:
            direct = exact_linear_risk(sample, theta, y, row["lambda"], 0.01)
            assert row["test_error"] == pytest.approx(direct, rel=1e-8)


class TestLinearTestError:
    def test_heavy_ridge_gives_total_energy(self, rng):
        spectrum = Spectrum.from_blocks([(1.0, 8)])
        sample = sample_gaussian_features(spectrum, 5, rng)
        theta = rng.standard_normal(8)
        y = sample.matrix @ theta
        val = exact_linear_risk(sample, theta, y, 1e12, 0.3)
        assert val == pytest.approx(float(theta @ theta) + 0.3, rel=1e-4)

    def test_noiseless_overdetermined_recovery(self, rng):
        spectrum = Spectrum.from_blocks([(1.0, 4)])
        sample = sample_gaussian_features(spectrum, 12, rng)
        theta = rng.standard_normal(4)
        y = sample.matrix @ theta
        assert exact_linear_risk(sample, theta, y, 0.0, 0.0) < 1e-16

    def test_scalar_example(self):
        spectrum = Spectrum.from_blocks([(1.0, 1)])
        sample = FeatureSample(matrix=np.array([[2.0]]), covariance=spectrum)
        val = exact_linear_risk(sample, np.array([1.0]), np.array([2.0]), 1.0, 0.0)
        assert val == pytest.approx(0.04, rel=1e-12)


class TestMonteCarlo:
    @staticmethod
    def _dot_kernel(a, b):
        return a @ b.T

    def test_zero_coefficients_mean_energy(self, rng):
        train = rng.standard_normal((3, 2))
        test = rng.standard_normal((500, 2))
        fit = fit_krr(GramMatrix(np.eye(3)), np.zeros(3), 1.0)
        target = lambda pts: pts[:, 0]
        est, se = monte_carlo_risk(fit, self._dot_kernel, target, 0.2, train, test)
        expected = float(np.mean(test[:, 0] ** 2)) + 0.2
        assert est == pytest.approx(expected, rel=1e-12)
        assert se > 0

    def test_zero_everything(self, rng):
        train = rng.standard_normal((3, 2))
        test = rng.standard_normal((50, 2))
        fit = fit_krr(GramMatrix(np.eye(3)), np.zeros(3), 1.0)
        est, se = monte_carlo_risk(fit, self._dot_kernel, lambda p: np.zeros(len(p)), 0.0, train, test)
        assert est == 0.0

    def test_empty_test_set(self, rng):
        fit = fit_krr(GramMatrix(np.eye(2)), np.zeros(2), 1.0)
        with pytest.raises(KrrError):
            monte_carlo_risk(
                fit, self._dot_kernel, lambda p: np.zeros(len(p)), 0.0,
                rng.standard_normal((2, 2)), np.empty((0, 2)),
            )


class TestBinaryFormats:
    def test_gram_round_trip(self, tmp_path, rng):
        gram = random_spd_gram(rng, 7)
        path = tmp_path / "k.krrg"
        write_gram_binary(gram, path)
        back = read_gram_binary(path)
        np.testing.assert_array_equal(back.entries, gram.entries)

    def test_labels_round_trip(self, tmp_path, rng):
        y = rng.standard_normal(11)
        path = tmp_path / "y.krry"
        write_labels_binary(y, path)
        np.testing.assert_array_equal(read_labels_binary(path), y)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(KrrError, match="magic"):
            read_gram_binary(path)
        with pytest.raises(KrrError, match="magic"):
            read_labels_binary(path)

    def test_trailing_bytes_are_ignored(self, tmp_path, rng):
        gram, y = random_spd_gram(rng, 3), rng.standard_normal(3)
        write_gram_binary(gram, tmp_path / "k.krrg")
        write_labels_binary(y, tmp_path / "y.krry")
        for name in ("k.krrg", "y.krry"):
            with open(tmp_path / name, "ab") as handle:
                handle.write(b"\0" * 13)
        np.testing.assert_array_equal(read_gram_binary(tmp_path / "k.krrg").entries, gram.entries)
        np.testing.assert_array_equal(read_labels_binary(tmp_path / "y.krry"), y)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.krrg"
        path.write_bytes(b"KRRG" + struct.pack("<Q", 4) + b"\0" * 10)
        with pytest.raises(KrrError, match="truncated"):
            read_gram_binary(path)

