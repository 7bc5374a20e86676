import math
import struct
from typing import NamedTuple

import numpy as np
import pytest
from numpy.linalg import norm
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from krrdeteq import krr
from krrdeteq.functionals import FeatureSample, sample_gaussian_features
from krrdeteq.krr import (
    RANK_TOL,
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
from krrdeteq.krr import _full_rank, _inv_trace
from krrdeteq.krr import test_error_linear_exact as exact_linear_risk
from krrdeteq.krr import test_error_monte_carlo as monte_carlo_risk
from krrdeteq.sphere import kernel_from_gaps, sample_sphere
from krrdeteq.spectrum import Spectrum

from exact import spectral_gcv

EPS = np.finfo(float).eps
SPHERE = kernel_from_gaps(6, 3, 4.0)  # levels 1-3 on the sphere in R^6: rank 6 + 20 + 50 = 76
TRACE_SIZES = (1, 2, 63, 64, 65, 100, 128, 129, 257, 400)
WIDE = (0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e3)
SHARED = (0.0, 1e-9, 1e-3, 0.7, 40.0)
EDGE = (0.0, 1e-9, 0.7)
NOISE = 0.01  # the noise floor of linear_sweep and the exact linear risk


class Row(NamedTuple):
    kind: str  # random, sphere, features, near rank or diagonal: see krr_case
    n: int
    lams: tuple
    eigenvalues: tuple = ()  # near rank and diagonal: the Gram's eigenvalues, before rounding
    seed: int = 0


def random_spd_gram(rng, n):
    b = rng.standard_normal((n, n + 3))
    return GramMatrix(b @ b.T / n)


def geometric(low, n):
    return tuple(np.geomspace(low, 1.0, n))


# rows grouped by the test that runs them, each through every oracle of check_krr_oracles; every grid includes 0
KRR_CASES = {
    "certificate": [Row("random", 2 + i % 28, (0.0, 0.02 * (i + 1)), seed=i) for i in range(100)],
    "train identity": [Row("random", 2 + 7 * i % 23, (0.0, 1e-3, 0.5, 3.0), seed=100 + i) for i in range(10)],
    "gcv identity": [Row("random", 3 + 5 * i % 17, (0.0, 1e-2, 0.7, 2.0), seed=200 + i) for i in range(10)],
    # every size draws its Q from default_rng(20240911), the seed of the rng fixture in conftest.py
    "inverse trace": [
        Row("near rank", n, WIDE, geometric(low, n), 20240911) for n in TRACE_SIZES for low in (1.0, 1e-6, 1e-15)
    ],
    "shared solve": [
        row
        for seed in range(300, 305)
        for row in (
            Row("random", 9, SHARED, seed=seed),
            Row("diagonal", 4, SHARED, (1e-6, 0.5, 2.0, 30.0), seed),
            Row("near rank", 8, SHARED, geometric(1e-9, 8), seed),
            Row("sphere", 40, SHARED, seed=seed),
        )
    ],
    "positive lambda": [Row("features", 12, (0.0, 0.7), seed=1)],
    "stieltjes range": [Row("features", 12, (0.0, 0.7), seed=2)],
    "sweep": [Row("features", 12, (0.0, 1e-3, 0.1, 1.0, 25.0), seed=3)],
    "sweep risk": [Row("features", 25, (0.0, 1e-2, 0.3, 2.0), seed=4)],
    "isotropic": [Row("diagonal", 6, (0.0, 0.5, 1.0, 10.0), (2.0,) * 6)],
    "spectral": [Row("diagonal", n, WIDE, geometric(low, n)) for n in (6, 40, 130) for low in (1, 1e-3, 1e-9)],
    # eigenvalue ratios on each side of RANK_TOL = 1e-10, and sphere Grams below and above their rank
    "rank boundary": [
        Row(kind, 8, EDGE, geometric(low, 8), 8) for kind in ("near rank", "diagonal") for low in (1e-9, 1e-12)
    ]
    + [Row("sphere", n, EDGE, seed=n) for n in (70, 100)],
}


def krr_case(row):
    """The row's Gram and labels y, with its FeatureSample and theta for the kinds with features X.

    Every draw comes from default_rng(row.seed).  A random Gram is random_spd_gram's, a sphere Gram SPHERE's on
    sample_sphere points, and a near rank Gram Q diag(eigenvalues) Q^T; each has standard normal labels.  The
    features kind draws X from power_law(1.5, 40), and the diagonal kind takes X = [diag(root) | 0] with root^2 the
    eigenvalues, a Gram diag(fl(root^2)) that eigh decomposes exactly; their labels are y = X theta + 0.1 noise.
    """
    rng = np.random.default_rng(row.seed)
    if row.kind == "random":
        return random_spd_gram(rng, row.n), rng.standard_normal(row.n), None, None
    if row.kind == "sphere":
        return GramMatrix(SPHERE.gram(sample_sphere(SPHERE.d, row.n, rng))), rng.standard_normal(row.n), None, None
    if row.kind == "near rank":
        q = np.linalg.qr(rng.standard_normal((row.n, row.n)))[0]
        return GramMatrix((q * row.eigenvalues) @ q.T), rng.standard_normal(row.n), None, None
    if row.kind == "features":
        sample = sample_gaussian_features(Spectrum.power_law(1.5, 40), row.n, rng)
    else:
        root = np.diag(np.sqrt(row.eigenvalues))
        sample = FeatureSample(np.hstack([root, 0 * root]), Spectrum.from_blocks([(1.0, 2 * row.n)]))
    theta = rng.standard_normal(sample.matrix.shape[1])
    y = sample.matrix @ theta + 0.1 * rng.standard_normal(row.n)
    return GramMatrix(sample.matrix @ sample.matrix.T), y, sample, theta


def check_krr_oracles(monkeypatch, family, rows=None):
    """Every oracle on every (Gram, lam) of ``rows``, by default the family's rows of KRR_CASES.

    Bounds are relative.  Those that depend on conditioning scale kappa, the condition number of K + lam (from the
    row's eigenvalues where it states them), or shrink, the cancellation in a train error y - K alpha = lam alpha, by
    16 eps: about six times the worst error measured, and below the old tests' bounds on their cases.  fit_krr
    keeps its certificate wherever n eps kappa <= 1e-10, and elsewhere may fail only that certificate.  At lam = 0,
    every route follows _full_rank.  ``pytest -s`` prints each oracle's worst error / bound.
    """
    worst, traces = {}, []

    def recorded_trace(shifted):  # the Tr((K + lam)^-1) that gcv divides by
        traces.append(_inv_trace(shifted))
        return traces[-1]

    def check(oracle, got, want, bound):
        err = 0.0 if np.array_equal(got, want, equal_nan=True) else float(norm(np.subtract(got, want)) / norm(want))
        worst[oracle] = max(worst.get(oracle, 0.0), err / bound if bound else err)
        assert err <= bound, f"{oracle} at (family, kind, low, n, lam, seed) = {where}: error {err:.2e} > {bound:.1e}"

    monkeypatch.setattr(krr, "_inv_trace", recorded_trace)
    for row in KRR_CASES[family] if rows is None else rows:
        gram, y, sample, theta = krr_case(row)
        n, low = row.n, min(row.eigenvalues, default=None)
        mu, v = gram.eigendecomposition()
        c, full_rank = v.T @ y, _full_rank(mu)
        bottom, top = (max(mu[0], 0.0), mu[-1]) if low is None else (low, max(row.eigenvalues))
        assert low is None or full_rank == (low > RANK_TOL * top), (family, row.kind, low, n)
        sweep = linear_sweep(sample, theta, y, row.lams, NOISE) if sample else [None] * len(row.lams)
        for lam, swept in zip(row.lams, sweep):
            where = (family, row.kind, low, n, lam, row.seed)
            if lam == 0 and not full_rank:
                for solve in (fit_krr, gcv):
                    with pytest.raises(KrrError, match="ill-posed"):
                        solve(gram, y, lam)
                assert swept is None or all(math.isnan(value) for value in list(swept.values())[1:]), where
                continue
            kappa, shrink = (top + lam) / (bottom + lam), (top + lam) / lam if lam else math.inf
            try:
                fit = fit_krr(gram, y, lam)
                check("certificate", gram.entries @ fit.alpha + lam * fit.alpha, y, 1e-8)
            except KrrError as exc:
                assert "residual" in str(exc) and n * EPS * kappa > 1e-10, (where, str(exc))
                fit = None
            alpha = krr._dual(gram, y, lam)[1] if fit is None else fit.alpha
            check("alpha vs eigenbasis", alpha, v @ (c / (mu + lam)), 1e-13 + 16 * EPS * kappa)
            score = gcv(gram, y, lam)
            if lam == 0:
                trace, stieltjes, train = float(np.sum(1.0 / mu)), math.nan, 0.0
                reference = n * float(np.sum((c / mu) ** 2)) / trace**2  # the reference GCV from the eigenbasis
            else:
                shifted = gram.entries + lam * np.eye(n)
                linv = solve_triangular(np.linalg.cholesky(shifted), np.eye(n), lower=True)
                trace, full = traces[-1], float((linv * linv).sum())
                stieltjes = float(np.trace(np.linalg.inv(shifted))) / n
                check("trace vs full", trace, full, 0.0 if n <= TRACE_LEAF else 1e-13)
                check("trace vs dense", trace / n, stieltjes, 1e-13 + EPS * kappa)
                assert swept is None or 0 < swept["stieltjes"] <= 1 / lam, where
                z = cho_solve(cho_factor(shifted, lower=True), y)  # the reference GCV's own solve
                reference = n * float(z @ z) / full**2
            check("gcv vs reference", score, reference, 0.0 if lam > 0 and n <= TRACE_LEAF else 1e-13)
            check("gcv vs fit", score, n * float(alpha @ alpha) / trace**2, 0.0)
            if fit is not None and lam > 0:
                train = train_error(fit, y)
                check("train identity", train, lam**2 * float(alpha @ alpha) / n, max(1e-10, 16 * EPS * shrink))
                check("gcv vs train", score, train / (lam * stieltjes) ** 2, max(1e-10, 16 * EPS * shrink))
            if swept is not None:  # at lam = 0 its train error is 0 and its Stieltjes value NaN
                want = {"gcv": (score, kappa), "stieltjes": (stieltjes, kappa)}
                if fit is not None:
                    want["train_error"] = train, shrink
                    want["test_error"] = exact_linear_risk(sample, theta, y, lam, NOISE), kappa
                for key, (value, cond) in want.items():
                    check(f"sweep {key}", swept[key], value, max(1e-8, 16 * EPS * cond))
            if row.kind == "diagonal":
                exact = [float(value) for value in spectral_gcv(np.diag(gram.entries), y, n, lam)]
                check("gcv vs exact", score, exact[0], 1e-14)
                keys = ("gcv", "train_error", "stieltjes") if lam else ("gcv", "train_error")
                check("sweep vs exact", [swept[key] for key in keys], exact[: len(keys)], 1e-14)
    print(f"{family}: worst error / bound: " + ", ".join(f"{name} {ratio:.1e}" for name, ratio in worst.items()))


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

    def test_residual_certificate_random(self, monkeypatch):
        check_krr_oracles(monkeypatch, "certificate")

    def test_ridgeless_rank_decision(self, monkeypatch):
        check_krr_oracles(monkeypatch, "rank boundary")

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_labels(self, lam, bad):
        with pytest.raises(KrrError, match="labels must be finite"):
            fit_krr(GramMatrix(np.eye(2)), np.array([bad, 1.0]), lam)

    @pytest.mark.parametrize("lam", [0.0, 1e-300])
    def test_nan_residual_fails_certificate(self, lam):
        # alpha = 1e300 / 1e-300 overflows, and K alpha - y is nan; no numpy warning on the way
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

    def test_identity_with_dual_norm(self, monkeypatch):
        check_krr_oracles(monkeypatch, "train identity")


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

    def test_requires_positive_lambda(self, monkeypatch):
        check_krr_oracles(monkeypatch, "positive lambda")

    def test_range(self, monkeypatch):
        check_krr_oracles(monkeypatch, "stieltjes range")

    @pytest.mark.parametrize("n", TRACE_SIZES)
    def test_block_inverse_trace_matches_full_solves(self, monkeypatch, n):
        check_krr_oracles(monkeypatch, "inverse trace", [row for row in KRR_CASES["inverse trace"] if row.n == n])


class TestGcv:
    def test_single_point_equals_label_squared(self):
        val = gcv(GramMatrix(np.array([[3.0]])), np.array([2.0]), 1.0)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_isotropic_gram_independent_of_lambda(self, monkeypatch):
        check_krr_oracles(monkeypatch, "isotropic")

    def test_matches_exact_spectral_gcv(self, monkeypatch):
        check_krr_oracles(monkeypatch, "spectral")

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

    def test_matches_train_over_scaled_stieltjes(self, monkeypatch):
        check_krr_oracles(monkeypatch, "gcv identity")


class TestGcvSharesTheFitSolve:
    """gcv takes alpha from the solve fit_krr uses."""

    def test_matches_reference(self, monkeypatch):
        check_krr_oracles(monkeypatch, "shared solve")

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

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf])
    def test_linear_sweep_checks_lambdas(self, rng, lam):
        sample = sample_gaussian_features(Spectrum.from_blocks([(1.0, 3)]), 4, rng)
        with pytest.raises(KrrError, match="lambda must be finite and nonnegative"):
            linear_sweep(sample, np.ones(3), np.zeros(4), [0.0, lam])

    @pytest.mark.parametrize("size", [1, 4])
    def test_linear_sweep_checks_target_size(self, rng, size):
        sample = sample_gaussian_features(Spectrum.from_blocks([(1.0, 3)]), 4, rng)
        with pytest.raises(KrrError, match="feature/target dimensions disagree"):
            linear_sweep(sample, np.ones(size), np.zeros(4), [1.0])

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
    def test_eig_matches_direct(self, monkeypatch):
        check_krr_oracles(monkeypatch, "sweep")

    def test_linear_sweep_matches_pointwise(self, monkeypatch):
        check_krr_oracles(monkeypatch, "sweep risk")


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

