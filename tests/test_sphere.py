import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from krrdeteq import sphere
from krrdeteq.deteq import deterministic_equivalents
from krrdeteq.krr import GramMatrix, fit_krr
from krrdeteq.sphere import (
    GegenbauerBasis,
    exact_sphere_risk,
    SphereError,
    SphereKernel,
    SphereTarget,
    dim_spherical,
    kernel_from_gaps,
    sample_sphere,
    sphere_moment,
    sphere_spectrum,
)
from krrdeteq.spectrum import NoiseModel

from conftest import gegenbauer, h_values, sphere_quadrature


class TestHarmonicDimensions:
    def test_low_degrees(self):
        for d in (3, 10, 24, 64):
            assert dim_spherical(d, 0) == 1
            assert dim_spherical(d, 1) == d

    def test_hand_values(self):
        assert dim_spherical(24, 2) == 299
        assert dim_spherical(24, 3) == 2576

    def test_large_case_exact_integer(self):
        value = dim_spherical(64, 10)
        assert isinstance(value, int)
        # cross-check with the alternative binomial identity
        alt = math.comb(64 + 10 - 1, 10) - math.comb(64 + 10 - 3, 8)
        assert value == alt

    def test_kernel_multiplicities_exact_past_int64_products(self):
        # (d + 2k - 2) * C(d + k - 3, k - 1) passes 2**63 at d = 185, k = 12, while B_{d,k} fits
        mults = kernel_from_gaps(185, 12, 2.0).multiplicities()
        assert mults[12] == 4742904420800241552
        assert mults.tolist() == [dim_spherical(185, k) for k in range(13)]
        assert kernel_from_gaps(np.int64(185), 12, 2.0).multiplicities()[12] == mults[12]

    def test_kernel_multiplicity_past_int64_is_sphere_error(self):
        assert dim_spherical(1000, 8) >= 2**63  # about 2.55e19
        with pytest.raises(SphereError, match="int64"):
            kernel_from_gaps(1000, 8, 2.0).multiplicities()


class TestGegenbauerBasis:
    def test_constant_and_linear(self):
        basis = GegenbauerBasis(24, 6)
        t = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(gegenbauer(basis, 0, t), np.ones(7))
        np.testing.assert_allclose(gegenbauer(basis, 1, t), math.sqrt(24) * t, rtol=1e-12)

    def test_orthonormality(self):
        for d in (3, 10, 24):
            basis = GegenbauerBasis(d, 10)
            x, w = sphere_quadrature(d)
            vals = np.vstack([gegenbauer(basis, k, x) for k in range(11)])
            gram = (vals * w) @ vals.T
            assert np.abs(gram - np.eye(11)).max() <= 1e-8

    def test_value_at_one_squares_to_dimension(self):
        basis = GegenbauerBasis(24, 10)
        for k in range(11):
            q1 = float(gegenbauer(basis, k, 1.0)[0])
            assert q1**2 == pytest.approx(dim_spherical(24, k), rel=1e-8)
            assert q1 > 0

    def test_clamps_near_boundary_and_rejects_outside(self):
        basis = GegenbauerBasis(10, 3)
        gegenbauer(basis, 2, 1.0 + 1e-13)  # clamped; 1.1 raises

    def test_series_bitwise_matches_out_of_place_recurrence(self, rng):
        basis = GegenbauerBasis(24, 7)
        coeffs = rng.uniform(0, 1, size=8)
        t = np.append(rng.uniform(-1, 1, size=200), [1.0 + 1e-13, -1.0 - 1e-13])
        # the recurrence as plain array expressions, with a fresh array per operation
        alpha = (basis.d - 2) / 2.0
        tc = np.clip(t, -1.0, 1.0)
        prev = np.ones_like(tc)
        acc = coeffs[0] / basis.norms[0] * prev
        cur = 2.0 * alpha * tc
        acc = acc + coeffs[1] / basis.norms[1] * cur
        for k in range(2, 8):
            prev, cur = cur, (2.0 * (k + alpha - 1) * tc * cur - (k + 2 * alpha - 2) * prev) / k
            acc = acc + coeffs[k] / basis.norms[k] * cur
        np.testing.assert_array_equal(basis.series(coeffs, t), acc)
        out = np.empty_like(t)
        assert basis.series(coeffs, t, out=out) is out
        np.testing.assert_array_equal(out, acc)

    def test_series_matches_term_sum(self, rng):
        basis = GegenbauerBasis(12, 8)
        coeffs = rng.uniform(0, 1, size=9)
        t = rng.uniform(-1, 1, size=20)
        direct = sum(c * gegenbauer(basis, k, t) for k, c in enumerate(coeffs))
        np.testing.assert_allclose(basis.series(coeffs, t), direct, rtol=1e-10)


class TestSphereKernel:
    def test_gap_coefficients(self):
        kern = kernel_from_gaps(24, 7, 8.0)
        np.testing.assert_allclose(kern.coeffs[1:], 8.0 ** -(np.arange(7)), rtol=1e-15)
        assert kern.coeffs[0] == 0.0

    def test_single_level_is_linear(self):
        kern = kernel_from_gaps(24, 1, 8.0)
        t = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(h_values(kern, t), 24 * t, rtol=1e-10, atol=1e-12)

    def test_trace_identity_at_one(self):
        kern = kernel_from_gaps(24, 7, 8.0)
        mults = kern.multiplicities()
        expected = float(np.dot(kern.coeffs, mults))
        assert float(h_values(kern, np.array([1.0]))[0]) == pytest.approx(expected, rel=1e-10)

    def test_huge_gap_suppresses_higher_levels(self):
        kern = kernel_from_gaps(24, 3, 1e12)
        assert kern.coeffs[2] <= 1e-12 and kern.coeffs[3] <= 1e-24

    def test_cross_gram_streaming_matches_direct(self, rng, monkeypatch):
        kern = kernel_from_gaps(10, 3, 4.0)
        a = sample_sphere(10, 23, rng)
        b = sample_sphere(10, 9, rng)
        full = kern.cross_gram(a, b)
        monkeypatch.setattr(sphere, "_BLOCK_ELEMENTS", 7)
        blocked = kern.cross_gram(a, b)
        np.testing.assert_array_equal(full, blocked)
        t = np.clip(a @ b.T / 10, -1, 1)
        np.testing.assert_allclose(full, h_values(kern, t), rtol=1e-12)

    @pytest.mark.parametrize("budget", [7, 2**15])
    def test_gram_exactly_symmetric(self, rng, monkeypatch, budget):
        # at n = 515 row blocks of a @ a.T need not be symmetric in the last bit
        # (gemm edge tiles), so only mirroring makes the Gram symmetric
        monkeypatch.setattr(sphere, "_BLOCK_ELEMENTS", budget)
        kern = kernel_from_gaps(24, 3, 4.0)
        u = sample_sphere(24, 515, rng)
        g = kern.gram(u)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_allclose(g, kern.cross_gram(u, u), rtol=1e-12, atol=1e-13)

    def test_gram_peak_memory_is_output_plus_blocks(self):
        kern = kernel_from_gaps(24, 7, 8.0)
        u = sample_sphere(24, 1024, 3)
        tracemalloc.start()
        try:
            g = kern.gram(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * g.nbytes


class TestEigencoeffs:
    def test_round_trip_gap_kernel(self):
        # xi_k = int h Q_k d(tau) / sqrt(B_{d,k}), by an independent Gauss-Jacobi rule
        d = 24
        kern = kernel_from_gaps(d, 3, 8.0)
        x, w = sphere_quadrature(d)
        coeffs = [
            float(np.dot(w, h_values(kern, x) * gegenbauer(kern.basis, k, x))) / math.sqrt(dim_spherical(d, k))
            for k in range(4)
        ]
        np.testing.assert_allclose(coeffs, kern.coeffs, atol=1e-8)


class TestSampling:
    def test_row_norms(self, rng):
        u = sample_sphere(24, 50, rng)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), math.sqrt(24), rtol=1e-10)

    def test_seed_reproducibility(self):
        a = sample_sphere(8, 20, 123)
        b = sample_sphere(8, 20, 123)
        np.testing.assert_array_equal(a, b)

    def test_coordinate_second_moment(self):
        u = sample_sphere(24, 100_000, 7)
        assert float(np.mean(u[:, 0] ** 2)) == pytest.approx(1.0, abs=0.02)


class TestSphereMoments:
    def test_first_moment_is_one(self):
        for d in (3, 24, 50):
            assert sphere_moment(d, 1) == pytest.approx(1.0, rel=1e-15)

    def test_pair_moment(self):
        assert sphere_moment(24, 2) == pytest.approx(24.0 / 26.0, rel=1e-15)

    def test_monte_carlo_cross_check(self):
        u = sample_sphere(24, 100_000, 11)
        prod = u[:, 0] ** 2 * u[:, 1] ** 2
        se = float(prod.std(ddof=1)) / math.sqrt(len(prod))
        assert abs(float(prod.mean()) - sphere_moment(24, 2)) <= 3 * se


class TestCyclicTarget:
    def test_energy_accounting(self):
        target = SphereTarget(24, {k: k**-2.0 for k in range(1, 8)})
        assert target.total_energy == pytest.approx(sum(k**-2.0 for k in range(1, 8)), rel=1e-12)

    def test_level_energy_matches_request(self):
        d, k, energy = 24, 2, 0.37
        target = SphereTarget(d, {k: energy})
        c = target.coeffs[k]
        assert c**2 * d * sphere_moment(d, k) == pytest.approx(energy, rel=1e-10)
        u = sample_sphere(d, 100_000, 3)
        vals = target.level_values(k, u)
        se = float((vals**2).std(ddof=1)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals**2)) - energy) <= 3 * se
        np.testing.assert_array_equal(target.level_values(k + 1, u), np.zeros(len(u)))  # a level with no energy

    def test_distinct_windows_uncorrelated(self):
        d, k = 24, 3
        u = sample_sphere(d, 100_000, 9)
        w0 = np.prod([u[:, (0 + s) % d] for s in range(k)], axis=0)
        w5 = np.prod([u[:, (5 + s) % d] for s in range(k)], axis=0)
        prod = w0 * w5
        se = float(prod.std(ddof=1)) / math.sqrt(len(prod))
        assert abs(float(prod.mean())) <= 3 * se


class TestSphereSpectrum:
    def test_blocks_sorted_with_alignment(self):
        kern = kernel_from_gaps(24, 3, 8.0)
        target = SphereTarget(24, {1: 1.0, 2: 0.25, 3: 1 / 9})
        model = sphere_spectrum(kern, target, NoiseModel(0.1), 16, 0.0)
        np.testing.assert_allclose(model.spectrum.values, [1.0, 1 / 8, 1 / 64], rtol=1e-15)
        np.testing.assert_array_equal(model.spectrum.multiplicities,
                                      [24, dim_spherical(24, 2), dim_spherical(24, 3)])
        np.testing.assert_allclose(model.alignment.energies, [1.0, 0.25, 1 / 9], rtol=1e-12)
        assert model.alignment.residual_energy == 0.0

    def test_unlearnable_level_goes_to_residual(self):
        kern = kernel_from_gaps(24, 2, 8.0)
        target = SphereTarget(24, {1: 1.0, 5: 0.3})
        model = sphere_spectrum(kern, target, NoiseModel(0.0), 8, 0.1)
        assert model.alignment.residual_energy == pytest.approx(0.3, rel=1e-12)

    def test_risk_matches_independent_level_sum(self):
        # independent oracle: solve the level-sum fixed point with brentq and
        # evaluate the closed-form risk directly over levels
        d, gap, levels, s2, n, lam = 24, 8.0, 7, 0.1, 128, 0.0
        kern = kernel_from_gaps(d, levels, gap)
        energies = {k: k**-2.0 for k in range(1, levels + 1)}
        target = SphereTarget(d, energies)
        model = sphere_spectrum(kern, target, NoiseModel(s2), n, lam)
        risk = deterministic_equivalents(model).risk

        xis = kern.coeffs[1:]
        mults = np.array([dim_spherical(d, k) for k in range(1, levels + 1)], dtype=float)

        def defect(ls):
            return n - lam / ls - float(np.sum(mults * xis / (xis + ls)))

        ls = brentq(defect, 1e-12, (lam + float(np.sum(mults * xis))) / n, xtol=1e-15, rtol=1e-15)
        e = np.array([energies[k] for k in range(1, levels + 1)])
        u2 = float(np.sum(mults * xis**2 / (xis + ls) ** 2)) / n
        direct = (float(np.sum(e * ls**2 / (xis + ls) ** 2)) + s2) / (1 - u2)
        assert risk == pytest.approx(direct, rel=1e-12)


class TestExactRisk:
    def test_zero_coefficients(self):
        kern = kernel_from_gaps(10, 2, 4.0)
        target = SphereTarget(10, {1: 0.5})
        u = sample_sphere(10, 6, 1)
        fit = fit_krr(GramMatrix(np.eye(6)), np.zeros(6), 1.0)
        val = exact_sphere_risk(fit, kern, target, 0.2, u)
        assert val == pytest.approx(0.5 + 0.2, rel=1e-12)

    def test_all_zero(self):
        kern = kernel_from_gaps(10, 2, 4.0)
        target = SphereTarget(10, {1: 0.0})
        u = sample_sphere(10, 4, 2)
        fit = fit_krr(GramMatrix(np.eye(4)), np.zeros(4), 1.0)
        assert exact_sphere_risk(fit, kern, target, 0.0, u) == pytest.approx(0.0, abs=1e-15)

    def test_streaming_matches_one_block(self, monkeypatch):
        """The default budget (3 row blocks at n = 296 and 300) and 8-row blocks match one block,
        and one block matches the dense H2, the Gram of the squared coefficients."""
        d, s2 = 10, 0.1
        kern = kernel_from_gaps(d, 3, 4.0)
        target = SphereTarget(d, {1: 1.0, 2: 0.25})
        for n in (23, 296, 300):
            u = sample_sphere(d, n, 5)
            fit = fit_krr(GramMatrix(kern.gram(u)), target(u), 0.1)
            default = exact_sphere_risk(fit, kern, target, s2, u)
            with monkeypatch.context() as m:
                m.setattr(sphere, "_BLOCK_ELEMENTS", (n + 8) * n)
                assert len(list(sphere._row_blocks(n, n))) == 1
                whole = exact_sphere_risk(fit, kern, target, s2, u)
                m.setattr(sphere, "_BLOCK_ELEMENTS", 7)
                assert exact_sphere_risk(fit, kern, target, s2, u) == pytest.approx(whole, rel=1e-12)
            assert default == pytest.approx(whole, rel=1e-12)
            alpha = np.asarray(fit.alpha).ravel()
            v = sum(kern.coeffs[k] * target.level_values(k, u) for k in target.energies)
            h2 = SphereKernel(d, kern.coeffs**2).cross_gram(u, u)
            assert whole == pytest.approx(target.total_energy - 2 * alpha @ v + alpha @ (h2 @ alpha) + s2, rel=1e-14)

    def test_evaluates_as_many_series_entries_as_the_gram(self, monkeypatch):
        d, n = 10, 300
        kern = kernel_from_gaps(d, 3, 4.0)
        target = SphereTarget(d, {1: 1.0})
        u = sample_sphere(d, n, 1)
        entries, series = [], GegenbauerBasis.series

        def counted(self, coeffs, t, out=None):
            entries.append(np.size(t))
            return series(self, coeffs, t, out)

        monkeypatch.setattr(GegenbauerBasis, "series", counted)
        fit = fit_krr(GramMatrix(kern.gram(u)), target(u), 0.1)
        gram_entries = sum(entries)
        entries.clear()
        exact_sphere_risk(fit, kern, target, 0.0, u)
        # three row blocks of 104, 104 and 92 rows: 104 * 300 + 104 * 196 + 92 * 92 entries, not 300 * 300
        assert len(entries) == 3 and sum(entries) == gram_entries == 60_048

    def test_peak_memory_is_blocks_not_n_squared(self):
        d, n = 24, 1024
        kern = kernel_from_gaps(d, 7, 8.0)
        target = SphereTarget(d, {k: k**-2.0 for k in range(1, 8)})
        u = sample_sphere(d, n, 4)
        fit = fit_krr(GramMatrix(kern.gram(u)), target(u), 0.0)
        tracemalloc.start()
        try:
            exact_sphere_risk(fit, kern, target, 0.1, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # an n x n array would be 8 MB

