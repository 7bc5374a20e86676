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

# rows (d, levels, gap, n, lam, energies), grouped by the test that runs them, each through every oracle of
# check_sphere_oracles: the kernel kernel_from_gaps(d, levels, gap), the target SphereTarget(d, energies), and
# a fit at lam to the target's values at the n points sample_sphere(d, n, 5)
SPHERE_CASES = {
    "large degree": [(64, 10, 2.0, 16, 0.1, {1: 1.0, 10: 0.5})],
    "constant and linear": [(24, 6, 8.0, 40, 0.5, {k: k**-2.0 for k in range(1, 7)})],
    "orthonormality": [(3, 10, 4.0, 23, 0.0, {1: 1.0, 2: 0.25}), (10, 10, 4.0, 23, 0.1, {2: 1.0, 9: 0.5})],
    "value at one": [(24, 10, 2.0, 64, 0.1, {3: 1.0, 9: 0.5})],
    "clamped": [(10, 3, 4.0, 9, 0.0, {1: 1.0, 3: 0.5})],
    "series bitwise": [(24, 7, 8.0, 17, 0.1, {1: 1.0, 7: 0.1})],
    "series terms": [(12, 8, 3.0, 48, 0.1, {k: 1.0 / k for k in range(1, 9)})],
    "one level": [(24, 1, 8.0, 16, 0.0, {1: 1.0, 2: 0.5})],
    "trace at one": [(24, 7, 8.0, 64, 0.5, {7: 1.0})],
    "cross gram": [(10, 3, 4.0, 23, 0.1, {1: 1.0, 2: 0.25})],
    "symmetric gram": [(24, 3, 4.0, 515, 0.1, {1: 1.0, 3: 0.2})],
    "eigencoefficients": [(24, 3, 8.0, 40, 0.5, {2: 1.0})],
    "sorted blocks": [(24, 3, 8.0, 16, 0.0, {1: 1.0, 2: 0.25, 3: 1 / 9})],
    "residual": [(24, 2, 8.0, 8, 0.1, {1: 1.0, 5: 0.3})],
    "level sum": [(24, 7, 8.0, 128, 0.0, {k: k**-2.0 for k in range(1, 8)})],
    "blocked risk": [(10, 3, 4.0, n, 0.1, {1: 1.0, 2: 0.25}) for n in (296, 300)],
    "series entries": [(10, 3, 4.0, 300, 0.1, {1: 1.0})],
}


def check_sphere_oracles(monkeypatch, rows, budgets=None):
    """Every oracle on every row of ``rows``, the blocked ones at one block for the whole Gram and at each block
    budget of ``budgets``, by default the library's and 7 (8-row blocks).  A bound reads |got - want| <= bound *
    max(|want|, floor), so floor 1 on a reference of at most 1 makes it absolute; a zero reference must be met
    exactly.
    - harmonic dimensions: B_{d,k} = C(d+k-1, k) - C(d+k-3, k-2), exact Python ints;
    - basis: Q_0 = 1 exactly and Q_1 = sqrt(d) t 1e-12; orthonormal under sphere_quadrature, absolute 1e-8;
      Q_k(1) > 0 with Q_k(1)^2 = B_{d,k} 1e-8; ``series`` bitwise the out-of-place recurrence, at the clamped
      points 1 + 1e-13 and -1 - 1e-13 too and also into ``out``, and against the sum of its terms 1e-10;
    - kernel: its eigencoefficients recovered by quadrature, absolute 1e-8; h(1) = sum_k xi_k B_{d,k} 1e-10;
      h = d t on one-level rows, 1e-10 floored at 1e-2; cross_gram(u, b) against h(<u, b>/d) 1e-12, within
      1e-15 of one block and bitwise equal to it where no block has a single row; gram exactly symmetric, and
      against cross_gram(u, u) 1e-12 floored at 0.1 (within rtol 1e-12, atol 1e-13);
    - exact risk: each budget's against one block's 1e-12, evaluating as many ``series`` entries as the Gram,
      one series per upper-triangle row block of the most rows, a multiple of 8, that fit the budget (at n = 300
      and the default budget 104, 104 and 92 rows: 60 048 entries, not 90 000); one block's against the dense
      ||f||^2 - 2 alpha^T v + alpha^T H2 alpha + sigma^2 1e-14, of the risk at lam > 0 and, at lam = 0, where
      the four terms cancel (their magnitudes sum to 40 times the risk at d = 3, n = 23), of that sum;
    - model: sphere_spectrum's blocks are (xi_k, B_{d,k}) by decreasing xi_k with the target's level
      energies, levels past kmax go to the residual, and its risk matches a brentq level sum 1e-12.
    ``pytest -s`` prints each oracle's worst error.
    """
    default, whole, worst, entries, series = sphere._BLOCK_ELEMENTS, 2**62, {}, [], GegenbauerBasis.series
    budgets = (default, 7) if budgets is None else budgets

    def counted(self, coeffs, t, out=None):
        entries.append(np.size(t))
        return series(self, coeffs, t, out)

    def walked(call, *args):  # the call's result and the size of each series it evaluates
        entries.clear()
        return call(*args), entries.copy()

    def check(oracle, where, got, want, bound, floor=0.0):
        err = float(np.max(np.abs(np.subtract(got, want)) / np.maximum(np.abs(want), floor or np.finfo(float).tiny)))
        worst[oracle] = max(worst.get(oracle, 0.0), err)
        assert err <= bound, f"{oracle} at (d, levels, gap, n, lam) = {where}: relative error {err:.2e} > {bound:.0e}"

    monkeypatch.setattr(GegenbauerBasis, "series", counted)
    for d, levels, gap, n, lam, energies in rows:
        where, s2, degrees = (d, levels, gap, n, lam), 0.1, range(levels + 1)
        kern, target = kernel_from_gaps(d, levels, gap), SphereTarget(d, energies)
        basis, mults, dims = kern.basis, kern.multiplicities(), [dim_spherical(d, k) for k in degrees]
        assert all(type(b) is int for b in dims), where
        binomials = [math.comb(d + k - 1, k) - (k >= 2 and math.comb(d + k - 3, k - 2)) for k in degrees]
        assert dims == mults.tolist() == binomials, where

        x, w = sphere_quadrature(d)
        q = np.array([gegenbauer(basis, k, x) for k in degrees])
        assert np.array_equal(q[0], np.ones_like(x)), where
        check("Q_1 = sqrt(d) t", where, q[1], math.sqrt(d) * x, 1e-12)
        check("orthonormality", where, (q * w) @ q.T - np.eye(levels + 1), 0.0, 1e-8, 1.0)
        at_one = np.array([gegenbauer(basis, k, 1.0)[0] for k in degrees])
        assert np.all(at_one > 0), where
        check("Q_k(1)^2 = B_k", where, at_one**2, mults, 1e-8)
        rng = np.random.default_rng(d)
        coeffs = rng.uniform(0, 1, size=levels + 1)
        t = np.append(rng.uniform(-1, 1, size=200), [1.0 + 1e-13, -1.0 - 1e-13])
        # the recurrence as plain array expressions, with a fresh array per operation
        alpha, tc = (d - 2) / 2.0, np.clip(t, -1.0, 1.0)
        prev, cur = np.ones_like(tc), 2.0 * alpha * tc
        acc = coeffs[0] / basis.norms[0] * prev
        acc = acc + coeffs[1] / basis.norms[1] * cur
        for k in range(2, levels + 1):
            prev, cur = cur, (2.0 * (k + alpha - 1) * tc * cur - (k + 2 * alpha - 2) * prev) / k
            acc = acc + coeffs[k] / basis.norms[k] * cur
        assert np.array_equal(basis.series(coeffs, t), acc), where
        out = np.empty_like(t)
        assert basis.series(coeffs, t, out=out) is out and np.array_equal(out, acc), where
        check("series vs terms", where, acc, sum(c * gegenbauer(basis, k, t) for k, c in enumerate(coeffs)), 1e-10)

        h = h_values(kern, x)
        xi = [float(w @ (h * q[k])) / math.sqrt(dims[k]) for k in degrees]
        check("eigencoefficients", where, np.subtract(xi, kern.coeffs), 0.0, 1e-8, 1.0)
        check("h(1) = sum xi_k B_k", where, h_values(kern, np.ones(1)), kern.coeffs @ mults, 1e-10)
        if levels == 1:
            t5 = np.linspace(-1, 1, 5)
            check("h = d t", where, h_values(kern, t5), d * t5, 1e-10, 1e-2)

        u, b = sample_sphere(d, n, 5), sample_sphere(d, 9, 6)
        crosses, risks = {}, {}
        for budget in (whole, *budgets):
            monkeypatch.setattr(sphere, "_BLOCK_ELEMENTS", budget)
            gram, gram_entries = walked(kern.gram, u)
            assert np.array_equal(gram, gram.T), where
            check("gram vs cross_gram", where, gram, kern.cross_gram(u, u), 1e-12, 0.1)
            if budget == whole:
                fit = fit_krr(GramMatrix(gram), target(u), lam)
                h2 = SphereKernel(d, kern.coeffs**2).cross_gram(u, u)
            risks[budget], risk_entries = walked(exact_sphere_risk, fit, kern, target, s2, u)
            step = max(8, budget // n // 8 * 8)  # the most rows, a multiple of 8, whose products fit the budget
            upper = [min(step, n - start) * (n - start) for start in range(0, n, step)]
            assert risk_entries == gram_entries == upper, (where, budget)
            crosses[budget] = kern.cross_gram(u, b)
            check("cross_gram vs h", where, crosses[budget], h_values(kern, np.clip(u @ b.T / d, -1, 1)), 1e-12)
            one_row = any(r.stop - r.start == 1 for r in sphere._row_blocks(n, len(b)))
            assert one_row or np.array_equal(crosses[budget], crosses[whole]), (where, budget)
        check("cross_gram across budgets", where, [crosses[b] for b in budgets], crosses[whole], 1e-15)
        check("risk across budgets", where, [risks[b] for b in budgets], risks[whole], 1e-12)
        a = np.asarray(fit.alpha).ravel()
        v = sum(kern.coeffs[k] * target.level_values(k, u) for k in target.energies if k <= levels)
        terms = [target.total_energy, -2 * a @ v, a @ (h2 @ a), s2]
        check("risk vs dense H2", where, risks[whole], sum(terms), 1e-14, 0.0 if lam else float(np.sum(np.abs(terms))))

        model = sphere_spectrum(kern, target, NoiseModel(s2), n, lam)
        assert np.array_equal(model.spectrum.values, kern.coeffs[1:]), where
        assert np.array_equal(model.spectrum.multiplicities, mults[1:]), where
        assert np.array_equal(model.alignment.energies, [energies.get(k, 0.0) for k in degrees[1:]]), where
        residual = sum(e for k, e in energies.items() if k > levels)
        check("residual", where, model.alignment.residual_energy, residual, 1e-12)
        xis, bk, e = kern.coeffs[1:], mults[1:].astype(float), model.alignment.energies
        defect = lambda ls: n - lam / ls - float(np.sum(bk * xis / (xis + ls)))
        ls = brentq(defect, 1e-12, (lam + bk @ xis) / n, xtol=1e-15, rtol=1e-15)
        u2 = float(np.sum(bk * xis**2 / (xis + ls) ** 2)) / n
        direct = (float(np.sum(e * ls**2 / (xis + ls) ** 2)) + residual + s2) / (1 - u2)
        check("model risk vs level sum", where, deterministic_equivalents(model).risk, direct, 1e-12)
    print("worst relative error: " + ", ".join(f"{name} {err:.1e}" for name, err in worst.items()))


def family(name):
    """A test method that runs the rows of SPHERE_CASES[name] through check_sphere_oracles."""
    return lambda self, monkeypatch: check_sphere_oracles(monkeypatch, SPHERE_CASES[name])


class TestHarmonicDimensions:
    test_large_case_exact_integer = family("large degree")

    def test_low_degrees(self):
        for d in (3, 10, 24, 64):
            assert dim_spherical(d, 0) == 1
            assert dim_spherical(d, 1) == d

    def test_hand_values(self):
        assert dim_spherical(24, 2) == 299
        assert dim_spherical(24, 3) == 2576

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
    test_constant_and_linear = family("constant and linear")
    test_orthonormality = family("orthonormality")
    test_value_at_one_squares_to_dimension = family("value at one")
    test_clamps_near_boundary_and_rejects_outside = family("clamped")
    test_series_bitwise_matches_out_of_place_recurrence = family("series bitwise")
    test_series_matches_term_sum = family("series terms")


class TestSphereKernel:
    test_single_level_is_linear = family("one level")
    test_trace_identity_at_one = family("trace at one")
    test_cross_gram_streaming_matches_direct = family("cross gram")

    @pytest.mark.parametrize("budget", [7, 2**15])
    def test_gram_exactly_symmetric(self, monkeypatch, budget):
        # at n = 515 row blocks of a @ a.T need not be symmetric in the last bit (gemm edge tiles), so only
        # mirroring makes the Gram symmetric
        check_sphere_oracles(monkeypatch, SPHERE_CASES["symmetric gram"], (budget,))

    def test_gap_coefficients(self):
        kern = kernel_from_gaps(24, 7, 8.0)
        np.testing.assert_allclose(kern.coeffs[1:], 8.0 ** -(np.arange(7)), rtol=1e-15)
        assert kern.coeffs[0] == 0.0

    def test_huge_gap_suppresses_higher_levels(self):
        kern = kernel_from_gaps(24, 3, 1e12)
        assert kern.coeffs[2] <= 1e-12 and kern.coeffs[3] <= 1e-24

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
    test_round_trip_gap_kernel = family("eigencoefficients")


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
    test_blocks_sorted_with_alignment = family("sorted blocks")
    test_unlearnable_level_goes_to_residual = family("residual")
    test_risk_matches_independent_level_sum = family("level sum")


class TestExactRisk:
    test_streaming_matches_one_block = family("blocked risk")
    test_evaluates_as_many_series_entries_as_the_gram = family("series entries")

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
