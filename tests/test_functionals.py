import math
import sys
import tracemalloc
from collections import Counter

import exact
import numpy as np
import pytest

from krrdeteq import functionals
from krrdeteq.deteq import solve_effective_reg
from krrdeteq.functionals import (
    FeatureSample,
    IdentityMatrix,
    RiskMatrix,
    _factor,
    _gx_panels,
    _primal_resolvent,
    _probe_task,
    convergence_probe,
    deterministic_functionals,
    empirical_functionals,
    sample_gaussian_features,
)
from krrdeteq.seeds import derive_rng
from krrdeteq.spectrum import Spectrum, SpectrumError

from test_errors import NON_FINITE_FEATURES, check_rows


def reference_functionals(x, sigma_diag, lam, *a_dense):
    """Literal dense-matrix oracle via an explicit inverse: (phi1, phi2, phi3, phi4) for each test matrix."""
    n, p = x.shape
    r = np.linalg.inv(x.T @ x + lam * np.eye(p))
    s_half = np.diag(np.sqrt(sigma_diag))
    sigma = np.diag(sigma_diag)
    m1 = s_half @ r @ s_half
    m3 = s_half @ r @ sigma @ r @ s_half
    m4 = s_half @ r @ (x.T @ x / n) @ r @ s_half
    phi2 = np.trace((x.T @ x / n) @ r)
    return [(np.trace(a @ m1), phi2, np.trace(a @ m3), np.trace(a @ m4)) for a in a_dense]


def svd_functionals(x, sigma_diag, lam, u=None):
    """(phi1, phi2, phi3, phi4) at A = I (or at the RiskMatrix with beta = S^1/2 u) from the full SVD
    X = U diag(s) V^T, with s padded by zeros to p: R = V diag(d) V^T with d = 1 / (s^2 + lam),
    X^T X R = V diag(s^2 d) V^T and R X^T X R = V diag(s^2 d^2) V^T.  Every sum has terms of one
    sign, so no functional cancels, at any lam."""
    n, p = x.shape
    s2 = np.zeros(p)
    _, s, vt = np.linalg.svd(x)
    s2[: s.size] = s * s
    d = 1.0 / (s2 + lam)
    phi2 = float(np.sum(s2 * d)) / n
    if u is None:
        v2 = vt.T**2
        m = (np.sqrt(sigma_diag)[:, None] * vt.T * d) @ (vt * np.sqrt(sigma_diag))  # S^1/2 R S^1/2
        return float(sigma_diag @ (v2 @ d)), phi2, float(np.sum(m * m)), float(sigma_diag @ (v2 @ (s2 * d * d))) / n
    vu = vt @ u
    ru = vt.T @ (vu * d)
    return float(vu @ (vu * d)), phi2, float(sigma_diag @ (ru * ru)), float(np.sum(s2 * (vu * d) ** 2)) / n


# rows (n, p, lambdas) or (n, p, lambdas, j), grouped by the test that runs them, each through every oracle of
# check_functional_oracles; p <= n takes the primal route, larger p the dual.  A row's j sets the RiskMatrix's beta
# to e_j, the covariance direction j (0 the largest); without one, beta is a standard normal draw
FUNCTIONAL_CASES = {
    "primal and dual": [(40, 120, [0.3]), (20, 120, [0.3]), (120, 120, [0.3]), (119, 120, [0.3]), (6, 8, [0.9])],
    "risk matrix": [(10, 15, [0.3])],
    "dual trace": [(9, 30, [0.3])],
    "identity": [(12, 5, [0.7]), (100, 300, [0.7]), (4, 40, [0.7]), (20, 300, [0.7])],
    # then two primal rows where p - lam Tr(R) keeps few bits of Tr(X^T X R): a phi2 or identity phi4 that
    # read it, or phi1 - lam Tr(S R^2), was 2.9e-11 off svd_functionals at (800, 200, 3e6)
    "large lambda": [(n, 50, [float(lam) for lam in 10.0 ** np.arange(-2, 15)]) for n in (5, 20, 200)]
    + [(800, 200, [3e6]), (60, 50, [1e6])],
    "primal resolvent": [(12, 5, [0.3])],
    "dual resolvent": [(10, 60, [0.3])],
    "small lambda": [(5, 50, [1e-8]), (20, 50, [1e-8, 1e-12, 1e-17])],
    # beta = e_p, the smallest-variance direction, at large lam on the primal route, where phi1 - lam ||Ru||^2
    # would cancel as the RiskMatrix phi4
    "smallest direction": [(200, 50, [1e4, 1e6, 3e6], 49)],
}


def check_functional_oracles(monkeypatch, rows, inverse=True):
    """Every oracle on every (n, p, lam) of ``rows``, with 7-row blocks: a primal R of p >= 15 is mirrored
    in three or more blocks, ||S^1/2 R S^1/2||_F^2 reduces over two or more row blocks of R at p >= 8,
    the primal structured phi2 and phi4 over two or more row blocks of X at n >= 8, the dual GX is solved
    in two or more 7-column panels at p >= 8, and the dual ||S^1/2 R S^1/2||_F^2 reduces over three or
    more 7 x 7 tiles of X^T GX at p >= 8, one of them off the diagonal.

    X draws power_law(2.0, p) at seed 0; beta is the p standard normals that default_rng(1) draws after
    its first 2 p^2, and a row that names j replaces it by e_j.  Every bound is relative,
    |got - want| <= bound * (|want| + floor):
    - primal rows: the library's R (_primal_resolvent) exactly symmetric, and against
      np.linalg.inv(X^T X + lam) 1e-10 with floor 3e-4 / lam (atol 1e-13 at lam = 0.3);
    - dual rows: the library's GX (the panels of _gx_panels) against X np.linalg.inv(X^T X + lam) 1e-10
      with the same floor;
    - IdentityMatrix against reference_functionals at eye 1e-9, and against svd_functionals 1e-12;
    - RiskMatrix against reference_functionals at its outer form 1e-9, and against svd_functionals 1e-9:
      the dual rows at small lam reach 8.8e-13.
    ``inverse=False`` leaves out the oracles built on np.linalg.inv (R or GX against inv, and
    reference_functionals): at small lam the inverse of X^T X + lam, of condition s_max^2 / lam, is itself
    off in its leading digits (reference_functionals' phi4 by 8e-2 at (5, 50, 1e-8)), so there the
    cancellation-free svd_functionals is the oracle.
    """
    monkeypatch.setattr(functionals, "_BLOCK", 7)
    worst = {}

    @np.errstate(divide="ignore", invalid="ignore")  # a zero reference reads as an infinite error
    def check(oracle, where, got, want, bound, floor=0.0):
        err = float(np.max(np.abs(np.subtract(got, want)) / (np.abs(want) + floor)))
        worst[oracle] = max(worst.get(oracle, 0.0), err)
        assert err <= bound, f"{oracle} at (n, p, lam) = {where}: relative error {err:.2e} > {bound:.0e}"

    for n, p, lams, *direction in rows:
        s = Spectrum.power_law(2.0, p)
        sigma, sample = s.expand(), sample_gaussian_features(s, n, 0)
        x = sample.matrix
        beta = np.random.default_rng(1).standard_normal(2 * p * p + p)[2 * p * p :]
        if direction:
            beta = np.eye(1, p, direction[0]).ravel()
        w, u = beta / sigma, beta / np.sqrt(sigma)
        for lam in lams:
            where = (n, p, lam)
            phi = {"I": empirical_functionals(sample, lam, IdentityMatrix(p))}
            phi["RiskMatrix"] = empirical_functionals(sample, lam, RiskMatrix(beta))
            if p <= n:
                r = _primal_resolvent(x, lam)
                assert np.array_equal(r, r.T), f"primal R not symmetric at {where}"
            if inverse:
                inv = np.linalg.inv(x.T @ x + lam * np.eye(p))
                if p <= n:
                    check("R vs inv", where, r, inv, 1e-10, 3e-4 / lam)
                else:
                    gx = np.empty((n, p))
                    for i0, i1, panel in _gx_panels(x, _factor(x, lam), np.empty(p)):
                        gx[:, i0:i1] = panel
                    check("GX vs inv", where, gx, x @ inv, 1e-10, 3e-4 / lam)
                for name, ref in zip(phi, reference_functionals(x, sigma, lam, np.eye(p), np.outer(w, w))):
                    check(f"{name} vs reference", where, phi[name], ref, 1e-9)
            check("I vs svd", where, phi["I"], svd_functionals(x, sigma, lam), 1e-12)
            check("RiskMatrix vs svd", where, phi["RiskMatrix"], svd_functionals(x, sigma, lam, u), 1e-9)
    print("worst relative error: " + ", ".join(f"{name} {err:.1e}" for name, err in worst.items()))


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
        phi = empirical_functionals(sample, 2.0, IdentityMatrix(5))
        assert phi[0] == pytest.approx(5 / 2.0, rel=1e-12)
        assert phi[1] == pytest.approx(0.0, abs=1e-14)
        assert phi[2] == pytest.approx(5 / 4.0, rel=1e-12)
        assert phi[3] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("a", [IdentityMatrix(5), RiskMatrix(np.ones(5))], ids=["identity", "risk"])
    def test_sample_without_rows_raises_before_blas(self, capfd, a):
        """A 0 x p sample, which the sampler draws at n = 0, raises SpectrumError before any BLAS call, so no BLAS error
        reaches stderr."""
        sample = sample_gaussian_features(Spectrum.power_law(2.0, 5), 0, 0)
        assert sample.matrix.shape == (0, 5)
        with pytest.raises(SpectrumError, match="at least one row"):
            empirical_functionals(sample, 0.5, a)
        assert capfd.readouterr().err == ""

    def test_scalar_instance(self):
        s = Spectrum.from_blocks([(1.0, 1)])
        sample = FeatureSample(matrix=np.array([[2.0]]), covariance=s)
        phi = empirical_functionals(sample, 1.0, IdentityMatrix(1))
        np.testing.assert_allclose(phi, [0.2, 0.8, 0.04, 0.16], rtol=1e-12)

    def test_zero_test_matrix(self, rng):
        s = Spectrum.power_law(1.0, 6)
        sample = sample_gaussian_features(s, 4, rng)
        phi = empirical_functionals(sample, 0.5, RiskMatrix(np.zeros(6)))
        assert phi[0] == phi[2] == phi[3] == 0.0
        assert phi[1] > 0

    def test_matches_oracles_primal_and_dual(self, monkeypatch):
        check_functional_oracles(monkeypatch, FUNCTIONAL_CASES["primal and dual"])

    def test_risk_matrix_matches_dense_equivalent(self, monkeypatch):
        check_functional_oracles(monkeypatch, FUNCTIONAL_CASES["risk matrix"])

    def test_dual_form_trace_identity(self, monkeypatch):
        check_functional_oracles(monkeypatch, FUNCTIONAL_CASES["dual trace"])

    @pytest.mark.parametrize("row", FUNCTIONAL_CASES["identity"], ids=lambda row: f"{row[0]}-{row[1]}")
    def test_identity_matrix_matches_oracles(self, monkeypatch, row):
        check_functional_oracles(monkeypatch, [row])

    @pytest.mark.parametrize("row", FUNCTIONAL_CASES["large lambda"], ids=lambda row: str(row[0]))
    def test_large_lambda_matches_svd_oracle(self, monkeypatch, row):
        check_functional_oracles(monkeypatch, [row])

    @pytest.mark.parametrize("row", FUNCTIONAL_CASES["primal resolvent"], ids=lambda row: f"{row[0]}-{row[1]}")
    def test_primal_resolvent_is_exact_symmetric_inverse(self, monkeypatch, row):
        check_functional_oracles(monkeypatch, [row])

    def test_dual_resolvent_matches_inverse(self, monkeypatch):
        check_functional_oracles(monkeypatch, FUNCTIONAL_CASES["dual resolvent"])

    @pytest.mark.parametrize("row", FUNCTIONAL_CASES["small lambda"], ids=lambda row: f"{row[0]}-{row[1]}")
    def test_small_lambda_matches_svd_oracle(self, monkeypatch, row):
        check_functional_oracles(monkeypatch, [row], inverse=False)

    @pytest.mark.parametrize("row", FUNCTIONAL_CASES["smallest direction"], ids=lambda row: f"{row[0]}-{row[1]}")
    def test_primal_risk_matrix_smallest_direction(self, monkeypatch, row):
        """beta = e_p at large lam on the primal route: phi4 reads ||X R u||^2; phi1 - lam ||Ru||^2
        would be 2.6e-9 off svd_functionals at lam = 3e6."""
        check_functional_oracles(monkeypatch, [row])

    @pytest.mark.parametrize("a", [IdentityMatrix(600), RiskMatrix(np.ones(600))], ids=["identity", "risk"])
    def test_structured_dual_forms_no_p_by_p_array(self, monkeypatch, a):
        """At p > n the structured forms read X R = GX and never form R: the peak allocation
        stays under one p x p array of doubles.  GX is never held whole either: with 7-column
        panels the peak stays under one n x p array of doubles, which GX alone would reach.
        What they hold is the n x n factor (scipy's dsyrk result, factored in place), one reused
        n x _BLOCK panel of GX and, for the identity, one reused n x _BLOCK column buffer of X
        and one reused _BLOCK x _BLOCK tile of X^T GX, beside O(p) vectors: with 7-column panels
        the identity's peak stays under n^2 + 2 n _BLOCK + _BLOCK^2 + 8 p doubles, which a
        _BLOCK x p slab of X^T GX would exceed."""
        n, p = 40, 600
        sample = sample_gaussian_features(Spectrum.power_law(2.0, p), n, 0)

        def peak_bytes():
            tracemalloc.start()
            try:
                empirical_functionals(sample, 0.3, a)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = peak_bytes()
        assert peak < p * p * 8, f"peak allocation {peak} bytes"
        block = 7
        monkeypatch.setattr(functionals, "_BLOCK", block)
        peak = peak_bytes()
        assert peak < n * p * 8, f"peak allocation {peak} bytes with 7-column panels"
        if isinstance(a, IdentityMatrix):
            bound = 8 * (n * n + 2 * n * block + block * block + 8 * p)
            assert peak < bound, f"peak allocation {peak} bytes with 7-column panels, over {bound}"

    def test_dual_route_runs_on_scipy_blas(self, monkeypatch):
        """The dual route's matrix products run on scipy's OpenBLAS, beside its Cholesky calls: X X^T is
        one dsyrk per call for both test-matrix kinds, and the identity forms each tile of X^T GX's lower
        triangle with one dgemm, T (T + 1) / 2 of them with T = ceil(p / _BLOCK).  The RiskMatrix form
        takes one dgemv per panel for GX u and five for Ru and its refinement, T + 5 in all.  numpy's
        ``@`` in their place would bring numpy's own OpenBLAS thread pool back into the loop.  The
        primal route's X^T X is the same one dsyrk."""
        n, p, block = 9, 30, 7
        sample = sample_gaussian_features(Spectrum.power_law(2.0, p), n, 0)
        primal = sample_gaussian_features(Spectrum.power_law(2.0, n), p, 0)  # p rows of n features
        monkeypatch.setattr(functionals, "_BLOCK", block)
        cases = [(sample, a) for a in (IdentityMatrix(p), RiskMatrix(np.ones(p)))]
        cases.append((primal, IdentityMatrix(n)))
        expected = [empirical_functionals(x, 0.3, a) for x, a in cases]
        calls = Counter()

        def counted(name):
            real = getattr(functionals, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return call

        for name in ("dsyrk", "dgemm", "dgemv"):
            monkeypatch.setattr(functionals, name, counted(name))
        panels = math.ceil(p / block)
        products = ((panels * (panels + 1) // 2, 0), (0, panels + 5), (0, 0))
        for (x, a), want, counts in zip(cases, expected, products):
            calls.clear()
            assert empirical_functionals(x, 0.3, a) == want
            assert (calls["dsyrk"], calls["dgemm"], calls["dgemv"]) == (1, *counts), (type(a).__name__, x.matrix.shape)

    @pytest.mark.parametrize("n", [200, 800])
    def test_dual_risk_matrix_at_probe_size(self, n):
        """The probe's rank-one form (beta = e_1 on the top covariance direction, which lies mostly in
        X's row space) at its own size: Ru refined once keeps phi1-phi4 within 1e-13 of svd_functionals
        (the unrefined (u - X^T GX u) / lam is off by 4e-12 in phi1 and 8e-12 in phi3 at n = 800)."""
        s = Spectrum.power_law(2.0, 2000)
        sigma, sample = s.expand(), sample_gaussian_features(s, n, 1)
        beta = np.eye(1, 2000).ravel()
        phi = empirical_functionals(sample, 0.1, RiskMatrix(beta))
        np.testing.assert_allclose(phi, svd_functionals(sample.matrix, sigma, 0.1, beta / np.sqrt(sigma)), rtol=1e-13, atol=0)


class TestDeterministicFunctionals:
    def test_identity_matrix_psi2_isotropic(self):
        s = Spectrum.from_blocks([(1.0, 200)])
        psi = deterministic_functionals(s, 100, 1.0, IdentityMatrix(200))
        ls = (101 + math.sqrt(10601)) / 200
        assert psi[1] == pytest.approx(1 - 1 / (100 * ls), rel=1e-10)

    def test_identity_matrix_equals_dense_identity(self):
        """psi1-psi4 of IdentityMatrix against those of A = I in the 80-digit exact.functionals, at the exact fixed point."""
        s = Spectrum.power_law(1.5, 300)
        blocks = list(zip(s.values.tolist(), s.multiplicities.tolist()))
        for n, lam in ((50, 0.2), (500, 1e-3)):
            psi = deterministic_functionals(s, n, lam, IdentityMatrix(300))
            want = [float(v) for v in exact.functionals(exact.fixed_point(blocks, n, lam), blocks, n, lam)]
            np.testing.assert_allclose(psi, want, rtol=1e-14)

    def test_identity_predictions_survive_underflowing_squares(self):
        """sigma^2 and (mu sigma + lam)^2 underflow at 1e-200; the predictions are scale-free,
        so they equal those at sigma = lam = 1, and the values given to 1e-5."""
        tiny = deterministic_functionals(Spectrum.from_blocks([(1e-200, 50)]), 10, 1e-200, IdentityMatrix(50))
        unit = deterministic_functionals(Spectrum.from_blocks([(1.0, 50)]), 10, 1.0, IdentityMatrix(50))
        np.testing.assert_allclose(tiny, unit, rtol=1e-14)
        np.testing.assert_allclose(tiny, (40.2425, 0.975753, 40.0073, 0.0235207), rtol=1e-5)

    def test_risk_matrix_squares_ratios(self):
        """beta^2 and sigma^2 are subnormal at 1e-160; every prediction takes ratios near 1 instead."""
        tiny = deterministic_functionals(Spectrum.from_blocks([(1e-160, 50)]), 10, 1e-160, RiskMatrix(1e-160 * np.eye(1, 50)))
        unit = deterministic_functionals(Spectrum.from_blocks([(1.0, 50)]), 10, 1.0, RiskMatrix(np.eye(1, 50)))
        np.testing.assert_allclose(tiny, unit, rtol=1e-14)

    def test_rejects_size_mismatch(self, monkeypatch):
        """A test matrix of the wrong size, or of a type other than IdentityMatrix and RiskMatrix, raises its
        SpectrumError before any fixed-point solve: at n = rank = 10 and lam = 0, which has no positive fixed
        point, the test matrix is still what is reported."""
        solves = []
        real = functionals.solve_effective_reg
        monkeypatch.setattr(functionals, "solve_effective_reg", lambda *args: solves.append(args) or real(*args))
        power = (Spectrum.power_law(2.0, 12), 6, 0.3)
        ridgeless = (Spectrum.from_blocks([(1.0, 10)]), 10, 0.0)
        mismatch, dense = "^test matrix dimension mismatch$", "^test matrix must be an IdentityMatrix or a RiskMatrix, not ndarray$"
        cases = [
            (power, IdentityMatrix(11), mismatch),
            (power, RiskMatrix(np.ones(13)), mismatch),
            (ridgeless, IdentityMatrix(3), mismatch),
            (power, np.eye(12), dense),
            (ridgeless, np.eye(10), dense),
        ]
        for (spectrum, n, lam), a, message in cases:
            with pytest.raises(SpectrumError, match=message):
                deterministic_functionals(spectrum, n, lam, a)
        assert solves == []
        deterministic_functionals(*power, IdentityMatrix(12))
        assert len(solves) == 1

    def test_zero_matrix(self):
        s = Spectrum.from_blocks([(1.0, 10)])
        psi = deterministic_functionals(s, 5, 1.0, RiskMatrix(np.zeros(10)))
        assert psi[0] == psi[2] == psi[3] == 0.0

    def test_exact_identities(self, rng):
        s = Spectrum.power_law(2.0, 80)
        n, lam = 20, 0.25
        eff = solve_effective_reg(s, n, lam)
        for a in (IdentityMatrix(80), RiskMatrix(rng.standard_normal(80))):
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
    @pytest.mark.parametrize("case", NON_FINITE_FEATURES)
    def test_non_finite_features(self, case):
        """A NaN or inf in X, or an entry whose square overflows: SpectrumError names the Gram that is factored."""
        check_rows(NON_FINITE_FEATURES[case])


class TestConvergenceProbe:
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
        # one replication: |phi_j - psi_j| / psi_j on the sample its generator draws, against the psi it is given
        s = Spectrum.power_law(2.0, 40)
        psi = deterministic_functionals(s, 30, 0.5, IdentityMatrix(40))
        errs = _probe_task(s, 0.5, IdentityMatrix(40), {30: psi}.get, 30, derive_rng(3, 101, 0, 1))
        sample = sample_gaussian_features(s, 30, derive_rng(3, 101, 0, 1))
        phi = empirical_functionals(sample, 0.5, IdentityMatrix(40))
        assert errs == tuple(abs(emp - pred) / pred for emp, pred in zip(phi, psi))
        # the probe's replication 0 at grid index 0 draws from the stream (seed, 101, 0, 0)
        rows = convergence_probe(s, [30], 0.5, reps=1, seed=3)
        first = _probe_task(s, 0.5, IdentityMatrix(40), {30: psi}.get, 30, derive_rng(3, 101, 0, 0))
        assert [row["median_rel_err"] for row in rows] == list(first)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_closed_forms_solved_once_per_grid_point(self, monkeypatch, threads):
        """psi depends on (spectrum, n, lambda) alone, so the replications of a grid point share one solve.

        With more workers than cores and a short switch interval, workers that reach a grid point
        together may each solve it, but the rows stay those of one worker."""
        calls = Counter()
        psi = functionals.deterministic_functionals

        def counted(spectrum, n, lam, a):
            calls[n] += 1
            return psi(spectrum, n, lam, a)

        s = Spectrum.power_law(2.0, 30)
        expected = convergence_probe(s, [5, 10], 0.5, reps=3, seed=11)
        monkeypatch.setattr(functionals, "deterministic_functionals", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert convergence_probe(s, [5, 10], 0.5, reps=3, seed=11, threads=threads) == expected
        finally:
            sys.setswitchinterval(interval)
        if threads == 1:
            assert calls == {5: 1, 10: 1}
        else:
            assert set(calls) == {5, 10} and max(calls.values()) <= 3

    def test_failing_closed_forms_fail_every_replication(self, monkeypatch):
        """A raise is not cached: each replication calls psi again, after its own phi, and the first names the error."""
        calls, order = [], []
        phi = functionals.empirical_functionals

        def empirical(sample, lam, a):
            order.append("phi")
            return phi(sample, lam, a)

        def failing(spectrum, n, lam, a):
            calls.append(n)
            order.append("psi")
            raise SpectrumError("psi3 is not finite")

        monkeypatch.setattr(functionals, "empirical_functionals", empirical)
        monkeypatch.setattr(functionals, "deterministic_functionals", failing)
        message = r"^functional probe failed at n = 5: SpectrumError: psi3 is not finite$"
        with pytest.raises(SpectrumError, match=message):
            convergence_probe(Spectrum.power_law(2.0, 30), [5, 10], 0.5, reps=3)
        assert calls == [5, 5, 5, 10, 10, 10]
        assert order == ["phi", "psi"] * 6

    def test_bad_choice_raises_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(functionals, "sample_gaussian_features", lambda *args: draws.append(args))
        with pytest.raises(SpectrumError, match="unknown test-matrix choice"):
            convergence_probe(Spectrum.power_law(2.0, 10), [4, 8], 0.5, a_choice="bogus", reps=2)
        with pytest.raises(SpectrumError, match="unknown test-matrix choice"):
            convergence_probe(Spectrum.power_law(2.0, 10), [4, 8], 0.5, a_choice=np.eye(9), reps=2)
        assert draws == []

    @pytest.mark.parametrize(
        "grid, threads, message",
        [([4, 8], 0, "threads"), ([4, 8], -3, "threads"), ([0, 8], 1, "n grid"), ([-2, 8], 2, "n grid")],
        ids=["threads 0", "threads -3", "n 0", "n -2"],
    )
    def test_bad_threads_or_n_raises_before_any_draw(self, monkeypatch, capfd, grid, threads, message):
        draws = []
        monkeypatch.setattr(functionals, "sample_gaussian_features", lambda *args: draws.append(args))
        with pytest.raises(SpectrumError, match=message):
            convergence_probe(Spectrum.power_law(2.0, 10), grid, 0.5, reps=2, threads=threads)
        assert draws == []
        assert capfd.readouterr().err == ""

