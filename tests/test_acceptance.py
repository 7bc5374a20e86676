"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Each criterion is a separate test with its stated tolerance and runtime
budget pinned.  Statistical criteria run at fixed seeds so the suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from krrdeteq.deteq import deterministic_equivalents, solve_effective_reg
from krrdeteq.estimation import decomposition_to_model, estimate_spectrum
from krrdeteq.functionals import (
    RiskMatrix,
    convergence_probe,
    deterministic_functionals,
    sample_gaussian_features,
)
from krrdeteq.harness import ExperimentConfig, run_experiment
from krrdeteq.krr import GramMatrix, fit_krr, linear_sweep
from krrdeteq.krr import test_error_monte_carlo as monte_carlo_risk
from krrdeteq.seeds import derive_rng
from krrdeteq.sphere import (
    GegenbauerBasis,
    SphereTarget,
    dim_spherical,
    exact_sphere_risk,
    kernel_from_gaps,
    sample_sphere,
)
from krrdeteq.spectrum import Alignment, ModelSpec, NoiseModel, Spectrum

from conftest import gegenbauer, isotropic_effective_reg, random_spectrum, sphere_quadrature

THREADS = 2


def report(name: str, ok: bool, elapsed: float, detail: str) -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")


def power_law_setup(seed, p=2000, exponent=2.0):
    spectrum = Spectrum.power_law(exponent, p)
    beta = derive_rng(seed, 7).standard_normal(p)
    beta /= np.linalg.norm(beta)
    theta = beta / np.sqrt(spectrum.expand())
    alignment = Alignment(beta**2)
    return spectrum, beta, theta, alignment


def test_a1_fixed_point_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_cert = 0.0
    for i in range(100):
        s = random_spectrum(rng)
        n = int(rng.integers(1, 400))
        lam = float(rng.uniform(0.0, 10.0)) if i % 4 else 0.0
        if lam == 0.0:
            if s.total_rank < 2:
                lam = float(rng.uniform(0.1, 10.0))
            elif s.total_rank <= n:
                n = s.total_rank - 1
        eff = solve_effective_reg(s, n, lam)
        t1 = float(np.dot(s.multiplicities, s.values / (s.values + eff.lambda_star)))
        cert = abs(n - (lam / eff.lambda_star if lam > 0 else 0.0) - t1) / n
        worst_cert = max(worst_cert, cert)
    worst_iso = 0.0
    for _ in range(100):
        xi = float(rng.uniform(1e-6, 1.0))
        p = int(rng.integers(1, 3000))
        n = int(rng.integers(1, 1500))
        lam = float(rng.uniform(1e-9, 10.0))
        got = solve_effective_reg(Spectrum.from_blocks([(xi, p)]), n, lam).lambda_star
        want = isotropic_effective_reg(xi, p, n, lam)
        worst_iso = max(worst_iso, abs(got - want) / want)
    elapsed = time.monotonic() - start
    ok = worst_cert <= 1e-12 and worst_iso <= 1e-10 and elapsed < 1.0
    report(
        "A1 fixed-point",
        ok,
        elapsed,
        f"worst certificate {worst_cert:.2e} (tol 1e-12), worst isotropic gap {worst_iso:.2e} (tol 1e-10)",
    )
    assert worst_cert <= 1e-12
    assert worst_iso <= 1e-10
    assert elapsed < 1.0


def test_a2_algebraic_identities():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(40):
        s = random_spectrum(rng, max_blocks=30)
        n = int(rng.integers(2, 300))
        lam = float(rng.uniform(1e-3, 5.0))
        s2 = float(rng.uniform(0.0, 1.0))
        al = Alignment(rng.uniform(0, 1, size=s.n_blocks), residual_energy=float(rng.uniform(0, 0.3)))
        de = deterministic_equivalents(ModelSpec(n=n, lam=lam, spectrum=s, alignment=al, noise=NoiseModel(s2)))
        eff = de.effective
        worst = max(worst, abs(de.risk - (de.bias + de.variance + s2)) / de.risk)
        worst = max(worst, abs(de.train - lam**2 * de.stieltjes**2 * de.risk) / max(de.train, 1e-300))
        worst = max(worst, abs(eff.upsilon1 - (1 - lam / (n * eff.lambda_star))))
        p = s.total_rank
        if p <= 4000:
            beta = rng.standard_normal(p)
            for a in (np.eye(p), RiskMatrix(beta)):
                psi = deterministic_functionals(s, n, lam, a)
                worst = max(worst, abs(psi[1] - (1 - lam / (n * eff.lambda_star))))
                worst = max(worst, abs(psi[3] / psi[2] - (eff.mu_star / n) ** 2) / (eff.mu_star / n) ** 2)
        for c in (0.2, 5.0):
            scaled = deterministic_equivalents(
                ModelSpec(n=n, lam=c * lam, spectrum=Spectrum(c * s.values, s.multiplicities), alignment=al, noise=NoiseModel(s2))
            )
            worst = max(worst, abs(scaled.risk - de.risk) / de.risk)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report("A2 identities", ok, elapsed, f"worst relative defect {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_a3_concentrated_features_agreement():
    start = time.monotonic()
    seed, lam, s2, reps = 5, 0.01, 0.25, 20
    spectrum, beta, theta, alignment = power_law_setup(seed)
    medians = {}
    for n in (100, 400):
        pred = deterministic_equivalents(
            ModelSpec(n=n, lam=lam, spectrum=spectrum, alignment=alignment, noise=NoiseModel(s2))
        ).risk
        rel = []
        for rep in range(reps):
            rng = derive_rng(seed, 1, n, rep)
            sample = sample_gaussian_features(spectrum, n, rng)
            y = sample.matrix @ theta + math.sqrt(s2) * rng.standard_normal(n)
            rows = linear_sweep(sample, theta, y, [lam], noise_variance=s2)
            rel.append(abs(rows[0]["test_error"] - pred) / pred)
        medians[n] = float(np.median(rel))
    ratio = medians[400] / medians[100]
    elapsed = time.monotonic() - start
    ok = medians[400] <= 0.15 and 0.3 <= ratio <= 0.9 and elapsed < 120
    report(
        "A3 concentrated features",
        ok,
        elapsed,
        f"median rel err n=400: {medians[400]:.4f} (tol 0.15), decay ratio {ratio:.3f} (range [0.3, 0.9])",
    )
    assert medians[400] <= 0.15
    assert 0.3 <= ratio <= 0.9
    assert elapsed < 120


def test_a4_gcv_uniform_consistency():
    start = time.monotonic()
    seed, s2, n, reps = 5, 0.25, 400, 20
    spectrum, beta, theta, alignment = power_law_setup(seed)
    grid = np.geomspace(1e-4, 1e2, 20)
    within = 0
    opt_ratios = []
    for rep in range(reps):
        rng = derive_rng(seed, 3, rep)
        sample = sample_gaussian_features(spectrum, n, rng)
        y = sample.matrix @ theta + math.sqrt(s2) * rng.standard_normal(n)
        rows = linear_sweep(sample, theta, y, grid, noise_variance=s2)
        gcvs = np.array([row["gcv"] for row in rows])
        tests = np.array([row["test_error"] for row in rows])
        within += int(np.max(np.abs(gcvs / tests - 1)) <= 0.25)
        opt_ratios.append(tests[int(np.argmin(gcvs))] / tests.min())
    median_ratio = float(np.median(opt_ratios))
    elapsed = time.monotonic() - start
    ok = within >= 18 and median_ratio <= 1.1 and elapsed < 120
    report(
        "A4 GCV consistency",
        ok,
        elapsed,
        f"{within}/20 reps with sup |GCV/R - 1| <= 0.25 (need >= 18), "
        f"median R(lambda_hat)/min R = {median_ratio:.4f} (tol 1.1)",
    )
    assert within >= 18
    assert median_ratio <= 1.1
    assert elapsed < 120


def test_a5_sphere_learning_curve():
    """The shipped sphere_curve runner, at its default one worker thread: BLAS already uses the cores."""
    start = time.monotonic()
    config = ExperimentConfig.from_dict(
        {"kind": "sphere_curve", "d": 24, "levels": 7, "gap": 8.0, "noise_variance": 0.1, "lambda": 0.0,
         "n_grid": [8, 16, 32, 64, 128, 256, 512, 1024], "reps": 20, "seed": 3}
    )
    rows = [(r["n"], r["prediction"], r["empirical_mean"], r["empirical_std"]) for r in run_experiment(config).rows]
    bad = [
        (n, abs(mean - pred) / pred, std / mean)
        for n, pred, mean, std in rows
        if n >= 64 and (abs(mean - pred) / pred > 0.2 or std / mean > 0.25)
    ]
    worst_rel = max(abs(mean - pred) / pred for n, pred, mean, std in rows if n >= 64)
    worst_disp = max(std / mean for n, pred, mean, std in rows if n >= 64)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 300
    report(
        "A5 sphere curve",
        ok,
        elapsed,
        f"n >= 64: worst |mean-R_n|/R_n = {worst_rel:.3f} (tol 0.20), worst std/mean = {worst_disp:.3f} (tol 0.25)",
    )
    assert not bad
    assert elapsed < 300


def test_a6_functional_convergence():
    start = time.monotonic()
    spectrum = Spectrum.power_law(2.0, 2000)
    lam, reps, seed = 0.1, 20, 0
    summary = []
    ok = True
    for label, choice in (("identity", "identity"), ("rank-one risk", "rank_one")):
        rows = convergence_probe(spectrum, [200, 800], lam, a_choice=choice, reps=reps, seed=seed, threads=THREADS)
        med = {(r["n"], r["functional_index"]): r["median_rel_err"] for r in rows}
        for j in range(1, 5):
            ratio = med[(800, j)] / med[(200, j)]
            good = med[(800, j)] < med[(200, j)] and 0.25 <= ratio <= 0.9
            ok = ok and good
            summary.append(f"{label} j={j}: {ratio:.2f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 180
    report("A6 functional convergence", ok, elapsed, "decay ratios (range [0.25, 0.9]): " + ", ".join(summary))
    assert ok
    assert elapsed < 180


def test_a7_sphere_machinery():
    start = time.monotonic()
    # orthonormality and values at 1
    worst_orth, worst_q1 = 0.0, 0.0
    for d in (10, 24):
        basis = GegenbauerBasis(d, 10)
        x, w = sphere_quadrature(d)
        vals = np.vstack([gegenbauer(basis, k, x) for k in range(11)])
        gram = (vals * w) @ vals.T
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(11)).max()))
        for k in range(11):
            q1 = float(gegenbauer(basis, k, 1.0)[0])
            worst_q1 = max(worst_q1, abs(q1**2 - dim_spherical(d, k)) / dim_spherical(d, k))
    # addition formula by Monte Carlo at 1e5 samples
    d = 24
    basis = GegenbauerBasis(d, 6)
    rng = np.random.default_rng(707)
    u1, u2 = sample_sphere(d, 2, rng)
    u = sample_sphere(d, 100_000, rng)
    t1 = np.clip(u @ u1 / d, -1, 1)
    t2 = np.clip(u @ u2 / d, -1, 1)
    t12 = float(np.clip(u1 @ u2 / d, -1, 1))
    addition_ok = True
    for j, k in ((1, 1), (3, 3), (2, 4)):
        prod = gegenbauer(basis, j, t1) * gegenbauer(basis, k, t2)
        se = float(prod.std(ddof=1)) / math.sqrt(len(prod))
        expected = float(gegenbauer(basis, k, t12)[0]) / math.sqrt(dim_spherical(d, k)) if j == k else 0.0
        addition_ok = addition_ok and abs(float(prod.mean()) - expected) <= 3 * se
    # exact risk vs Monte Carlo across five random ridge fits
    kernel = kernel_from_gaps(d, 7, 8.0)
    target = SphereTarget(d, {k: k**-2.0 for k in range(1, 8)})
    risk_ok = True
    for rep in range(5):
        rng = derive_rng(909, rep)
        n = int(rng.integers(48, 160))
        points = sample_sphere(d, n, rng)
        y = target(points) + math.sqrt(0.1) * rng.standard_normal(n)
        lam = float(rng.uniform(0.0, 1.0)) if rep % 2 else 0.0
        fit = fit_krr(GramMatrix(kernel.gram(points)), y, lam)
        exact = exact_sphere_risk(fit, kernel, target, 0.1, points)
        mc, se = monte_carlo_risk(
            fit, kernel.cross_gram, target, 0.1, points, sample_sphere(d, 20_000, rng)
        )
        risk_ok = risk_ok and abs(mc - exact) <= 3 * se
    elapsed = time.monotonic() - start
    ok = worst_orth <= 1e-8 and worst_q1 <= 1e-8 and addition_ok and risk_ok and elapsed < 120
    report(
        "A7 sphere machinery",
        ok,
        elapsed,
        f"orthonormality {worst_orth:.1e} (tol 1e-8), Q_k(1)^2 vs dimension {worst_q1:.1e} (tol 1e-8), "
        f"addition formula {'ok' if addition_ok else 'FAIL'}, exact-vs-MC risk {'ok' if risk_ok else 'FAIL'}",
    )
    assert worst_orth <= 1e-8 and worst_q1 <= 1e-8
    assert addition_ok and risk_ok
    assert elapsed < 120


def test_a8_estimation_pipeline():
    start = time.monotonic()
    seed, p, m, s2, lam = 5, 200, 4000, 0.25, 0.01
    spectrum, beta, theta, alignment = power_law_setup(seed, p=p)
    rng = derive_rng(seed, 4)
    holdout = sample_gaussian_features(spectrum, m, rng)
    y = holdout.matrix @ theta + math.sqrt(s2) * rng.standard_normal(m)
    est = estimate_spectrum(GramMatrix(holdout.matrix @ holdout.matrix.T), y)
    true = spectrum.expand()
    eig_err = float(np.max(np.abs(est.eigenvalues[:10] - true[:10]) / true[:10]))
    rels = []
    for n in (50, 100, 200, 400):
        truth = deterministic_equivalents(
            ModelSpec(n=n, lam=lam, spectrum=spectrum, alignment=alignment, noise=NoiseModel(s2))
        ).risk
        plug = deterministic_equivalents(decomposition_to_model(est, n, lam, s2)).risk
        rels.append(abs(plug - truth) / truth)
    worst_plug = max(rels)
    elapsed = time.monotonic() - start
    ok = eig_err <= 0.10 and worst_plug <= 0.20 and elapsed < 120
    report(
        "A8 estimation pipeline",
        ok,
        elapsed,
        f"top-10 eigenvalue rel err {eig_err:.4f} (tol 0.10), worst plugin risk rel err {worst_plug:.4f} (tol 0.20)",
    )
    assert eig_err <= 0.10
    assert worst_plug <= 0.20
    assert elapsed < 120
