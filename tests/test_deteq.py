import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from krrdeteq import deteq
from krrdeteq.config import deteq_settings
from krrdeteq.deteq import (
    FixedPointError,
    deterministic_equivalents,
    solve_effective_reg,
)
from krrdeteq.functionals import IdentityMatrix, RiskMatrix, deterministic_functionals
from krrdeteq.spectrum import (
    Alignment,
    ModelSpec,
    NoiseModel,
    Spectrum,
    SpectrumError,
    model_from_json,
    tail_rank,
    trace_resolvents,
)

from conftest import isotropic_effective_reg, monotone_newton, random_spectrum
from exact import closed_forms, fixed_point, functionals


def counted_solves(monkeypatch):
    """solve_effective_reg returning (EffectiveReg, resolvent evaluations it made)."""
    calls = []

    def counted(spectrum, s):
        calls.append(s)
        return trace_resolvents(spectrum, s)

    monkeypatch.setattr(deteq, "trace_resolvents", counted)

    def solve(spectrum, n, lam):
        calls.clear()
        return solve_effective_reg(spectrum, n, lam), len(calls)

    return solve


def certificate(spectrum, n, lam, eff):
    t1 = float(np.dot(spectrum.multiplicities, spectrum.values / (spectrum.values + eff.lambda_star)))
    return n - lam / eff.lambda_star - t1 if lam > 0 else n - t1


def brentq_root(spectrum, n, lam):
    """Reference root of the defect, summed exactly with fsum, by Brent's method."""
    terms = [(float(v), int(m)) for v, m in zip(spectrum.values, spectrum.multiplicities)]

    def defect(s):
        return math.fsum([n, -lam / s] + [-m * v / (v + s) for v, m in terms])

    lo = max(lam / n, 5e-324) if lam > 0 else 1e-300 * spectrum.trace / n
    hi = 2 * (lam + spectrum.trace) / n  # defect(hi) >= n/2 - T1(hi) >= 0
    return brentq(defect, lo, hi, xtol=5e-324, rtol=8.9e-16, maxiter=2000)


def random_cases(ridgeless):
    """60 random (spectrum, n, lam) from the ``rng`` fixture's seed; ``ridgeless`` draws lam = 0 a fifth of the time."""
    rng = np.random.default_rng(20240911)
    for _ in range(60):
        s, n = random_spectrum(rng), int(rng.integers(1, 500))
        lam = 0.0 if ridgeless and rng.uniform() >= 0.8 else float(rng.uniform(0.0, 10.0))
        yield s, n, 1e-3 if lam == 0.0 and s.total_rank <= n else lam


# The fixed-point case table, one family per check below; every case is solved once, by check_oracles.
# power law: at subnormal lam the step relative to s must stay finite
POWER_LAWS = (Spectrum.power_law(1.5, 3000), Spectrum.power_law(2.0, 3000))
# xi = 1e-200 next to s ~ 1e-300: (xi + s)^2 underflows to 0 in the slope; the root is 4 at n = 10
TINY_BLOCK = Spectrum.from_blocks([(1.0, 50), (1e-200, 5)])
# log-uniform eigenvalues 2^-j: plain Newton multiplies s by only (1 + remaining log-distance)
# per step; the last range spans every positive double, the longest climb (about 250 steps)
GEOMETRIC = [
    Spectrum.from_blocks([(2.0**-j, 1) for j in r]) for r in (range(1, 301), range(1, 501), range(-1000, 1075))
]


def check_oracles(family, cases, monkeypatch):
    """Solve each (spectrum, n, lam) once against every oracle: certificate, bracket, Upsilons, brentq, and
    plain monotone Newton, which also certifies and takes at least half the solver's resolvent evaluations.
    The solve's own ``evaluations`` count equals the counted trace_resolvents calls."""
    solve = counted_solves(monkeypatch)
    for s, n, lam in cases:
        case = (family, n, lam)
        eff, evals = solve(s, n, lam)
        assert eff.evaluations == evals, case
        root, residual, oracle_evals = monotone_newton(s, n, lam)
        assert max(abs(certificate(s, n, lam, eff)), abs(eff.residual), abs(residual)) <= 1e-12 * n, case
        assert lam / n <= eff.lambda_star <= (lam + s.trace) / n * (1 + 1e-12), case
        assert 0.0 <= eff.upsilon2 <= eff.upsilon1 <= 1.0 + 1e-12, case
        assert eff.lambda_star == pytest.approx(brentq_root(s, n, lam), rel=1e-10), case
        assert eff.lambda_star == pytest.approx(root, rel=1e-12), case
        assert evals <= 2 * oracle_evals, (*case, evals, oracle_evals)
        assert family != "tiny_block" or eff.lambda_star == pytest.approx(4.0, rel=1e-10), case


def truncated_solve(s, m, n, lam):
    """Fixed point of the truncated model at cut m: (n, top-m spectrum, lam + tail trace)."""
    t = ModelSpec(n=n, lam=lam, spectrum=s, alignment=Alignment(np.zeros(s.n_blocks))).truncated(m)
    return solve_effective_reg(t.spectrum, t.n, t.lam)


def split_alignment(spec, m):
    """Reference top-m per-block energies and tail energy (incl. residual), block by block.

    Energy inside a block cut by m is divided in proportion to the number of
    eigenvalues kept.
    """
    head_energies = []
    tail_energy = spec.alignment.residual_energy
    taken = 0
    for t, mult in zip(spec.alignment.energies, spec.spectrum.multiplicities):
        mult = int(mult)
        if taken >= m:
            tail_energy += float(t)
        elif taken + mult <= m:
            head_energies.append(float(t))
        else:
            frac = (m - taken) / mult
            head_energies.append(float(t) * frac)
            tail_energy += float(t) * (1.0 - frac)
        taken += mult
    return np.asarray(head_energies, dtype=float), tail_energy


class TestFixedPoint:
    def test_isotropic_closed_form(self):
        s = Spectrum.from_blocks([(1.0, 200)])
        eff = solve_effective_reg(s, 100, 1.0)
        assert eff.lambda_star == pytest.approx((101 + math.sqrt(10601)) / 200, rel=1e-12)

    def test_isotropic_oracle_random_draws(self, rng):
        for _ in range(100):
            xi = float(rng.uniform(0.01, 2.0))
            p = int(rng.integers(1, 3000))
            n = int(rng.integers(1, 1500))
            lam = float(rng.uniform(1e-6, 10.0))
            eff = solve_effective_reg(Spectrum.from_blocks([(xi, p)]), n, lam)
            assert eff.lambda_star == pytest.approx(
                isotropic_effective_reg(xi, p, n, lam), rel=1e-10
            )

    # one test per family of the case table; each applies every oracle through check_oracles
    def test_certificate_and_bracket_random(self, monkeypatch):
        check_oracles("random", random_cases(False), monkeypatch)

    def test_brentq_oracle_random(self, monkeypatch):
        check_oracles("random", random_cases(True), monkeypatch)

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-310, 1e-300, 1e-9, 1e-3, 1.0, 1e3, 1e300])
    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_brentq_oracle_power_law_extreme_lambda(self, n, lam, monkeypatch):
        check_oracles("power_law", [(s, n, lam) for s in POWER_LAWS], monkeypatch)

    @pytest.mark.parametrize("lam", [0.0, 1e-300])
    def test_brentq_oracle_tiny_eigenvalue_block(self, lam, monkeypatch):
        check_oracles("tiny_block", [(TINY_BLOCK, 10, lam)], monkeypatch)

    @pytest.mark.parametrize("lam", [0.0, 1e-100, 1e-300, 5e-324])
    @pytest.mark.parametrize("blocks", GEOMETRIC)
    def test_brentq_oracle_geometric_spectrum(self, blocks, lam, monkeypatch):
        check_oracles("geometric", [(blocks, n, lam) for n in (10, 100)], monkeypatch)

    def test_subnormal_lambda_root_at_or_below_smallest_float(self):
        # rank 3: the root 5e-324/(n - 3) is the smallest float at n = 4 and below it at n = 10
        s = Spectrum.from_blocks([(1.0, 3)])
        assert solve_effective_reg(s, 4, 5e-324).lambda_star == 5e-324
        with pytest.raises(FixedPointError, match="did not converge"):
            solve_effective_reg(s, 10, 5e-324)

    def test_log_step_evaluations_per_solve(self, monkeypatch):
        # a 20 000-block power law at 16 n; plain monotone Newton takes 9.0 evaluations on average and 12 at most there
        solve = counted_solves(monkeypatch)
        s = Spectrum.power_law(2.0, 20_000)
        per_solve = [solve(s, n, 1e-3)[1] for n in sorted({int(round(v)) for v in np.geomspace(10, 1e4, 16)})]
        assert np.mean(per_solve) <= 6
        assert max(per_solve) <= 8

    def test_exact_oracle_random_spectra(self, rng):
        """deterministic_equivalents against the 80-digit ``decimal`` oracle on 30 random spectra spanning ten decades.

        lambda_star is within b = 2e-12 * n / (s g'(s)) relative: the certificate |g| <= 1e-12 * n
        moves a root of the concave defect by at most |g| / g', and the factor 2 covers the
        rounding of g itself.  Upsilon_1 and Upsilon_2 are within 1e-13 relative.  Stieltjes
        1/(n s) is within b.  1 - Upsilon_2 then moves by 1e-13 c relative, c = 1/(1 - Upsilon_2),
        and a shrink factor (s/(xi + s))^2 by at most 2b, so bias, variance and risk are within
        2b + 1e-13 c, and train = (lam Stieltjes)^2 risk within 4b + 1e-13 c.
        deterministic_functionals at A = I and at a RiskMatrix: psi2 = Upsilon_1 is within 1e-13; psi1
        (n Upsilon_1 s / lam, or the sum of beta^2 s / (lam xi (xi + s))) moves with s/(xi + s) by at most b,
        so it is within b + 1e-13; psi3 and psi4 carry (s/(xi + s))^2 or Upsilon_2 and 1/(1 - Upsilon_2),
        so they are within 2b + 2e-13 c.
        """
        targets = np.random.default_rng(1)  # targets from a second stream, so ``rng`` draws only the spectra
        betas = np.random.default_rng(2)  # RiskMatrix beta from a third, so neither the spectra nor the targets move
        outputs = ("lambda_star", "upsilon1", "upsilon2", "stieltjes", "bias", "variance", "risk", "train")
        outputs += tuple(f"{kind} psi{j}" for kind in ("I", "RiskMatrix") for j in range(1, 5))
        worst, worst_ratio = dict.fromkeys(outputs, 0.0), 0.0
        for _ in range(30):
            k = int(rng.integers(1, 61))
            values = np.sort(10.0 ** rng.uniform(-8, 2, k))[::-1]
            mults = rng.integers(1, 5, k)
            n = int(rng.integers(1, 2 * int(mults.sum()) + 1))
            lam = float(10.0 ** rng.uniform(-12, 1))
            energies = 10.0 ** targets.uniform(-6, 2, k)
            residual, noise = (float(v) for v in targets.uniform(0.0, 1.0, 2))
            model = ModelSpec(n, lam, Spectrum(values, mults), Alignment(energies, residual), NoiseModel(noise))
            det = deterministic_equivalents(model)
            blocks = list(zip(values.tolist(), mults.tolist()))
            point = fixed_point(blocks, n, lam)
            exact = point._asdict() | closed_forms(point, blocks, energies.tolist(), residual, noise, n, lam)._asdict()
            got = vars(det.effective) | vars(det)
            b, c = 2e-12 * n / float(point.scaled_slope), 1.0 / float(1 - point.upsilon2)
            bounds = dict(lambda_star=b, upsilon1=1e-13, upsilon2=1e-13, stieltjes=b, train=4 * b + 1e-13 * c)
            bounds |= dict.fromkeys(("bias", "variance", "risk"), 2 * b + 1e-13 * c)
            beta = betas.standard_normal(int(mults.sum()))
            for kind, a, exact_beta in (("I", IdentityMatrix(beta.size), None), ("RiskMatrix", RiskMatrix(beta), beta)):
                names = [f"{kind} psi{j}" for j in range(1, 5)]
                got |= zip(names, deterministic_functionals(model.spectrum, n, lam, a))
                exact |= zip(names, functionals(point, blocks, n, lam, exact_beta))
                bounds |= zip(names, (b + 1e-13, 1e-13, 2 * b + 2e-13 * c, 2 * b + 2e-13 * c))
            err = {name: float(abs(Decimal(got[name]) - exact[name]) / exact[name]) for name in outputs}
            assert all(err[name] <= bounds[name] for name in outputs), (n, lam, err, bounds)
            worst = {name: max(value, err[name]) for name, value in worst.items()}
            worst_ratio = max([worst_ratio] + [err[name] / bounds[name] for name in outputs])
        print("worst relative error against decimal: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
        print(f"worst error / bound: {worst_ratio:.2e}")

    def test_ridgeless_needs_excess_rank(self):
        with pytest.raises(FixedPointError, match="no positive fixed point"):
            solve_effective_reg(Spectrum.from_blocks([(2.0, 50)]), 100, 0.0)

    def test_ridgeless_solves_above_rank(self):
        s = Spectrum.from_blocks([(1.0, 250)])
        eff = solve_effective_reg(s, 100, 0.0)
        # n = p xi / (xi + ls)  =>  ls = xi (p - n) / n
        assert eff.lambda_star == pytest.approx(1.5, rel=1e-10)
        assert eff.mu_star == 0.0

    def test_large_lambda_limit(self):
        eff = solve_effective_reg(Spectrum.from_blocks([(1.0, 10)]), 10, 1e6)
        assert eff.lambda_star == pytest.approx(1e5, rel=1e-4)

    def test_rejects_bad_inputs(self):
        s = Spectrum.from_blocks([(1.0, 10)])
        with pytest.raises(Exception):
            solve_effective_reg(s, 10, math.nan)
        with pytest.raises(Exception):
            solve_effective_reg(s, 0, 1.0)

    def test_monotone_in_lambda(self):
        s = Spectrum.power_law(1.5, 400)
        lams = np.geomspace(1e-4, 1e2, 25)
        stars = [solve_effective_reg(s, 50, lam) for lam in lams]
        ls = [e.lambda_star for e in stars]
        mu = [e.mu_star for e in stars]
        assert all(a < b for a, b in zip(ls, ls[1:]))
        assert all(a < b for a, b in zip(mu, mu[1:]))

    def test_upsilon1_identity(self, rng):
        for _ in range(20):
            s = random_spectrum(rng)
            n = int(rng.integers(1, 300))
            lam = float(rng.uniform(1e-3, 5.0))
            eff = solve_effective_reg(s, n, lam)
            assert eff.upsilon1 == pytest.approx(1 - lam / (n * eff.lambda_star), abs=1e-12)


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())


class TestDeterministicEquivalents:
    @pytest.mark.parametrize("case", sorted(name for name, case in GOLDEN_CASES.items() if case["command"] == "deteq"))
    def test_golden_documents_match_exact_oracle(self, case):
        """Each golden ``deteq`` document, parsed as the CLI parses it, against the 80-digit ``decimal`` oracle:
        at every n with a fixed point, lambda_star, Upsilon_2, risk, train, bias and variance are within 1e-13
        relative (train is exactly 0 at lam = 0).  At lam = 0 and n >= rank there is none: SpectrumError."""
        doc = GOLDEN_CASES[case]["config"]
        n_grid, lam, _ = deteq_settings(doc)
        spectrum, alignment, noise = model_from_json(doc)
        blocks, energies = doc["blocks"], doc["alignment"]
        residual, noise_variance = doc.get("residual_energy", 0.0), doc.get("noise_variance", 0.0)
        for n in n_grid:
            if lam == 0 and spectrum.total_rank <= n:
                with pytest.raises(SpectrumError, match="requires spectrum rank > n"):
                    deterministic_equivalents(ModelSpec(n, lam, spectrum, alignment, noise))
                continue
            det = deterministic_equivalents(ModelSpec(n, lam, spectrum, alignment, noise))
            point = fixed_point(blocks, n, lam)
            exact = point._asdict() | closed_forms(point, blocks, energies, residual, noise_variance, n, lam)._asdict()
            got = vars(det.effective) | vars(det)
            for name in ("lambda_star", "upsilon2", "risk", "train", "bias", "variance"):
                err = abs(Decimal(got[name]) - exact[name])
                assert err <= Decimal("1e-13") * abs(exact[name]), (case, n, name, got[name], float(exact[name]))

    def test_zero_target_variance_formula(self):
        # any spectrum; with all-zero alignment the bias vanishes and
        # V = sigma^2 * U2 / (1 - U2)
        s = Spectrum.from_blocks([(1.0, 200)])
        spec = ModelSpec(n=100, lam=1.0, spectrum=s, alignment=Alignment(np.zeros(1)), noise=NoiseModel(0.3))
        de = deterministic_equivalents(spec)
        u2 = de.effective.upsilon2
        assert de.bias == 0.0
        assert de.variance == pytest.approx(0.3 * u2 / (1 - u2), rel=1e-12)
        assert de.risk == pytest.approx(de.variance + 0.3, rel=1e-12)

    def test_isotropic_unit_energy(self):
        s = Spectrum.from_blocks([(1.0, 200)])
        spec = ModelSpec(n=100, lam=1.0, spectrum=s, alignment=Alignment(np.array([1.0])))
        de = deterministic_equivalents(spec)
        ls = (101 + math.sqrt(10601)) / 200
        u2 = 2.0 / (1 + ls) ** 2
        expected = (ls / (1 + ls)) ** 2 / (1 - u2)
        assert de.risk == pytest.approx(expected, rel=1e-10)
        assert de.bias == pytest.approx(expected, rel=1e-10)

    def test_no_learning_limit(self):
        s = Spectrum.from_blocks([(1.0, 5), (0.5, 5)])
        al = Alignment(np.array([0.6, 0.4]))
        spec = ModelSpec(n=3, lam=1e9, spectrum=s, alignment=al)
        de = deterministic_equivalents(spec)
        assert de.risk == pytest.approx(1.0, rel=1e-6)  # total target energy

    def test_identities(self, rng):
        for _ in range(25):
            s = random_spectrum(rng)
            al = Alignment(rng.uniform(0, 1, size=s.n_blocks), residual_energy=float(rng.uniform(0, 0.5)))
            n = int(rng.integers(1, 300))
            lam = float(rng.uniform(1e-3, 5.0))
            s2 = float(rng.uniform(0, 1))
            de = deterministic_equivalents(ModelSpec(n=n, lam=lam, spectrum=s, alignment=al, noise=NoiseModel(s2)))
            assert de.risk == pytest.approx(de.bias + de.variance + s2, rel=1e-12)
            assert de.train == pytest.approx(lam**2 * de.stieltjes**2 * de.risk, rel=1e-12)
            assert de.stieltjes == pytest.approx(1 / (n * de.effective.lambda_star), rel=1e-12)
            assert min(de.bias, de.variance, de.risk, de.train) >= 0

    def test_scale_covariance(self, rng):
        s = random_spectrum(rng)
        al = Alignment(rng.uniform(0, 1, size=s.n_blocks), residual_energy=0.2)
        n, lam, s2 = 40, 0.7, 0.4
        base = deterministic_equivalents(ModelSpec(n=n, lam=lam, spectrum=s, alignment=al, noise=NoiseModel(s2)))
        for c in (0.03, 7.5):
            scaled = deterministic_equivalents(
                ModelSpec(n=n, lam=c * lam, spectrum=Spectrum(c * s.values, s.multiplicities), alignment=al, noise=NoiseModel(s2))
            )
            assert scaled.effective.lambda_star == pytest.approx(c * base.effective.lambda_star, rel=1e-10)
            assert scaled.effective.mu_star == pytest.approx(base.effective.mu_star, rel=1e-10)
            assert scaled.risk == pytest.approx(base.risk, rel=1e-10)
            assert scaled.bias == pytest.approx(base.bias, rel=1e-10)
            assert scaled.variance == pytest.approx(base.variance, rel=1e-10)
            # dimensionless training/stieltjes forms
            assert scaled.train == pytest.approx(base.train, rel=1e-10)
            assert scaled.stieltjes * n * c * lam == pytest.approx(base.stieltjes * n * lam, rel=1e-10)

    def test_bias_bitwise_equal_to_out_of_place_shrink(self, rng):
        """The one-buffer shrink**2 gives the bias of the out-of-place formula bit for bit."""
        for size in (3, 8193, 50_000):
            values = np.sort(10.0 ** rng.uniform(-6, 0, size))[::-1]
            s = Spectrum(values, rng.integers(1, 50, size))
            al = Alignment(rng.uniform(0, 1, size), residual_energy=0.125)
            for n, lam in ((5, 1e-3), (10**6, 1e-300), (40, 1e3)):
                de = deterministic_equivalents(ModelSpec(n=n, lam=lam, spectrum=s, alignment=al, noise=NoiseModel(0.5)))
                ls = de.effective.lambda_star
                shrink = ls / (values + ls)
                bias_num = float(np.einsum("i,i->", al.energies, shrink * shrink))
                assert de.bias == (bias_num + 0.125) / (1.0 - de.effective.upsilon2)

    def test_nonfinite_risk_raises(self):
        s = Spectrum.from_blocks([(1.0, 1), (0.5, 1)])
        al = Alignment(np.array([1e308, 1e308]), residual_energy=1e308)
        with pytest.raises(SpectrumError, match="not finite"):
            deterministic_equivalents(ModelSpec(n=1, lam=0.1, spectrum=s, alignment=al))

    def test_residual_energy_enters_unshrunk(self):
        s = Spectrum.from_blocks([(1.0, 50)])
        n, lam = 20, 0.5
        plain = deterministic_equivalents(ModelSpec(n=n, lam=lam, spectrum=s, alignment=Alignment(np.zeros(1))))
        with_res = deterministic_equivalents(
            ModelSpec(n=n, lam=lam, spectrum=s, alignment=Alignment(np.zeros(1), residual_energy=0.3))
        )
        u2 = plain.effective.upsilon2
        assert with_res.bias == pytest.approx(0.3 / (1 - u2), rel=1e-12)


class TestTruncatedModel:
    def test_full_cut_matches_plain_solve(self, rng):
        s = random_spectrum(rng)
        n, lam = 30, 0.4
        full = solve_effective_reg(s, n, lam)
        trunc = truncated_solve(s, s.total_rank, n, lam)
        assert trunc.lambda_star == pytest.approx(full.lambda_star, rel=1e-12)

    def test_full_cut_ridgeless_rank_check(self):
        s = Spectrum.from_blocks([(1.0, 7), (0.25, 3)])
        with pytest.raises(SpectrumError, match="requires spectrum rank > n"):
            truncated_solve(s, s.total_rank, 10, 0.0)
        eff = truncated_solve(s, s.total_rank, 4, 0.0)
        assert eff.lambda_star == solve_effective_reg(s, 4, 0.0).lambda_star

    def test_two_scale_instance_and_bound(self):
        s = Spectrum.from_blocks([(1.0, 50), (0.01, 10000)])
        n, m = 100, 50
        trunc = truncated_solve(s, m, n, 0.0)
        # top-50 isotropic with lam+ = 100: 100 - 100/ls = 50/(1+ls)
        assert trunc.lambda_star == pytest.approx((1 + math.sqrt(17)) / 4, rel=1e-12)
        full = solve_effective_reg(s, n, 0.0)
        gap = (trunc.lambda_star - full.lambda_star) / trunc.lambda_star
        assert 0.0 <= gap <= 100 * 0.01 / 100.0  # n * xi_tail / lam_tail

    def test_truncated_risk_full_cut(self, rng):
        s = random_spectrum(rng)
        al = Alignment(rng.uniform(0, 1, size=s.n_blocks))
        spec = ModelSpec(n=25, lam=0.3, spectrum=s, alignment=al, noise=NoiseModel(0.1))
        assert deterministic_equivalents(spec.truncated(s.total_rank)).risk == pytest.approx(
            deterministic_equivalents(spec).risk, rel=1e-12
        )

    def test_truncated_risk_near_full_risk(self):
        s = Spectrum.from_blocks([(1.0, 50), (0.01, 10000)])
        al = Alignment(np.array([0.9, 0.1]))
        spec = ModelSpec(n=100, lam=0.0, spectrum=s, alignment=al, noise=NoiseModel(0.05))
        m = 50
        full = deterministic_equivalents(spec).risk
        reduced = deterministic_equivalents(spec.truncated(m)).risk
        slack = 100 / tail_rank(s, m, 0.0)  # n / r_lambda(m)
        assert abs(full - reduced) <= 4 * slack * full

    def test_block_splitting_cut(self):
        # cut inside the first block: energy splits proportionally
        s = Spectrum.from_blocks([(1.0, 4), (0.5, 2)])
        al = Alignment(np.array([0.8, 0.2]))
        spec = ModelSpec(n=3, lam=0.2, spectrum=s, alignment=al)
        r = deterministic_equivalents(spec.truncated(2)).risk
        eff = truncated_solve(s, 2, 3, 0.2)
        ls = eff.lambda_star
        head_energy = 0.8 * 2 / 4
        tail_energy = 0.8 * 2 / 4 + 0.2
        expected = ((ls / (1 + ls)) ** 2 * head_energy + tail_energy) / (1 - eff.upsilon2)
        assert r == pytest.approx(expected, rel=1e-12)

    def test_truncated_model_matches_blockwise_split(self, rng):
        inside = 0
        for _ in range(200):
            s = random_spectrum(rng)
            al = Alignment(rng.uniform(0, 1, size=s.n_blocks), residual_energy=float(rng.uniform(0, 0.5)))
            n, lam = int(rng.integers(1, 100)), float(rng.uniform(0.01, 2))
            spec = ModelSpec(n=n, lam=lam, spectrum=s, alignment=al, noise=NoiseModel(0.3))
            m = int(rng.integers(1, s.total_rank + 1))
            inside += m not in s._cum_mult
            trunc = spec.truncated(m)
            head = s.head(m)
            head_energies, tail_energy = split_alignment(spec, m)
            np.testing.assert_array_equal(trunc.spectrum.values, head.values)
            np.testing.assert_array_equal(trunc.spectrum.multiplicities, head.multiplicities)
            np.testing.assert_allclose(trunc.alignment.energies, head_energies, rtol=1e-14, atol=0)
            assert trunc.alignment.residual_energy == pytest.approx(tail_energy, rel=1e-14)
            assert trunc.alignment.total_energy == pytest.approx(al.total_energy, rel=1e-14)
            assert (trunc.n, trunc.noise) == (spec.n, spec.noise)
            assert trunc.lam == spec.lam + s.tail_trace(m)
        assert inside >= 50  # most cuts fall inside a block

    def test_truncated_model_rejects_empty_head(self):
        s = Spectrum.from_blocks([(1.0, 3)])
        spec = ModelSpec(n=2, lam=0.5, spectrum=s, alignment=Alignment(np.zeros(1)))
        for m in (0, -1, 4):
            with pytest.raises(SpectrumError):
                spec.truncated(m)
