import json
import math
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from krrdeteq import deteq
from krrdeteq.config import deteq_settings
from krrdeteq.deteq import deterministic_equivalents, solve_effective_reg
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


def split_alignment(spec, m):
    """Reference top-m per-block energies and tail energy (residual included), block by block: a block that the cut
    divides splits its energy in proportion to the eigenvalues kept."""
    head, tail, taken = [], spec.alignment.residual_energy, 0
    for t, mult in zip(spec.alignment.energies.tolist(), spec.spectrum.multiplicities.tolist()):
        frac = min(max(m - taken, 0), mult) / mult
        head += [t * frac] if frac else []
        tail, taken = tail + t * (1.0 - frac), taken + mult
    return np.array(head), tail


def drawn(count, draw, *seeds):
    """``count`` rows ``draw(rng, *others)``: ``rng`` seeded as the ``rng`` fixture, the others with ``seeds``."""
    rngs = [np.random.default_rng(seed) for seed in (20240911, *seeds)]
    return [draw(*rngs) for _ in range(count)]


def random_rows(count, tail):
    """``count`` rows (random_spectrum(rng), *tail(rng, spectrum)), ``rng`` seeded as the ``rng`` fixture."""
    rng = np.random.default_rng(20240911)
    return [(s, *tail(rng, s)) for s in (random_spectrum(rng) for _ in range(count))]


def identities_row(rng, s):
    energies, residual = rng.uniform(0, 1, size=s.n_blocks), float(rng.uniform(0, 0.5))
    n, lam = int(rng.integers(1, 300)), float(rng.uniform(1e-3, 5.0))
    return energies, residual, float(rng.uniform(0, 1)), [n], [lam]


def exact_row(rng, targets):
    """Up to 60 blocks spanning ten decades; the target from ``targets``, so that ``rng`` draws only the spectra."""
    k = int(rng.integers(1, 61))
    values, mults = np.sort(10.0 ** rng.uniform(-8, 2, k))[::-1], rng.integers(1, 5, k)
    n, lam = int(rng.integers(1, 2 * int(mults.sum()) + 1)), float(10.0 ** rng.uniform(-12, 1))
    return Spectrum(values, mults), 10.0 ** targets.uniform(-6, 2, k), *targets.uniform(0.0, 1.0, 2).tolist(), [n], [lam]


def bias_rows(rng):
    """Three (n, lam) points on each of three spectra, of 3, 8193 and 50 000 blocks."""
    spectra = [(Spectrum(np.sort(10.0 ** rng.uniform(-6, 0, k))[::-1], rng.integers(1, 50, k)), rng.uniform(0, 1, k)) for k in (3, 8193, 50_000)]
    return [(s, energies, 0.125, 0.5, [n], [lam]) for s, energies in spectra for n, lam in ((5, 1e-3), (10**6, 1e-300), (40, 1e3))]


def golden_row(doc):
    """A golden ``deteq`` document, parsed as the CLI parses it."""
    (n_grid, lam, _), (spectrum, alignment, noise) = deteq_settings(doc), model_from_json(doc)
    return spectrum, alignment.energies, alignment.residual_energy, noise.variance, n_grid, [lam]


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
GOLDEN_DETEQ = sorted(name for name, case in GOLDEN_CASES.items() if case["command"] == "deteq")
# check_prediction_oracles: rows (a Spectrum or its blocks, energies, residual energy, sigma^2, n grid, lam grid[, cut m])
PREDICTION_CASES = {
    **{case: [golden_row(GOLDEN_CASES[case]["config"])] for case in GOLDEN_DETEQ},
    "random spectra": drawn(30, exact_row, 1),
    "isotropic draws": drawn(100, lambda rng: ([(float(rng.uniform(0.01, 2.0)), int(rng.integers(1, 3000)))], [1.0], 0.0, 0.25,
                                               [int(rng.integers(1, 1500))], [float(rng.uniform(1e-6, 10.0))])),
    "isotropic closed form": [([(1.0, 200)], [1.0], 0.0, 0.0, [100], [1.0])],
    "isotropic ridgeless": [([(1.0, p)], [1.0], 0.0, s2, [n], [0.0]) for n, p, s2 in ((50, 200, 0.25), (190, 200, 1.0), (1, 2, 0.5), (100, 101, 0.3))],
    "ridgeless above rank": [([(1.0, 250)], [1.0], 0.0, 0.0, [100], [0.0])],
    "large lambda": [([(1.0, 10)], [1.0], 0.0, 0.0, [10], [1e6])],
    "no learning": [([(1.0, 5), (0.5, 5)], [0.6, 0.4], 0.0, 0.0, [3], [1e9])],
    "monotone": [(Spectrum.power_law(1.5, 400), np.arange(1.0, 401.0) ** -1.5, 0.0, 0.1, [50], np.geomspace(1e-4, 1e2, 25))],
    "upsilon1": random_rows(20, lambda rng, s: (np.zeros(s.n_blocks), 0.0, 0.0, [int(rng.integers(1, 300))], [float(rng.uniform(1e-3, 5.0))])),
    "identities": random_rows(25, identities_row),
    "scale": random_rows(1, lambda rng, s: (rng.uniform(0, 1, size=s.n_blocks), 0.2, 0.4, [40], [0.7])),
    "bias bitwise": bias_rows(np.random.default_rng(20240911)),
    "zero target": [([(1.0, 200)], [0.0], 0.0, 0.3, [100], [1.0])],
    "residual": [([(1.0, 50)], [0.0], 0.3, 0.0, [20], [0.5])],
    "full cut": random_rows(1, lambda rng, s: (np.zeros(s.n_blocks), 0.0, 0.0, [30], [0.4])),
    "full cut ridgeless": [([(1.0, 7), (0.25, 3)], [0.0, 0.0], 0.0, 0.0, [4, 10], [0.0])],
    "full cut risk": random_rows(1, lambda rng, s: (rng.uniform(0, 1, size=s.n_blocks), 0.0, 0.1, [25], [0.3])),
    "two scale": [([(1.0, 50), (0.01, 10000)], [0.0, 0.0], 0.0, 0.0, [100], [0.0], 50)],
    "two scale risk": [([(1.0, 50), (0.01, 10000)], [0.9, 0.1], 0.0, 0.05, [100], [0.0], 50)],
    "block split": [([(1.0, 4), (0.5, 2)], [0.8, 0.2], 0.0, 0.0, [3], [0.2], 2)],
    "blockwise split": random_rows(200, lambda rng, s: (
        rng.uniform(0, 1, size=s.n_blocks), float(rng.uniform(0, 0.5)), 0.3,
        [int(rng.integers(1, 100))], [float(rng.uniform(0.01, 2))], int(rng.integers(1, s.total_rank + 1)),
    )),
}


def check_prediction_oracles(rows, exact=True, inside=0):
    """Every oracle at every (n, lam) point of every row, on the model and, at a cut m, on its truncation but for those
    that solve further models (solves).  A bound reads |got - want| <= bound * max(|want|, floor), 0 is bitwise.
    - existence: at lam = 0 and rank <= n, ModelSpec raises SpectrumError;
    - identities, bitwise: risk = bias + variance + sigma^2, variance = sigma^2 U2/(1 - U2), train = (lam S)^2 risk,
      S = 1/(n ls), mu = lam/ls, bias = the out-of-place shrink^2 einsum (0 for a zero target); U1 = 1 - lam/(n ls)
      to the certificate's 1e-12 absolute; no output is negative;
    - scale (solves): (c spectrum, c lam) gives ls/c, mu, c S, risk, bias, variance and train bitwise at c = 2^-7, 2^5
      where c xi and the solver's start c lam/n (c 1e-300 trace/n at lam = 0) stay normal, and 1e-13 at c = 0.03, 7.5;
    - truncation: truncated(rank) is the model bitwise (solves).  At the cut the head is head(m) bitwise, energies,
      residual and total energy are split_alignment's 1e-14 and the ridge is lam + tail_trace(m); with r =
      tail_rank(m), 0 <= (ls_m - ls)/ls_m <= n/r and the risk moves by at most 4 n/r;
    - exact (rows of at most 64 blocks, if ``exact``), against tests/exact.py and relative to the least normal float
      at least: with b = 2e-12 n/(s g'(s)), how far the certificate |g| <= 1e-12 n moves a root of the concave defect,
      twice for the rounding of g, and c = 1/(1 - U2), ls and S within b, U1 and U2 1e-13, bias, variance and risk
      2b + 1e-13 c (a shrink factor (s/(xi + s))^2 moves by 2b) and train 4b + 1e-13 c, each capped at 1e-13; at
      lam > 0, where the exact psi are floats, deterministic_functionals at A = I and a RiskMatrix: psi2 = U1 1e-13,
      psi1 b + 1e-13, psi3 and psi4 2b + 2e-13 c;
    - isotropic (one block): ls against isotropic_effective_reg 1e-12; at unit energy and lam > 0, bias and risk
      from that root 1e-12; at lam = 0, bias E (1 - n/p) + r p/(p - n) and variance sigma^2 n/(p - n) 1e-13;
    - residual energy r over a zero target gives bias r/(1 - U2), 1e-12; along a lam grid ls and mu increase strictly;
    - large lam, b = n trace/lam <= 1e-3: ls = lam/n within b (lam/n <= ls <= (lam + trace)/n), risk = energy + sigma^2 2b.
    At least ``inside`` cuts fall inside a block.  ``pytest -s`` prints each oracle's worst error.
    """
    worst, betas, cuts, tiny = {}, np.random.default_rng(2), [], np.finfo(float).tiny

    def check(oracle, where, got, want, bound, floor=0.0):
        pairs = zip(got, want) if isinstance(got, (tuple, np.ndarray)) else [(got, want)]
        relative = lambda g, w: float(abs(Decimal(g) - Decimal(w)) / max(abs(Decimal(w)), Decimal(floor))) if w or floor else math.inf
        err = max(0.0 if g == w else relative(g, w) for g, w in pairs)
        top = worst.setdefault(oracle, [0.0, 0.0])  # the worst error, and its worst share of the bound
        top[:] = max(top[0], err), max(top[1], err / bound if bound else 0.0)
        assert err <= bound, f"{oracle} at (blocks, rank, n, lam, cut, ...) = {where}: error {err:.2e} > {bound:.1e}"

    def model_oracles(spec, where, resolve=True):
        s, n, lam, s2, alignment = spec.spectrum, spec.n, spec.lam, spec.noise.variance, spec.alignment
        energies, residual = alignment.energies, alignment.residual_energy
        det = deterministic_equivalents(spec)
        eff = det.effective
        ls, u2 = eff.lambda_star, eff.upsilon2
        shrink = ls / (s.values + ls)
        for name, got, want in (
            ("risk = bias + variance + sigma^2", det.risk, det.bias + det.variance + s2),
            ("variance = sigma^2 U2/(1 - U2)", det.variance, s2 * u2 / (1 - u2)),
            ("train = (lam S)^2 risk", det.train, (lam * det.stieltjes) ** 2 * det.risk),
            ("S = 1/(n ls)", det.stieltjes, 1 / (n * ls)),
            ("mu = lam/ls", eff.mu_star, lam / ls),
            ("bias = shrink^2 einsum", det.bias, (float(np.einsum("i,i->", energies, shrink * shrink)) + residual) / (1 - u2)),
            ("zero target bias", 0.0 if residual or energies.any() else det.bias, 0.0),
        ):
            check(name, where, got, want, 0)
        check("U1 = 1 - lam/(n ls)", where, eff.upsilon1, 1 - lam / (n * ls), 1e-12, 1.0)
        assert min(det.bias, det.variance, det.risk, det.train, det.stieltjes, eff.upsilon1, u2, eff.mu_star) >= 0, where
        quantities = lambda d, c=1.0: (d.effective.lambda_star / c, d.effective.mu_star, d.stieltjes * c, d.risk, d.bias, d.variance, d.train)
        start = (lam or 1e-300 * s.trace) / n
        for c, oracle, bound in ((2.0**-7, "scale 2^k", 0), (2.0**5, "scale 2^k", 0), (0.03, "scale c", 1e-13), (7.5, "scale c", 1e-13)):
            if resolve and (bound or min(c * s.values[-1], c * start) >= tiny):
                scaled = deterministic_equivalents(ModelSpec(n, c * lam, Spectrum(c * s.values, s.multiplicities), alignment, spec.noise))
                check(oracle, (*where, c), quantities(scaled, c), quantities(det), bound)
        if resolve:
            check("truncated(rank)", where, quantities(deterministic_equivalents(spec.truncated(s.total_rank))), quantities(det), 0)
        if residual and not energies.any():
            check("residual r gives bias r/(1 - U2)", where, det.bias, residual / (1 - u2), 1e-12)
        if exact and s.n_blocks <= 64:
            blocks = list(zip(s.values.tolist(), s.multiplicities.tolist()))
            point = fixed_point(blocks, n, lam)
            want = point._asdict() | closed_forms(point, blocks, energies.tolist(), residual, s2, n, lam)._asdict()
            b, c = 2e-12 * n / float(point.scaled_slope), 1.0 / float(1 - point.upsilon2)
            bounds = dict(lambda_star=b, upsilon1=1e-13, upsilon2=1e-13, stieltjes=b, train=4 * b + 1e-13 * c)
            bounds |= dict.fromkeys(("bias", "variance", "risk"), 2 * b + 1e-13 * c)
            for name, bound in bounds.items():
                check(f"exact {name}", where, (vars(eff) | vars(det))[name], want[name], min(bound, 1e-13), tiny)
            beta, bounds = betas.standard_normal(s.total_rank), (b + 1e-13, 1e-13, 2 * b + 2e-13 * c, 2 * b + 2e-13 * c)
            for kind, a, exact_beta in (("I", IdentityMatrix(beta.size), None), ("RiskMatrix", RiskMatrix(beta), beta)):
                exact_psis = functionals(point, blocks, n, lam, exact_beta) if lam > 0 else ()
                if exact_psis and max(exact_psis) <= sys.float_info.max:  # else deterministic_functionals raises
                    for j, got, want, bound in zip(range(1, 5), deterministic_functionals(s, n, lam, a), exact_psis, bounds):
                        check(f"psi{j}", (*where, kind), got, want, bound)
        if s.n_blocks == 1:
            xi, p = float(s.values[0]), s.total_rank
            root = isotropic_effective_reg(xi, p, n, lam)
            check("isotropic root", where, ls, root, 1e-12)
            if lam > 0 and energies[0] == 1.0 and not residual:
                kept, u = (root / (xi + root)) ** 2, p / n * (xi / (xi + root)) ** 2
                check("isotropic bias and risk", where, (det.bias, det.risk), (kept / (1 - u), (kept + s2) / (1 - u)), 1e-12)
            if lam == 0:
                bias, variance = energies[0] * (1 - n / p) + residual * p / (p - n), s2 * n / (p - n)
                check("ridgeless isotropic", where, (det.bias, det.variance, det.risk), (bias, variance, bias + variance + s2), 1e-13)
        limit = n * s.trace / lam if lam else math.inf
        if limit <= 1e-3:
            check("large lambda", where, (ls, det.risk), (lam / n, alignment.total_energy + s2), 2 * limit)
        return det

    for blocks, energies, residual, s2, n_grid, lams, *cut in rows:
        spectrum = blocks if isinstance(blocks, Spectrum) else Spectrum.from_blocks(blocks)
        alignment, noise = Alignment(np.array(energies, dtype=float), residual), NoiseModel(s2)
        for n in n_grid:
            stars = []
            for lam in lams:
                where = (spectrum.n_blocks, spectrum.total_rank, n, lam, *cut)
                if lam == 0 and spectrum.total_rank <= n:
                    with pytest.raises(SpectrumError, match="requires spectrum rank > n"):
                        ModelSpec(n, lam, spectrum, alignment, noise)
                    continue
                spec = ModelSpec(n, lam, spectrum, alignment, noise)
                det = model_oracles(spec, where)
                stars.append(det.effective)
                for m in cut:
                    trunc, head = spec.truncated(m), spectrum.head(m)
                    assert np.array_equal(trunc.spectrum.values, head.values), where
                    assert np.array_equal(trunc.spectrum.multiplicities, head.multiplicities), where
                    got, (head_energies, tail) = trunc.alignment, split_alignment(spec, m)
                    want = (*head_energies, tail, alignment.total_energy)
                    check("cut energies", where, (*got.energies, got.residual_energy, got.total_energy), want, 1e-14)
                    assert (trunc.n, trunc.noise, trunc.lam) == (n, noise, lam + spectrum.tail_trace(m)), where
                    cuts.append(m not in spectrum._cum_mult)
                    reduced, ratio = model_oracles(trunc, (*where, "truncated"), False), n / tail_rank(spectrum, m, lam)
                    gap = 1 - det.effective.lambda_star / reduced.effective.lambda_star
                    assert 0 <= gap <= ratio, (where, gap, ratio)
                    check("truncated risk", where, reduced.risk, det.risk, 4 * ratio)
            assert all(a.lambda_star < b.lambda_star and a.mu_star < b.mu_star for a, b in zip(stars, stars[1:])), (n, lams)
    assert sum(cuts) >= inside, f"{sum(cuts)} of {len(cuts)} cuts inside a block"
    print("worst error: " + ", ".join(f"{name} {err:.1e}" + (f" ({share:.2f} of the bound)" if share else "") for name, (err, share) in worst.items()))


def family(name, exact=True, inside=0):
    """A test method that runs the rows of PREDICTION_CASES[name] through check_prediction_oracles."""
    return lambda self: check_prediction_oracles(PREDICTION_CASES[name], exact, inside)


class TestFixedPoint:
    # one test per family of PREDICTION_CASES; each applies every oracle through check_prediction_oracles
    test_isotropic_closed_form = family("isotropic closed form")
    test_isotropic_oracle_random_draws = family("isotropic draws")
    test_exact_oracle_random_spectra = family("random spectra")
    test_ridgeless_solves_above_rank = family("ridgeless above rank")
    test_large_lambda_limit = family("large lambda")
    test_monotone_in_lambda = family("monotone")
    test_upsilon1_identity = family("upsilon1", exact=False)

    # one test per family of the solver's case table; each applies every oracle through check_oracles
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
        # rank 3: the root 5e-324/(n - 3) is the smallest float at n = 4; below it, at n = 10, the solve raises
        s = Spectrum.from_blocks([(1.0, 3)])
        assert solve_effective_reg(s, 4, 5e-324).lambda_star == 5e-324

    def test_log_step_evaluations_per_solve(self, monkeypatch):
        # a 20 000-block power law at 16 n; plain monotone Newton takes 9.0 evaluations on average and 12 at most there
        solve = counted_solves(monkeypatch)
        s = Spectrum.power_law(2.0, 20_000)
        per_solve = [solve(s, n, 1e-3)[1] for n in sorted({int(round(v)) for v in np.geomspace(10, 1e4, 16)})]
        assert np.mean(per_solve) <= 6
        assert max(per_solve) <= 8


class TestDeterministicEquivalents:
    @pytest.mark.parametrize("case", GOLDEN_DETEQ)
    def test_golden_documents_match_exact_oracle(self, case):
        check_prediction_oracles(PREDICTION_CASES[case])

    test_zero_target_variance_formula = family("zero target")
    test_isotropic_unit_energy = family("isotropic ridgeless")
    test_no_learning_limit = family("no learning")
    test_identities = family("identities", exact=False)
    test_scale_covariance = family("scale")
    test_bias_bitwise_equal_to_out_of_place_shrink = family("bias bitwise")
    test_residual_energy_enters_unshrunk = family("residual")


class TestTruncatedModel:
    test_full_cut_matches_plain_solve = family("full cut")
    test_full_cut_ridgeless_rank_check = family("full cut ridgeless")
    test_two_scale_instance_and_bound = family("two scale")
    test_truncated_risk_full_cut = family("full cut risk")
    test_truncated_risk_near_full_risk = family("two scale risk")
    test_block_splitting_cut = family("block split")
    test_truncated_model_matches_blockwise_split = family("blockwise split", exact=False, inside=50)
