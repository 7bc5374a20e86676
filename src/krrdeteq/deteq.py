"""Effective regularization fixed point and closed-form risk predictions.

The central quantity is the effective regularization lambda_star, the unique
nonnegative solution of

    n - lam / lambda_star = sum_k m_k xi_k / (xi_k + lambda_star).

It is found by Newton's method on the concave, increasing defect: a
log-domain Newton step speeds the climb from the left, and the largest plain
Newton iterate, which never passes the root, is the fallback (see
``solve_effective_reg``).
Everything else (test risk, bias, variance, training error, Stieltjes
transform) is an explicit function of lambda_star and the spectral sums.
The sums over blocks use np.einsum, not np.dot: threaded BLAS splits long
dot products across threads, which would make the results depend on the
BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ModelSpec, Spectrum, SpectrumError, trace_resolvents

__all__ = [
    "FixedPointError",
    "EffectiveReg",
    "DetEquivalents",
    "solve_effective_reg",
    "deterministic_equivalents",
]

RESIDUAL_RTOL = 1e-12
DENOM_FLOOR = 1e-12
# From far left of the root, g grows about like log s on spectra spread over
# many decades and each plain Newton step multiplies s by only (1 + remaining
# log-distance): a climb over the whole double range takes about 250 steps.
# The solver may spend one evaluation per plain step on a log-domain proposal
# that overshoots, so it is bounded by 2 * MAX_NEWTON evaluations.
MAX_NEWTON = 500


class FixedPointError(ArithmeticError):
    """The effective-regularization equation has no admissible solution."""


@dataclass(frozen=True)
class EffectiveReg:
    """Solved effective regularization for one (n, spectrum, lambda) triple.

    ``residual`` is the defect n - lam/lambda_star - T1(lambda_star) at the
    returned root, the solution certificate; ``evaluations`` is the number of
    resolvent sums (``trace_resolvents`` calls) the solve made.
    """

    lambda_star: float
    mu_star: float
    upsilon1: float
    upsilon2: float
    residual: float
    evaluations: int


@dataclass(frozen=True)
class DetEquivalents:
    """Bundle of closed-form predictions for one model instance."""

    stieltjes: float
    bias: float
    variance: float
    risk: float
    train: float
    effective: EffectiveReg


def solve_effective_reg(spectrum: Spectrum, n: int, lam: float) -> EffectiveReg:
    """Solve the effective-regularization fixed point for (n, spectrum, lam).

    The defect g(s) = n - lam/s - sum_k m_k xi_k/(xi_k + s) is increasing and
    concave in s, so a plain Newton iterate s (1 - g / (s g'(s))), taken
    relative to s so that it stays finite for subnormal lam, lies at or left
    of the root from either side whenever it is positive (Ortega & Rheinboldt
    1970, 13.3).  ``left`` keeps the largest such iterate.  Far left of the
    root plain Newton gains only a factor of about 3 per step, so from a point
    with g < 0 the solver proposes the Newton step on log(lam/s + T1) = log n
    in log s, s exp(log(F/n) F / (s g')) with F = n - g, and takes it if it is
    finite and past ``left``; otherwise, and from every point with g > 0, it
    goes to ``left``.  A proposal that lands left of the root is at least as
    far along as the plain step it replaced, and one that lands right costs
    one evaluation before the plain step, so a solve takes at most twice the
    evaluations of plain monotone Newton.  The start is lam/n (where
    g = -T1 < 0), or 1e-300 * trace/n when lam = 0.  The iteration stops once
    |g| <= 1e-14 * n or the next point equals the current one; the returned
    root is the last point evaluated, with the certificate
    |residual| <= 1e-12 * n and its Upsilons from the same evaluation, or
    FixedPointError is raised.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise SpectrumError("regularization must be finite and nonnegative")
    if n < 1:
        raise SpectrumError("n must be a positive integer")
    if lam == 0 and spectrum.total_rank <= n:
        raise FixedPointError(
            f"no positive fixed point: lambda = 0 with rank {spectrum.total_rank} <= n = {n}"
        )
    tol = RESIDUAL_RTOL * n
    # lam/n underflows to 0 for the smallest subnormal lam
    nxt = max(lam / n, 5e-324) if lam > 0 else 1e-300 * spectrum.trace / n
    left = 0.0  # the largest plain Newton iterate so far, never right of the root
    for evaluations in range(1, 2 * MAX_NEWTON + 1):
        ls = nxt
        t1, t2, slope = trace_resolvents(spectrum, ls)
        residual = n - lam / ls - t1
        if abs(residual) <= 0.01 * tol:
            break
        # s g'(s) = lam/s + sum_k m_k xi_k s/(xi_k+s)^2 > 0
        scaled_slope = lam / ls + slope
        nxt = left = max(left, ls * (1.0 - residual / scaled_slope))
        if residual < 0:
            # Newton on log(lam/s + T1) = log n in log s, taken only if finite and past left
            total = n - residual
            log_move = math.log(total / n) * total / scaled_slope
            proposal = ls * math.exp(log_move) if log_move < 709.78 else math.inf  # math.exp raises past it
            if left < proposal < math.inf:
                nxt = proposal
        # no progress, or a step past 0 from a start right of a root below 5e-324
        if nxt == ls or not nxt > 0:
            break
    if abs(residual) > tol:
        raise FixedPointError(f"fixed point did not converge: residual {residual:.3e}")
    return EffectiveReg(
        lambda_star=ls,
        mu_star=lam / ls,
        upsilon1=t1 / n,
        upsilon2=t2 / n,
        residual=residual,
        evaluations=evaluations,
    )


def _risk_denominator(eff: EffectiveReg) -> float:
    """1 - Upsilon2, the denominator of the risk and of psi3 and psi4; FixedPointError at or below DENOM_FLOOR."""
    denom = 1.0 - eff.upsilon2
    if denom <= DENOM_FLOOR:
        raise FixedPointError(f"degenerate denominator 1 - Upsilon2 = {denom:.3e}")
    return denom


def deterministic_equivalents(spec: ModelSpec) -> DetEquivalents:
    """Closed-form test/train risk predictions for one model instance.

    bias = (ls^2 * sum_k t_k/(xi_k+ls)^2 + residual_energy) / (1 - U2)
    variance = sigma^2 * U2 / (1 - U2)
    risk = bias + variance + sigma^2
    train = (lam * stieltjes)^2 * risk,   stieltjes = 1/(n*ls).
    1 - U2 <= DENOM_FLOOR raises FixedPointError; a risk that is not finite raises SpectrumError.
    """
    eff = solve_effective_reg(spec.spectrum, spec.n, spec.lam)
    denom = _risk_denominator(eff)
    ls = eff.lambda_star
    sigma2 = spec.noise.variance
    shrink = spec.spectrum.values + ls
    np.divide(ls, shrink, out=shrink)
    shrink *= shrink
    bias_num = float(np.einsum("i,i->", spec.alignment.energies, shrink))
    bias = (bias_num + spec.alignment.residual_energy) / denom
    variance = sigma2 * eff.upsilon2 / denom
    risk = bias + variance + sigma2
    if not math.isfinite(risk):
        raise SpectrumError(f"risk prediction {risk} is not finite: alignment or noise energy too large")
    stieltjes = 1.0 / (spec.n * ls)
    train = (spec.lam * stieltjes) ** 2 * risk
    return DetEquivalents(stieltjes, bias, variance, risk, train, eff)

