"""Effective regularization fixed point and closed-form risk predictions.

The central quantity is the effective regularization lambda_star, the unique
nonnegative solution of

    n - lam / lambda_star = sum_k m_k xi_k / (xi_k + lambda_star).

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
    "truncated_risk_deteq",
    "isotropic_effective_reg",
]

RESIDUAL_RTOL = 1e-12
DENOM_FLOOR = 1e-12
# From far left of the root, g grows about like log s on spectra spread over
# many decades and each step multiplies s by only (1 + remaining log-distance):
# a climb over the whole double range takes about 250 steps.
MAX_NEWTON = 500


class FixedPointError(ArithmeticError):
    """The effective-regularization equation has no admissible solution."""


@dataclass(frozen=True)
class EffectiveReg:
    """Solved effective regularization for one (n, spectrum, lambda) triple.

    ``residual`` is the defect n - lam/lambda_star - T1(lambda_star) at the
    returned root, the solution certificate.
    """

    lambda_star: float
    mu_star: float
    upsilon1: float
    upsilon2: float
    residual: float


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
    concave in s, so Newton's method started left of the root rises
    monotonically to it and never overshoots.  The start is lam/n (where
    g = -T1 < 0), or 1e-300 * trace/n when lam = 0.  Each step is taken
    relative to s, s *= 1 - g / (s g'(s)), which stays finite for subnormal
    lam.  The iteration stops once |g| <= 1e-14 * n or the step no longer
    moves s; the returned root carries the certificate |residual| <= 1e-12 * n
    and its Upsilons from the same evaluation, or FixedPointError is raised.
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
    for _ in range(MAX_NEWTON):
        ls = nxt
        t1, t2, slope = trace_resolvents(spectrum, ls)
        residual = n - lam / ls - t1
        if abs(residual) <= 0.01 * tol:
            break
        # s g'(s) = lam/s + sum_k m_k xi_k s/(xi_k+s)^2 > 0
        nxt = ls * (1.0 - residual / (lam / ls + slope))
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
    )


def isotropic_effective_reg(xi: float, p: int, n: int, lam: float) -> float:
    """Closed-form root for a single-block spectrum {(xi, p)}.

    From n*ls^2 + (n*xi - lam - p*xi)*ls - lam*xi = 0, the positive root.
    Used as an independent oracle for the numeric solver.
    """
    b = n * xi - lam - p * xi
    disc = b * b + 4.0 * n * lam * xi
    root = (-b + math.sqrt(disc)) / (2.0 * n)
    if root <= 0 and lam == 0:
        # lam = 0 collapses the quadratic to n*ls + (n-p)*xi = 0
        root = (p - n) * xi / n
    return root


def deterministic_equivalents(spec: ModelSpec) -> DetEquivalents:
    """Closed-form test/train risk predictions for one model instance.

    bias = (ls^2 * sum_k t_k/(xi_k+ls)^2 + residual_energy) / (1 - U2)
    variance = sigma^2 * U2 / (1 - U2)
    risk = bias + variance + sigma^2
    train = (lam * stieltjes)^2 * risk,   stieltjes = 1/(n*ls).
    """
    eff = solve_effective_reg(spec.spectrum, spec.n, spec.lam)
    denom = 1.0 - eff.upsilon2
    if denom <= DENOM_FLOOR:
        raise FixedPointError(f"degenerate denominator 1 - Upsilon2 = {denom:.3e}")
    ls = eff.lambda_star
    sigma2 = spec.noise.variance
    shrink = spec.spectrum.values + ls
    np.divide(ls, shrink, out=shrink)
    shrink *= shrink
    bias_num = float(np.einsum("i,i->", spec.alignment.energies, shrink))
    bias = (bias_num + spec.alignment.residual_energy) / denom
    variance = sigma2 * eff.upsilon2 / denom
    risk = bias + variance + sigma2
    stieltjes = 1.0 / (spec.n * ls)
    train = (spec.lam * stieltjes) ** 2 * risk
    return DetEquivalents(stieltjes, bias, variance, risk, train, eff)


def truncated_risk_deteq(spec: ModelSpec, m: int) -> float:
    """Risk prediction of the truncated model ``spec.truncated(m)`` at expanded cut m.

    The top-m part keeps its alignment; the tail's trace joins lambda and its
    target energy joins the residual, where it acts as extra label noise
    beside sigma^2.  At m = 0 nothing is learned and the risk is the total
    target energy plus sigma^2.
    """
    if m == 0:
        return spec.alignment.total_energy + spec.noise.variance
    return deterministic_equivalents(spec.truncated(m)).risk
