"""Exact-arithmetic reference for the effective-regularization fixed point and the closed forms at it.

Everything here runs in the standard library's ``decimal`` at ``DIGITS``
significant digits, with no numpy and no code shared with ``krrdeteq``.  Each
float input converts to a Decimal exactly, so the reference differs from the
true values only by the bisection width (``RTOL``) and 80-digit rounding, both
far below double precision.

    fixed_point(blocks, n, lam) -> FixedPoint(lambda_star, upsilon1, upsilon2, scaled_slope)
    closed_forms(point, blocks, energies, residual_energy, noise_variance, n, lam)
        -> ClosedForms(stieltjes, bias, variance, risk, train)

``blocks`` is a sequence of ``(eigenvalue, multiplicity)`` pairs.  The root s of
the defect g(s) = n - lam/s - sum_k m_k xi_k/(xi_k + s) is found by bisection
in log s; Upsilon_1 = T1/n, Upsilon_2 = T2/n and s g'(s) are evaluated there.
The last is the root's conditioning: a defect d at a nearby point moves it by
about d / g'(s), so by d / (s g'(s)) relative.
``closed_forms`` evaluates the risk predictions at that root, with
``energies[k]`` the target energy of block k.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import NamedTuple

DIGITS = 80
RTOL = Decimal("1e-40")  # bisection stops once hi/lo - 1 is below this


class FixedPoint(NamedTuple):
    lambda_star: Decimal
    upsilon1: Decimal
    upsilon2: Decimal
    scaled_slope: Decimal  # s g'(s) = lam/s + sum_k m_k xi_k s/(xi_k + s)^2


def fixed_point(blocks, n: int, lam: float) -> FixedPoint:
    """The exact fixed point of the block spectrum at sample size n and lam >= 0.

    Needs lam > 0 or a total rank above n, as the solver does.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        terms = [(Decimal(float(value)), int(mult)) for value, mult in blocks]
        size, ridge = Decimal(n), Decimal(float(lam))

        def defect(s):
            return size - ridge / s - sum(m * v / (v + s) for v, m in terms)

        # at hi = 2 (lam + trace)/n, lam/s + T1 <= (lam + trace)/s = n/2, so the defect is >= n/2;
        # at lam/n it is -T1 < 0, and at lam = 0 it tends to n - rank < 0 as s -> 0
        hi = 2 * (ridge + sum(m * v for v, m in terms)) / size
        lo = ridge / size if ridge > 0 else hi
        while defect(lo) >= 0:
            lo /= Decimal(10) ** 10
        while hi / lo - 1 > RTOL:
            mid = (lo * hi).sqrt()
            if defect(mid) < 0:
                lo = mid
            else:
                hi = mid
        s = (lo + hi) / 2
        ratios = [(m, v / (v + s)) for v, m in terms]
        t1 = sum(m * r for m, r in ratios)
        t2 = sum(m * r * r for m, r in ratios)
        slope = sum(m * v * s / (v + s) ** 2 for v, m in terms)
        return FixedPoint(s, t1 / size, t2 / size, ridge / s + slope)


class ClosedForms(NamedTuple):
    stieltjes: Decimal
    bias: Decimal
    variance: Decimal
    risk: Decimal
    train: Decimal


def closed_forms(point: FixedPoint, blocks, energies, residual_energy: float, noise_variance: float, n: int, lam: float):
    """The closed-form predictions at the exact fixed point ``point`` of ``blocks``.

    bias = (s^2 sum_k t_k/(xi_k + s)^2 + residual) / (1 - U2), variance = sigma^2 U2 / (1 - U2),
    risk = bias + variance + sigma^2, stieltjes = 1/(n s) and train = (lam stieltjes)^2 risk.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s, denom = point.lambda_star, 1 - point.upsilon2
        sigma2 = Decimal(float(noise_variance))
        shrunk = sum(Decimal(float(t)) * (s / (Decimal(float(v)) + s)) ** 2 for (v, _), t in zip(blocks, energies))
        bias = (shrunk + Decimal(float(residual_energy))) / denom
        variance = sigma2 * point.upsilon2 / denom
        risk = bias + variance + sigma2
        stieltjes = 1 / (n * s)
        return ClosedForms(stieltjes, bias, variance, risk, (Decimal(float(lam)) * stieltjes) ** 2 * risk)
