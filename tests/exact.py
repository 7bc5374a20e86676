"""Exact-arithmetic reference for the effective-regularization fixed point and the closed forms at it.

Everything here runs in the standard library's ``decimal`` at ``DIGITS``
significant digits, with no numpy and no code shared with ``krrdeteq``.  Each
float input converts to a Decimal exactly, so the reference differs from the
true values only by the width of the root's bracket (``RTOL``) and 80-digit
rounding, both far below double precision.

    fixed_point(blocks, n, lam) -> FixedPoint(lambda_star, upsilon1, upsilon2, scaled_slope)
    closed_forms(point, blocks, energies, residual_energy, noise_variance, n, lam)
        -> ClosedForms(stieltjes, bias, variance, risk, train)
    functionals(point, blocks, n, lam, beta=None) -> Functionals(psi1, psi2, psi3, psi4)
    spectral_gcv(mu, c, n, lam) -> SpectralGcv(gcv, train, stieltjes)

``blocks`` is a sequence of ``(eigenvalue, multiplicity)`` pairs.  The root s of
the defect g(s) = n - lam/s - sum_k m_k xi_k/(xi_k + s) is found by bisection
in log s to a relative width of ``NEWTON_FROM``, then by Newton's method from the
bracket's left end: on the increasing, concave defect each step lands at or left
of the root.  After the first step below ``RTOL`` relative, g(s (1 + RTOL)) >= 0
is asserted, so the root lies in [s, s (1 + RTOL)].  Upsilon_1 = T1/n,
Upsilon_2 = T2/n and s g'(s) are evaluated at s.
The last is the root's conditioning: a defect d at a nearby point moves it by
about d / g'(s), so by d / (s g'(s)) relative.
``closed_forms`` evaluates the risk predictions at that root, with
``energies[k]`` the target energy of block k, and ``functionals`` the four
resolvent-functional predictions psi1-psi4 for A = I or a RiskMatrix.
``spectral_gcv`` is the data side: the GCV score, train error and Stieltjes
value of a Gram matrix given exactly by its eigenvalues and the labels in its
eigenbasis.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

DIGITS = 80
RTOL = Decimal("1e-40")  # the root lies in [s, s (1 + RTOL)]
NEWTON_FROM = Decimal("1e-3")  # bisection hands over to Newton once hi/lo - 1 is below this


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

        def slope(s):
            return ridge / (s * s) + sum(m * v / (v + s) ** 2 for v, m in terms)

        # at hi = 2 (lam + trace)/n, lam/s + T1 <= (lam + trace)/s = n/2, so the defect is >= n/2;
        # at lam/n it is -T1 < 0, and at lam = 0 it tends to n - rank < 0 as s -> 0
        hi = 2 * (ridge + sum(m * v for v, m in terms)) / size
        lo = ridge / size if ridge > 0 else hi
        while defect(lo) >= 0:
            lo /= Decimal(10) ** 10
        while hi / lo - 1 > NEWTON_FROM:
            mid = (lo * hi).sqrt()
            if defect(mid) < 0:
                lo = mid
            else:
                hi = mid
        s, step = lo, lo
        while step > RTOL * s:
            step = -defect(s) / slope(s)
            s += step
        assert defect(s * (1 + RTOL)) >= 0, "the root is not bracketed"
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


class Functionals(NamedTuple):
    psi1: Decimal
    psi2: Decimal
    psi3: Decimal
    psi4: Decimal


def functionals(point: FixedPoint, blocks, n: int, lam: float, beta=None) -> Functionals:
    """psi1-psi4 at the exact fixed point ``point``, for A = I (``beta`` None) or the RiskMatrix of ``beta``.

    With mu = lam/s, A = I gives psi1 = n U1/mu, psi2 = U1, psi3 = n U2/(mu^2 (1 - U2)) and
    psi4 = U2/(n (1 - U2)).  The RiskMatrix sums over the expanded directions i, with sigma_i the
    eigenvalue of direction i: psi1 = sum beta_i^2/(sigma_i (mu sigma_i + lam)), psi2 = U1,
    psi3 = sum beta_i^2/(mu sigma_i + lam)^2/(1 - U2) and psi4 = sum beta_i^2/(sigma_i + s)^2/(n^2 (1 - U2)).
    Needs lam > 0.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s, u1, u2 = point.lambda_star, point.upsilon1, point.upsilon2
        ridge, denom = Decimal(float(lam)), 1 - u2
        mu = ridge / s
        if beta is None:
            return Functionals(n * u1 / mu, u1, n * u2 / (mu * mu * denom), u2 / (n * denom))
        # the directions of a block share its eigenvalue: sum their beta_i^2 per block
        beta, start, weights = [float(b) for b in beta], 0, []
        for value, mult in blocks:
            weights.append((Decimal(float(value)), _square_sum(beta[start : start + int(mult)])))
            start += int(mult)
        psi1 = sum(b2 / (v * (mu * v + ridge)) for v, b2 in weights)
        psi3 = sum(b2 / (mu * v + ridge) ** 2 for v, b2 in weights) / denom
        psi4 = sum(b2 / (v + s) ** 2 for v, b2 in weights) / (n * n * denom)
        return Functionals(psi1, u1, psi3, psi4)


def _square_sum(values) -> Decimal:
    """The sum of the squares of the floats ``values``, exact in integers and then rounded once to ``DIGITS`` digits."""
    low = math.frexp(min(map(abs, values), default=1.0) or 5e-324)[1]  # no value has a smaller exponent
    # v = f 2^e with f 2^53 an integer
    total = sum(int(f * 2**53) ** 2 << 2 * (e - low) for f, e in map(math.frexp, values))
    shift = 2 * low - 106
    return Decimal(total << shift) if shift >= 0 else Decimal(total) / Decimal(2**-shift)


class SpectralGcv(NamedTuple):
    gcv: Decimal
    train: Decimal
    stieltjes: Decimal


def spectral_gcv(mu, c, n: int, lam: float) -> SpectralGcv:
    """GCV, train error and Stieltjes value of the Gram matrix V diag(mu) V^T with labels y = V c.

    With r_i = 1/(mu_i + lam): gcv = n sum (c_i r_i)^2 / (sum r_i)^2, train = lam^2 sum (c_i r_i)^2 / n
    and stieltjes = sum r_i / n, the n ||alpha||^2 / Tr((K + lam)^-1)^2, ||y - K alpha||^2 / n and
    Tr((K + lam)^-1) / n of krrdeteq.krr.  Needs every mu_i + lam > 0.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ridge = Decimal(float(lam))
        r = [1 / (Decimal(float(m)) + ridge) for m in mu]
        quad = sum((Decimal(float(ci)) * ri) ** 2 for ci, ri in zip(c, r))
        trace = sum(r)
        return SpectralGcv(n * quad / trace**2, ridge**2 * quad / n, trace / n)
