"""Estimate the kernel spectrum and target alignment from a holdout sample.

Eigendecomposing K/m on a holdout of size m gives eigenvalue estimates
xi_hat_j = mu_j and alignment estimates beta_hat_j = v_j^T y / sqrt(m).
``decomposition_to_model`` packs them into a ModelSpec, whose closed-form
predictions give learning-curve estimates without access to the true
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krr import GramMatrix, KrrError, _labels
from .spectrum import Alignment, ModelSpec, NoiseModel, Spectrum

__all__ = ["EstimatedDecomposition", "estimate_spectrum", "decomposition_to_model"]

EIG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class EstimatedDecomposition:
    """Holdout eigenvalues (nonincreasing) and squared alignment coefficients.

    Kept at full length m so that Parseval holds exactly:
    sum_j alignments[j] = ||y||^2 / m.  ``noise_estimate`` averages the
    alignment mass on numerically-zero eigendirections when any exist.
    """

    eigenvalues: np.ndarray
    alignments: np.ndarray
    holdout_size: int
    noise_estimate: float | None = None


def estimate_spectrum(gram: GramMatrix, y: np.ndarray) -> EstimatedDecomposition:
    """Eigendecompose K/m and project the labels onto the eigenbasis."""
    m = gram.n
    y = _labels(y, m)
    mu, v = gram.eigendecomposition()  # raises on non-p.s.d. input
    mu = mu[::-1] / m
    v = v[:, ::-1]
    beta_sq = (v.T @ y) ** 2 / m
    eigenvalues = np.maximum(mu, 0.0)
    zero = eigenvalues <= EIG_FLOOR * max(eigenvalues[0], 0.0)
    noise_estimate = None
    if np.any(zero):
        noise_estimate = float(beta_sq[zero].mean() * m)
    return EstimatedDecomposition(
        eigenvalues=eigenvalues,
        alignments=beta_sq,
        holdout_size=m,
        noise_estimate=noise_estimate,
    )


def decomposition_to_model(
    est: EstimatedDecomposition,
    n: int,
    lam: float,
    noise_variance: float,
    truncation: int | None = None,
) -> ModelSpec:
    """Assemble a prediction instance from estimated quantities.

    Keeps the top ``truncation`` eigendirections above the numerical-rank
    floor (default m/2); alignment mass beyond them joins the residual.  Each
    squared coefficient inflates by about noise_variance/m in expectation, so
    that amount is always subtracted: per kept coordinate, clamped at zero,
    and (m - keep) times from the residual, clamped at zero.
    """
    m = est.holdout_size
    j_max = m // 2 if truncation is None else int(truncation)
    if not 1 <= j_max <= m:
        raise KrrError(f"truncation {j_max} outside [1, {m}]")
    keep = min(j_max, int(np.sum(est.eigenvalues > EIG_FLOOR * max(est.eigenvalues[0], 0.0))))
    if keep < 1:
        raise KrrError("no eigenvalues above the numerical-rank floor")
    beta_sq = est.alignments[:keep].copy()
    residual = float(est.alignments[keep:].sum())
    if noise_variance > 0:
        # retained coordinates: per-coordinate subtraction, clamped at 0;
        # tail: aggregate subtraction (per-coordinate clamping would inflate
        # the residual by ~2*phi(1)*sigma^2*(m-keep)/m on pure-noise modes)
        beta_sq = np.maximum(beta_sq - noise_variance / m, 0.0)
        residual = max(residual - (m - keep) * noise_variance / m, 0.0)
    spectrum = Spectrum(est.eigenvalues[:keep], np.ones(keep, dtype=np.int64))
    alignment = Alignment(beta_sq, residual_energy=residual)
    return ModelSpec(
        n=n, lam=lam, spectrum=spectrum, alignment=alignment, noise=NoiseModel(noise_variance)
    )

