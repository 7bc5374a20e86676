"""Closed-form risk predictions for kernel ridge regression.

Solve the effective-regularization fixed point of a kernel spectrum,
evaluate the closed-form test/train/GCV predictions, and verify them against
empirical KRR on synthetic data (Gaussian features and inner-product kernels
on the sphere).
"""

from .deteq import (
    DetEquivalents,
    EffectiveReg,
    FixedPointError,
    deterministic_equivalents,
    solve_effective_reg,
    truncated_effective_reg,
    truncated_risk_deteq,
)
from .estimation import EstimatedDecomposition, estimate_spectrum, plugin_risk_curve
from .functionals import (
    FeatureSample,
    IdentityMatrix,
    RiskMatrix,
    convergence_probe,
    deterministic_functionals,
    empirical_functionals,
    sample_gaussian_features,
)
from .harness import ExperimentConfig, emit_results, run_experiment
from .krr import (
    GramMatrix,
    KrrFit,
    empirical_stieltjes,
    fit_krr,
    gcv,
    test_error_linear_exact,
    test_error_monte_carlo,
    train_error,
)
from .spectrum import (
    Alignment,
    ModelSpec,
    NoiseModel,
    Spectrum,
    effective_rank,
    nu_diagnostic,
    tail_rank,
    trace_resolvents,
)
from .sphere import (
    GegenbauerBasis,
    SphereKernel,
    SphereTarget,
    build_cyclic_target,
    dim_spherical,
    exact_sphere_risk,
    kernel_from_gaps,
    sample_sphere,
    sphere_spectrum,
)

__version__ = "0.1.0"
