"""The library's error table, as ``CONTRACT`` in tests/test_cli.py is the CLI's: each bad input to an entry point, the
exact error it raises and a needle its one-line message holds, a string it contains or, where the whole message is
pinned, a pattern it matches.  The NAMED families hold rows of the same kind for the parametrized tests that run them
in their own modules.  ``test_every_raise_runs_in_a_row`` holds all of them and CONTRACT to every ``raise`` in
src/krrdeteq."""

import ast
import math
import re
import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from krrdeteq.config import ConfigError, ExperimentConfig
from krrdeteq.deteq import FixedPointError, deterministic_equivalents, solve_effective_reg
from krrdeteq.estimation import EstimatedDecomposition, decomposition_to_model, estimate_spectrum
from krrdeteq.functionals import (FeatureSample, IdentityMatrix, RiskMatrix, convergence_probe, deterministic_functionals,
                                  empirical_functionals, sample_gaussian_features)
from krrdeteq.harness import ExperimentResult, emit_results
from krrdeteq.krr import GramMatrix, KrrError, fit_krr, gcv, linear_sweep, read_gram_binary, read_labels_binary, train_error
from krrdeteq.krr import test_error_linear_exact as linear_risk
from krrdeteq.krr import test_error_monte_carlo as monte_carlo_risk
from krrdeteq.spectrum import (Alignment, ModelSpec, NoiseModel, Spectrum, SpectrumError, effective_rank, model_from_json,
                               nu_diagnostic, tail_rank, trace_resolvents)
from krrdeteq.sphere import (GegenbauerBasis, SphereError, SphereKernel, SphereTarget, dim_spherical, exact_sphere_risk,
                             kernel_from_gaps, sample_sphere, sphere_moment, sphere_spectrum)

from conftest import SRC, executed_lines, gegenbauer, h_values
from test_cli import CONTRACT, run_contract_row

NAN, INF = math.nan, math.inf
S2, S3, S4, S10 = (Spectrum.from_blocks([(1.0, p)]) for p in (2, 3, 4, 10))
TWO, HALVES = Spectrum.from_blocks([(2.0, 3), (1.0, 1)]), Spectrum.from_blocks([(1.0, 10), (0.5, 10)])
RANK50 = Spectrum.from_blocks([(2.0, 50)])
P4, P50 = Spectrum.power_law(1.0, 4), Spectrum.power_law(2.0, 50)
X3, X6 = (sample_gaussian_features(P4, n, 0) for n in (3, 6))  # the dual and the primal route
X10, X60 = (sample_gaussian_features(P50, n, 0).matrix for n in (10, 60))
FLAT, EYE2 = sample_gaussian_features(S3, 4, 0), GramMatrix(np.eye(2))
INDEFINITE, TINY = np.array([[1.0, 2.0], [2.0, 1.0]]), GramMatrix(1e-300 * np.eye(2))  # INDEFINITE: eigenvalues 3 and -1
FIT2, FIT3 = (fit_krr(GramMatrix(np.eye(n)), np.zeros(n), 1.0) for n in (2, 3))
KERN10, KERN24 = kernel_from_gaps(10, 2, 4.0), kernel_from_gaps(24, 2, 8.0)
TARGET10, TARGET24 = SphereTarget(10, {1: 1.0}), SphereTarget(24, {1: 1.0})
ZERO_KERNEL, SPHERE3 = SphereKernel(10, np.zeros(2)), sample_sphere(10, 3, 0)
MATRICES = {"identity": IdentityMatrix, "risk": lambda p: RiskMatrix(np.ones(p))}
DOC = {"blocks": [[1.0, 2]], "residual_energy": 0.0, "noise_variance": 0.0}
NONNEGATIVE = "must be finite and nonnegative"


def put(array, index, value):
    """A float copy of ``array`` with ``value`` at ``index``."""
    array = np.array(array, dtype=float)
    array[index] = value
    return array


def read(reader, data):
    """``reader`` on a file that holds ``data``, written in the working directory, the test's own."""
    Path("file.bin").write_bytes(data)
    return reader(Path("file.bin"))


def model(n, lam, spectrum, energies=(0.0,), residual=0.0):
    return ModelSpec(n=n, lam=lam, spectrum=spectrum, alignment=Alignment(np.array(energies), residual))


def whole(message):
    """A needle that matches all of ``message``."""
    return re.compile(f"^{re.escape(message)}$")


def rows(error, table):
    """ERRORS rows of ``error`` from a table of id -> (call, needle)."""
    return {case: (call, error, needle) for case, (call, needle) in table.items()}


# id -> (call, exact error type, needle)
ERRORS = {
    **rows(KrrError, {
        "krr-gram-not-square": (lambda: GramMatrix(np.ones((2, 3))), "Gram matrix must be square"),
        "krr-gram-asymmetric": (lambda: GramMatrix(np.array([[1.0, 0.5], [0.2, 1.0]])), "Gram matrix must be symmetric"),
        "krr-gram-indefinite-on-use": (lambda: GramMatrix(np.diag([1.0, -0.5])).eigendecomposition(), "Gram matrix is not p.s.d."),
        "krr-gcv-ridgeless-indefinite": (lambda: gcv(GramMatrix(INDEFINITE), [1.0, 0.0], 0.0), "Gram matrix is not p.s.d."),
        **{
            f"krr-{name}-{case}": (partial(solve, GramMatrix(k), y, lam), needle)
            for name, solve in (("fit", fit_krr), ("gcv", gcv))
            for case, k, y, lam, needle in (
                ("ridgeless-rank-deficient", np.ones((3, 3)), [1, 2, 3], 0.0, "interpolation ill-posed: Gram matrix is rank deficient"),
                ("shifted-indefinite", INDEFINITE, [1.0, 0.0], 0.5, "shifted Gram matrix is not positive definite"),
                ("shifted-overflow", np.diag([1e308, 1e308]), [1.0, 1.0], 1e308, "shifted Gram matrix K + lam I overflows"),
            )
        },
        "krr-fit-negative-lambda": (partial(fit_krr, EYE2, [1.0, 1.0], -1.0), "lambda " + NONNEGATIVE),
        **{f"krr-train-error-{len(y)}-labels": (partial(train_error, FIT2, y), "label vector length") for y in ([1, 2, 3], [1])},
        "krr-train-error-inf-label": (partial(train_error, FIT2, [INF, 1.0]), "labels must be finite"),
        "krr-linear-risk-nan-label": (partial(linear_risk, FLAT, np.ones(3), [NAN, 0, 0, 0], 0.0, 0.0), "labels must be finite"),
        "krr-linear-risk-target-size": (partial(linear_risk, FLAT, np.ones(2), np.zeros(4), 0.1, 0.0), "feature/target dimensions"),
        "krr-linear-risk-rank-deficient": (  # three rows of two equal columns, at lam = 0
            partial(linear_risk, FeatureSample(np.outer([1.0, 2.0, 3.0], [1.0, 1.0]), S2), np.ones(2), np.zeros(3), 0.0, 0.0),
            "ridgeless least squares ill-posed: features rank deficient",
        ),
        "krr-sweep-nan-label": (partial(linear_sweep, FLAT, np.ones(3), [NAN, 0, 0, 0], [0.0, 1.0]), "labels must be finite"),
        "krr-sweep-no-rows": (partial(linear_sweep, FeatureSample(np.zeros((0, 3)), S3), np.ones(3), [], [0.0, 1.0]), "Gram size 0"),
        "krr-monte-carlo-no-test-points": (
            partial(monte_carlo_risk, FIT2, np.dot, np.zeros, 0.0, np.ones((2, 2)), np.empty((0, 2))), "Monte Carlo test set must be nonempty"
        ),
        **{
            f"krr-read-{name}": (partial(read, reader, data), needle)
            for name, reader, data, needle in (
                ("gram-bad-magic", read_gram_binary, b"NOPE" + bytes(16), "bad KRRG magic"),
                ("labels-bad-magic", read_labels_binary, b"NOPE" + bytes(16), "bad KRRY magic"),
                ("gram-truncated", read_gram_binary, b"KRRG" + struct.pack("<Q", 4) + bytes(10), "truncated KRRG payload: header n = 4"),
            )
        },
        "estimation-indefinite": (partial(estimate_spectrum, GramMatrix(np.diag([1.0, -1.0])), np.ones(2)), "not p.s.d."),
        "estimation-empty-gram": (partial(estimate_spectrum, GramMatrix(np.zeros((0, 0))), []), "Gram size 0"),
        "estimation-nan-label": (partial(estimate_spectrum, EYE2, [NAN, 1.0]), "labels must be finite"),
        "estimation-truncation-0": (
            partial(decomposition_to_model, EstimatedDecomposition(np.ones(1), np.ones(1), 8), 2, 0.1, 0.0, 0), "truncation 0 outside [1, 8]"
        ),
        "estimation-zero-gram": (
            lambda: decomposition_to_model(estimate_spectrum(GramMatrix(np.zeros((2, 2))), [1.0, 1.0]), 2, 0.1, 0.0),
            "no eigenvalues above the numerical-rank floor",
        ),
    }),
    # a forged cache would skip the p.s.d. check; the cumulative and tail sums are filled from the blocks
    **rows(TypeError, {
        "krr-gram-eig-argument": (lambda: GramMatrix(INDEFINITE, _eig=(np.ones(2), np.eye(2))), "keyword argument '_eig'"),
        **{
            f"spectrum-{name}-argument": (lambda name=name: Spectrum([1.0], [2], **{name: np.ones(1)}), f"argument '{name}'")
            for name in ("_cum_mult", "_tails", "_weights")
        },
    }),
    **rows(SpectrumError, {
        "spectrum-lengths-differ": (lambda: Spectrum(np.array([1.0, 0.5]), np.array([1])), "matching 1-d sequences"),
        "spectrum-no-blocks": (partial(Spectrum.from_blocks, []), "spectrum must contain at least one block"),
        **{f"spectrum-eigenvalue-{v}": (lambda v=v: Spectrum([1.0, v], [1, 1]), "finite and strictly positive") for v in (0.0, -1e-3)},
        "spectrum-increasing": (lambda: Spectrum(np.array([0.5, 1.0]), np.array([1, 1])), "eigenvalues must be nonincreasing"),
        "spectrum-zero-multiplicity": (lambda: Spectrum(np.array([1.0]), np.array([0])), "multiplicities must be positive"),
        # the int64 running sum would wrap to -2**63 + 5
        "spectrum-rank-past-2**63": (partial(Spectrum.from_blocks, [(1.0, 2**62), (0.5, 2**62 + 5)]), "multiplicity must be below 2**63"),
        "spectrum-block-not-a-pair": (partial(Spectrum.from_blocks, [1.0]), "blocks must be (eigenvalue, multiplicity) pairs"),
        # numpy holds 2**63 as uint64, which the int64 cast wraps, and 10**27 as a Python object, which it cannot cast
        **{
            f"spectrum-multiplicity-{name}": (call, whole("total multiplicity must be below 2**63"))
            for name, call in (
                ("10**27", partial(Spectrum.from_blocks, [(1.0, 10), (1e-10, 10**27)])),
                ("2**63-block", partial(Spectrum.from_blocks, [(1.0, 2**63)])),
                ("2**63", partial(Spectrum, [1.0], [2**63])),
            )
        },
        **{
            f"spectrum-multiplicity-{name}": (call, whole("multiplicities must be positive integers"))
            for name, call in (("-10**27-block", partial(Spectrum.from_blocks, [(1.0, -(10**27))])), ("-10**27", partial(Spectrum, [1.0], [-(10**27)])))
        },
        **{
            f"spectrum-power-law-size-{size}": (partial(Spectrum.power_law, 2.0, size), "power-law size must be a positive integer")
            for size in (2.5, True, -3, 0)
        },
        # one message for every expanded index; a fraction or a boolean is no index, though 2.5 lies inside [0, 4]
        **{
            f"spectrum-{name}-{m}": (partial(call, m), whole(f"expanded index must be an integer in [{low}, 4], not {m!r}"))
            for name, call, low, cases in (
                ("eigenvalue-at", TWO.eigenvalue_at, 1, (5, True, 2.5)),
                ("tail-trace", TWO.tail_trace, 0, (-1, 2.5, False)),
                ("head", TWO.head, 1, (0, 5, 2.5)),
                ("tail-rank-m", partial(tail_rank, TWO, lam=0.0), 0, (5, 2.5, True)),
                ("effective-rank-m", partial(effective_rank, TWO, n=4), 1, (0, 5, 2.5)),
                ("nu-m", partial(nu_diagnostic, TWO, n=4, lam=0.1), 1, (0, 5, 2.5)),
            )
            for m in cases
        },
        **{f"spectrum-shift-{s}": (partial(trace_resolvents, S4, s), "resolvent shift s must be positive") for s in (0.0, -1.0, NAN)},
        **{f"spectrum-tail-rank-lambda-{lam}": (partial(tail_rank, S4, 2, lam), "regularization " + NONNEGATIVE) for lam in (NAN, -1.0)},
        **{f"spectrum-nu-lambda-{lam}": (partial(nu_diagnostic, HALVES, 5, 8, lam), "regularization " + NONNEGATIVE) for lam in (NAN, -1.0)},
        **{f"spectrum-effective-rank-n-{n}": (partial(effective_rank, S4, 2, n), whole("n must be a positive integer")) for n in (0, 2.5, True)},
        "spectrum-nu-no-tail": (partial(nu_diagnostic, S4, 4, 4, 0.0), "lambda + tail trace must be positive"),
        "spectrum-alignment-2d": (lambda: Alignment(np.zeros((1, 1))), "alignment energies must be a 1-d sequence"),
        "spectrum-alignment-negative": (lambda: Alignment(np.array([-0.1])), "alignment energies " + NONNEGATIVE),
        "spectrum-alignment-residual": (lambda: Alignment(np.ones(1), -1.0), "residual_energy " + NONNEGATIVE),
        **{f"spectrum-model-n-{n}": (partial(model, n, 0.1, S3), whole("sample count n must be a positive integer")) for n in (0, 3.5, True)},
        "spectrum-model-nan-lambda": (partial(model, 2, NAN, S3), "ridge parameter " + NONNEGATIVE),
        "spectrum-model-ridgeless-rank": (partial(model, 100, 0.0, RANK50), "lambda = 0 requires spectrum rank > n"),
        "spectrum-model-alignment-length": (partial(model, 2, 0.1, Spectrum.from_blocks([(1, 2), (0.5, 2)]), [1.0]), "alignment length must equal"),
        **{
            f"spectrum-truncated-{m}": (partial(model(2, 0.5, S3).truncated, m), f"expanded index must be an integer in [1, 3], not {m}")
            for m in (0, -1, 4, 1.5)
        },
        "spectrum-json-boolean-alignment": (partial(model_from_json, {**DOC, "alignment": [True]}), "alignment must hold numbers, not booleans"),
        "spectrum-json-alignment-not-a-list": (partial(model_from_json, {**DOC, "alignment": 1.0}), "alignment must be a list of numbers"),
        "spectrum-json-alignment-length": (
            partial(model_from_json, {**DOC, "blocks": [[1.0, 2], [0.5, 1]], "alignment": [1.0]}), "alignment length must equal the number"
        ),
        "deteq-nan-lambda": (partial(solve_effective_reg, S10, 10, NAN), "regularization " + NONNEGATIVE),
        **{f"deteq-n-{n}": (partial(solve_effective_reg, S10, n, 1.0), whole("n must be a positive integer")) for n in (0, 2.5, True)},
        "deteq-risk-overflow": (
            lambda: deterministic_equivalents(model(1, 0.1, Spectrum.from_blocks([(1.0, 1), (0.5, 1)]), [1e308, 1e308], 1e308)),
            "is not finite: alignment or noise energy too large",
        ),
        "functionals-psi1-overflow": (partial(deterministic_functionals, P50, 10, 0.1, RiskMatrix(np.full(50, 1e200))), "psi1 is not finite"),
        # at the primal route's lam = 0 X^T X alone factors and every functional is finite, so only the lam check can raise
        **{
            f"functionals-{route}-{kind}-lambda-0": (
                partial(empirical_functionals, x, 0.0, make(4)), whole("empirical functionals require lambda > 0")
            )
            for route, x in (("dual", X3), ("primal", X6)) for kind, make in MATRICES.items()
        },
        "functionals-sample-1d": (partial(FeatureSample, np.zeros(3), P4), "feature matrix must be 2-d"),
        "functionals-sample-width": (partial(FeatureSample, np.zeros((2, 3)), P4), "feature dimension 3 != expanded covariance rank 4"),
        **{
            f"functionals-sample-count-{n}": (partial(sample_gaussian_features, S3, n, 0), "sample count n must be a nonnegative integer")
            for n in (-1, 2.5, True)
        },
        "functionals-no-rows": (partial(empirical_functionals, FeatureSample(np.zeros((0, 4)), P4), 1.0, IdentityMatrix(4)), "at least one row"),
        **{f"functionals-{kind}-size": (partial(empirical_functionals, X3, 1.0, make(5)), "dimension mismatch") for kind, make in MATRICES.items()},
        **{
            f"functionals-{type(a).__name__}-test-matrix": (
                partial(empirical_functionals, X3, 1.0, a), whole(f"test matrix must be an IdentityMatrix or a RiskMatrix, not {type(a).__name__}")
            )
            for a in (np.eye(4), [[1.0]])
        },
        # three equal columns make X^T X + lam singular (primal), three equal rows X X^T + lam (dual)
        "functionals-primal-singular": (
            partial(empirical_functionals, FeatureSample(put(X60, np.s_[:, 1:3], X60[:, :1]), P50), 1e-300, IdentityMatrix(50)),
            re.compile(r"^X\^T X \+ lambda is not numerically positive definite"),
        ),
        **{
            f"functionals-dual-{kind}-singular": (
                partial(empirical_functionals, FeatureSample(np.repeat(X60[:1], 3, axis=0), P50), 1e-300, make(50)),
                re.compile(r"^X X\^T \+ lambda is not numerically positive definite"),
            )
            for kind, make in MATRICES.items()
        },
        "functionals-phi3-overflow": (partial(empirical_functionals, FeatureSample(X10, P50), 1e-300, IdentityMatrix(50)), "phi3 is not finite"),
        "functionals-probe-reps-0": (partial(convergence_probe, P4, [4, 8], 0.5, reps=0), "reps must be a positive integer"),
        "functionals-probe-decreasing-grid": (partial(convergence_probe, P4, [8, 4], 0.5, reps=2), "nonempty and strictly increasing"),
        **{
            f"functionals-probe-grid-{grid}": (partial(convergence_probe, P4, grid, 0.5, reps=2), "nonempty and strictly increasing")
            for grid in ([10, 10], [])
        },
        **{
            f"functionals-probe-grid-{grid}": (partial(convergence_probe, P4, grid, 0.5, reps=2), "n grid entries must be positive integers")
            for grid in ([10.7], [True], ["10"], [4, 8.5])
        },
        **{
            f"functionals-probe-{name}-{value}": (partial(convergence_probe, P4, [4], 0.5, **{name: value}), f"{name} must be a positive integer")
            for name in ("reps", "threads") for value in (True, 2.5)
        },
        "functionals-probe-n-0": (partial(convergence_probe, P4, [0, 4], 0.5), "n grid entries must be positive integers"),
        "functionals-probe-threads-0": (partial(convergence_probe, P4, [4], 0.5, threads=0), "threads must be a positive integer"),
        "functionals-probe-choice": (partial(convergence_probe, P4, [4], 0.5, "bogus"), "unknown test-matrix choice 'bogus'"),
        # checked before the first draw, so the message is the check's own, not a failed replication's
        **{
            f"functionals-probe-lambda-{lam}": (partial(convergence_probe, P4, [4], lam, reps=1), whole("empirical functionals require lambda > 0"))
            for lam in (NAN, INF, 0.0, -1.0, True)
        },
        # the first failed replication names the probe's one error: a non-finite phi, or a zero psi
        "functionals-probe-phi3-overflow": (
            partial(convergence_probe, P50, [10, 20], 1e-300, reps=2),
            re.compile(r"^functional probe failed at n = 10: SpectrumError: phi3 is not finite$"),
        ),
        "functionals-probe-zero-psi": (
            partial(convergence_probe, Spectrum.from_blocks([(1e-300, 50)]), [10, 20], 1.0, reps=2),
            re.compile(r"^functional probe failed at n = 10: ZeroDivisionError"),
        ),
    }),
    **rows(FixedPointError, {
        "deteq-ridgeless-rank": (partial(solve_effective_reg, RANK50, 100, 0.0), "no positive fixed point"),
        # rank 3: the root 5e-324/(n - 3) is below the smallest float at n = 10
        "deteq-root-below-smallest-float": (partial(solve_effective_reg, S3, 10, 5e-324), "did not converge"),
        # at rank = n and lam = 1e-25, 1 - Upsilon2 = 1.9e-13 is below the risk's floor; psi4 was 4 % high there
        "deteq-degenerate-denominator": (lambda: deterministic_equivalents(model(10, 1e-25, S10)), "degenerate denominator"),
        **{
            f"functionals-{kind}-degenerate-denominator": (partial(deterministic_functionals, S10, 10, 1e-25, make(10)), "degenerate denominator")
            for kind, make in MATRICES.items()
        },
    }),
    **rows(SphereError, {
        "sphere-dimension-d-2": (partial(dim_spherical, 2, 1), "ambient dimension must be >= 3"),
        "sphere-dimension-degree--1": (partial(dim_spherical, 10, -1), "degree must be nonnegative"),
        "sphere-moment-order-0": (partial(sphere_moment, 5, 0), "moment order must lie in [1, d]"),
        "sphere-basis-d-2": (partial(GegenbauerBasis, 2, 1), "ambient dimension must be >= 3"),
        "sphere-basis-kmax--1": (partial(GegenbauerBasis, 10, -1), "kmax must be nonnegative"),
        "sphere-basis-past-kmax": (partial(gegenbauer, GegenbauerBasis(10, 3), 4, 0.0), "series has more coefficients than basis degrees"),
        **{f"sphere-basis-at-{t}": (partial(gegenbauer, GegenbauerBasis(10, 3), 2, t), "argument outside [-1, 1]") for t in (1.1, NAN)},
        "sphere-kernel-at-nan": (partial(h_values, kernel_from_gaps(10, 3, 4.0), np.array([NAN, 0.5])), "argument outside [-1, 1]"),
        "sphere-kernel-no-coefficients": (partial(SphereKernel, 10, np.array([])), "kernel coefficients must be a nonempty 1-d sequence"),
        "sphere-kernel-negative": (partial(SphereKernel, 10, np.array([0.0, -0.1])), "kernel eigenvalues " + NONNEGATIVE),
        # B_{1000,8} is about 2.55e19
        "sphere-kernel-past-int64": (lambda: kernel_from_gaps(1000, 8, 2.0).multiplicities(), "at d = 1000 does not fit in int64"),
        "sphere-kernel-point-dimension": (partial(KERN10.gram, np.ones((2, 5))), "point dimension must match the kernel's d"),
        "sphere-gaps-levels-0": (partial(kernel_from_gaps, 10, 0, 2.0), "levels must be >= 1"),
        **{
            f"sphere-gaps-{levels}-levels-{gap}": (partial(kernel_from_gaps, 24, levels, gap), "gap must be positive")
            for levels, gap in ((1, NAN), (3, NAN), (2, 0.0))
        },
        **{
            f"sphere-sample-{name}": (partial(sample_sphere, d, n, 0), f"d and n must be {needle}")
            for name, d, n, needle in (
                ("d-0", 0, 3, "positive"), ("n-0", 10, 0, "positive"),
                ("n-2.5", 10, 2.5, "integers"), ("n-True", 10, True, "integers"), ("d-2.5", 2.5, 3, "integers"),
            )
        },
        "sphere-target-d-2": (partial(SphereTarget, 2, {}), "ambient dimension must be >= 3"),
        **{
            f"sphere-{name}": (call, f"{what} must be an integer, not")
            for name, call, what in (
                ("dimension-d-10.0", partial(dim_spherical, 10.0, 2), "ambient dimension"),
                ("dimension-degree-2.0", partial(dim_spherical, 10, 2.0), "degree"),
                ("moment-order-1.5", partial(sphere_moment, 10, 1.5), "moment order"),
                ("basis-kmax-2.5", partial(GegenbauerBasis, 10, 2.5), "kmax"),
                ("basis-d-True", partial(GegenbauerBasis, True, 2), "ambient dimension"),
                ("kernel-d-10.5", partial(SphereKernel, 10.5, np.ones(2)), "ambient dimension"),
                ("gaps-d-10.5", partial(kernel_from_gaps, 10.5, 2, 4.0), "ambient dimension"),
                ("gaps-levels-2.5", partial(kernel_from_gaps, 10, 2.5, 4.0), "levels"),
                ("target-d-10.5", partial(SphereTarget, 10.5, {1: 1.0}), "ambient dimension"),
                *((f"target-level-{k!r}", partial(SphereTarget, 10, {k: 1.0}), "level") for k in (1.5, True, "1")),
            )
        },
        "sphere-target-negative": (partial(SphereTarget, 10, {1: -1.0}), "level energies " + NONNEGATIVE),
        **{f"sphere-target-level-{k}": (partial(SphereTarget, 5, {k: 1.0}), f"level {k} outside [1, d-1]") for k in (5, 6, 0)},
        "sphere-target-point-dimension": (partial(TARGET10.level_values, 1, np.ones((2, 5))), "point dimension must match the target's d"),
        "sphere-spectrum-dimensions": (partial(sphere_spectrum, KERN24, TARGET10, NoiseModel(0.0), 8, 0.1), "target dimensions disagree"),
        "sphere-spectrum-zero-kernel": (partial(sphere_spectrum, ZERO_KERNEL, TARGET10, NoiseModel(0.0), 8, 0.1), "no positive eigenvalues"),
        "sphere-risk-dimensions": (partial(exact_sphere_risk, FIT3, KERN10, TARGET24, 0.0, SPHERE3), "kernel/target/points dimensions disagree"),
        "sphere-risk-fit-size": (partial(exact_sphere_risk, FIT3, KERN10, TARGET10, 0.0, sample_sphere(10, 4, 0)), "fit size must match the"),
    }),
    **rows(ConfigError, {
        "config-unknown-kind": (partial(ExperimentConfig, kind="bogus"), "unknown experiment kind 'bogus'"),
        "config-document-unknown-kind": (partial(ExperimentConfig.from_dict, {"kind": "mystery"}), "unknown experiment kind 'mystery'"),
        "config-sphere-no-geometry": (partial(ExperimentConfig.from_dict, {"kind": "sphere_curve", "n_grid": [4]}), "d >= 3, levels >= 1, gap > 0"),
        "harness-emit-empty": (partial(emit_results, ExperimentResult([], "curve"), "csv", "x.csv"), "refusing to emit an empty result"),
        "harness-emit-xml": (partial(emit_results, ExperimentResult([{}], "curve"), "xml", "x.xml"), "unknown output format 'xml'"),
    }),
}

# Families of inputs to one check whose cases keep the test ids they had in their own modules: each maps those ids to
# the rows of a case, and the test of that name there runs them with check_rows.
NON_FINITE_FEATURES = {  # a NaN or inf in X, or an entry whose square overflows, makes the Gram that is factored non-finite
    f"{route}-{kind}-{label}": [
        (partial(empirical_functionals, FeatureSample(put(x, (3, 7), v), P50), 0.3, make(50)), SpectrumError, whole(f"{name} + lambda is not finite"))
    ]
    for route, x, name in (("dual", X10, "X X^T"), ("primal", X60, "X^T X"))
    for kind, make in MATRICES.items() for label, v in (("nan", NAN), ("inf", INF), ("overflow", 1e200))
}
GRAM_NON_FINITE = {f"{v}": [(partial(GramMatrix, put(np.eye(3), (2, 1), v)), KrrError, "Gram matrix must be finite")] for v in (NAN, INF, -INF)}
FIT_NON_FINITE_LABELS = {
    f"{v}-{lam}": [(partial(fit_krr, EYE2, [v, 1.0], lam), KrrError, "labels must be finite")] for v in (NAN, INF) for lam in (0.0, 1.0)
}
GCV_NON_FINITE_LABELS = {f"{lam}": [(partial(gcv, EYE2, [NAN, 1.0], lam), KrrError, "labels must be finite")] for lam in (0.0, 0.1)}
# alpha = 1e300 / 1e-300 overflows, and K alpha - y is nan; no numpy warning on the way
NAN_RESIDUAL = {f"{lam}": [(partial(fit_krr, TINY, [1e300] * 2, lam), KrrError, "residual nan")] for lam in (0.0, 1e-300)}
EMPTY_GRAM = {
    f"{lam}": [(partial(solve, GramMatrix(np.zeros((0, 0))), [], lam), KrrError, "Gram size 0") for solve in (fit_krr, gcv)] for lam in (0.0, 0.1)
}
# gcv on K = scale (I + 2/n 11^T), [[2, 1], [1, 2]] at n = 2, whose score leaves the float range; at n = 130 too, where
# the trace comes from a block-split inverse. Tr((K + lam)^-1)^2 underflows to 0, or alpha and the trace overflow, or at
# lam = 0 alpha overflows in the eigenbasis divide; the ids are those of the (scale, labels, lam) parameters
GCV_OUT_OF_RANGE = {
    f"{scale}-labels{i}-{lam}": [(partial(gcv, GramMatrix(scale * (np.eye(n) + 2.0 / n)), y * (n // 2), lam), KrrError, "not a finite float")]
    for i, (n, (scale, y, lam)) in enumerate(
        (n, case) for n in (2, 130) for case in ((1.0, [1.0, -2.0], 1e308), (1e-300, [1e300] * 2, 1e-300), (1e-300, [1e300] * 2, 0.0))
    )
}
SWEEP_LAMBDAS = {
    f"{lam}": [(partial(linear_sweep, FLAT, np.ones(3), np.zeros(4), [0.0, lam]), KrrError, "lambda " + NONNEGATIVE)]
    for lam in (-1.0, -1e-300, NAN, INF)
}
SWEEP_TARGET_SIZE = {
    f"{p}": [(partial(linear_sweep, FLAT, np.ones(p), np.zeros(4), [1]), KrrError, "feature/target dimensions disagree")] for p in (1, 4)
}
GRAM_HEADERS, LABEL_HEADERS = (
    {head: [(partial(read, reader, head), KrrError, needle)] for head, needle in cases}
    for reader, cases in (
        (read_gram_binary, (
            (b"KRRG\x01\x02", "short header b'KRRG\\x01\\x02'"),
            (b"KRRG" + struct.pack("<Q", 2**62), f"truncated KRRG payload: header n = {2**62}"),
        )),
        (read_labels_binary, ((b"KRRY", "short header b'KRRY'"), (b"KRRY" + struct.pack("<Q", 2**64 - 1), "truncated KRRY payload"))),
    )
)
NON_INTEGRAL_MULTIPLICITY = {
    f"{m}": [
        (call, SpectrumError, "multiplicities must be integers")
        for call in (partial(Spectrum.from_blocks, [(2.0, 3), (1.0, m)]), partial(Spectrum, [1.0], [m]))
    ]
    for m in (2.7, 0.5, NAN, INF, 1e30)
}
TRACE_OVERFLOW = {
    f"blocks{i}": [(partial(Spectrum.from_blocks, blocks), SpectrumError, "total trace must be below the float limit")]
    for i, blocks in enumerate(([(1e300, 10**12)], [(1e308, 1), (1e308, 1)]))
}
BOOLEAN_BLOCKS = {
    f"block{i}": [(partial(Spectrum.from_blocks, [(2.0, 3), block]), SpectrumError, "blocks must hold numbers, not booleans")]
    for i, block in enumerate([(1.0, True), (True, 2), (1.0, np.bool_(True)), (False, 1)])
}
NOISE_VARIANCE = {f"{v}": [(partial(NoiseModel, v), SpectrumError, "noise variance " + NONNEGATIVE)] for v in (-1e-300, -1.0, NAN, INF, -INF)}
NAMED = (
    NON_FINITE_FEATURES, GRAM_NON_FINITE, FIT_NON_FINITE_LABELS, GCV_NON_FINITE_LABELS, NAN_RESIDUAL, EMPTY_GRAM, GCV_OUT_OF_RANGE, SWEEP_LAMBDAS,
    SWEEP_TARGET_SIZE, GRAM_HEADERS, LABEL_HEADERS, NON_INTEGRAL_MULTIPLICITY, TRACE_OVERFLOW, BOOLEAN_BLOCKS, NOISE_VARIANCE,
)

# message text -> why no row reaches the raise that holds it
ALLOWED = {
    "potri failed with info": "functionals._primal_resolvent: potri cannot fail once cho_factor has succeeded",
    "non-integer harmonic dimension": "dim_spherical: (d + 2k - 2) C(d + k - 3, k - 1) is always a multiple of k",
    "no output path": "cli.main: check_contract always passes --out; TestExperimentCommands in test_cli.py covers it",
}


def check_error(call, error, needle):
    with pytest.raises(error) as caught:
        call()
    message = str(caught.value)
    assert type(caught.value) is error and len(message.splitlines()) == 1, repr(caught.value)
    assert needle.search(message) if isinstance(needle, re.Pattern) else needle in message, message


def check_rows(rows):
    """check_error on each row of a NAMED family's case."""
    for row in rows:
        check_error(*row)


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error(tmp_path, monkeypatch, case):
    """The call raises exactly its error type, with a one-line message that holds the needle."""
    monkeypatch.chdir(tmp_path)
    check_error(*ERRORS[case])


def test_every_raise_runs_in_a_row(tmp_path, monkeypatch):
    """Every ``raise`` statement in src/krrdeteq runs, in this process, in an ERRORS or NAMED row or in a CONTRACT row
    with a needle, unless its message is in ALLOWED; and every ALLOWED entry names a raise."""
    monkeypatch.chdir(tmp_path)
    named = [row for family in NAMED for rows in family.values() for row in rows]
    calls = [partial(check_error, *row) for row in (*ERRORS.values(), *named)]
    seen = executed_lines(*calls, *(partial(run_contract_row, tmp_path, case) for case, row in CONTRACT.items() if row[2]))
    raises = {
        f"{path.name}:{node.lineno}: {ast.unparse(node)}": (str(path), node.lineno) in seen
        for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)
    }
    allowed = {site for site in raises if any(text in site for text in ALLOWED)}
    missed = [site for site, ran in raises.items() if not ran and site not in allowed]
    assert not missed, "no row runs:\n" + "\n".join(missed)
    assert all(any(text in site for site in allowed) for text in ALLOWED)
