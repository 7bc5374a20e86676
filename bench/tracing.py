"""Span tracer that wraps krrdeteq's public functions where they are looked up.

``install`` replaces each traced name in the module (or class) that calls it,
so ``src/`` stays untouched.  Every call records one span
``[name, start, end, parent, flop]`` in memory; ``parent`` is the index of
the enclosing span (-1 at the top) and ``flop`` the operation count computed
from the argument shapes (LAPACK calls only, 0 elsewhere).  ``summarize``
turns a span list into per-name counts and times.
"""

from __future__ import annotations

import functools
import statistics
import time

# LAPACK operation counts from argument shapes (computed, not measured).
# eigh uses the nominal 9 n^3 of the symmetric QR algorithm with
# eigenvectors (Golub & Van Loan); the others are the textbook leading terms.


def _rhs_columns(b) -> int:
    return b.shape[1] if getattr(b, "ndim", 1) == 2 else 1


def _flop_factor(a, *args, **kwargs) -> float:
    return a.shape[0] ** 3 / 3.0


def _flop_cho_solve(c_and_lower, b, *args, **kwargs) -> float:
    n = c_and_lower[0].shape[0]
    return 2.0 * n * n * _rhs_columns(b)


def _flop_solve_triangular(a, b, *args, **kwargs) -> float:
    n = a.shape[0]
    return float(n * n * _rhs_columns(b))


def _flop_eigh(a, *args, **kwargs) -> float:
    return 9.0 * a.shape[0] ** 3


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, flop=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, flop(*args, **kwargs) if flop else 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, flop=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), flop))


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of an imported krrdeteq."""
    import krrdeteq.cli as cli
    import krrdeteq.deteq as deteq
    import krrdeteq.functionals as functionals
    import krrdeteq.harness as harness
    import krrdeteq.krr as krr
    import krrdeteq.sphere as sphere

    patch = tracer.patch
    # cli/harness boundary
    patch(cli, "run_experiment", "harness.run_experiment")
    patch(cli, "emit_results", "harness.emit_results")
    patch(cli, "model_from_json", "spectrum.model_from_json")
    # predictions
    patch(cli, "deterministic_equivalents", "deteq.deterministic_equivalents")
    patch(harness, "deterministic_equivalents", "deteq.deterministic_equivalents")
    patch(harness, "nu_diagnostic", "spectrum.nu_diagnostic")
    patch(deteq, "solve_effective_reg", "deteq.solve_effective_reg")
    patch(functionals, "solve_effective_reg", "deteq.solve_effective_reg")
    patch(deteq, "trace_resolvents", "spectrum.trace_resolvents")
    # empirical KRR
    patch(krr.GramMatrix, "__post_init__", "krr.GramMatrix")
    patch(krr.GramMatrix, "eigendecomposition", "krr.GramMatrix.eigendecomposition")
    patch(krr, "fit_krr", "krr.fit_krr")
    patch(krr, "gcv", "krr.gcv")
    # sphere
    patch(sphere, "sample_sphere", "sphere.sample_sphere")
    patch(sphere.SphereKernel, "gram", "sphere.SphereKernel.gram")
    patch(sphere, "exact_sphere_risk", "sphere.exact_sphere_risk")
    # functionals
    patch(functionals, "sample_gaussian_features", "functionals.sample_gaussian_features")
    patch(functionals, "convergence_probe", "functionals.convergence_probe")
    patch(functionals, "empirical_functionals", "functionals.empirical_functionals")
    patch(functionals, "deterministic_functionals", "functionals.deterministic_functionals")
    # dense linear algebra made by krr and functionals
    for module in (krr, functionals):
        patch(module, "cho_factor", "lapack.cho_factor", _flop_factor)
        patch(module, "cho_solve", "lapack.cho_solve", _flop_cho_solve)
    patch(krr, "solve_triangular", "lapack.solve_triangular", _flop_solve_triangular)
    # krr looks these up on numpy.linalg at call time; it is their only caller in the workloads
    patch(krr.np.linalg, "cholesky", "lapack.cholesky", _flop_factor)
    patch(krr.np.linalg, "eigh", "lapack.eigh", _flop_eigh)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s, durations_s and gflop."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, _, flop) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations_s": [], "gflop": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["durations_s"].append(duration)
        entry["gflop"] += flop / 1e9
    return out


def span_cost_s(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds one traced call adds to a plain call: the tracer's own cost per span.

    Timed on a no-op, as the median over ``batches`` of (traced loop - plain loop) / calls.
    """

    def noop():
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    return statistics.median(loop(Tracer().wrap("noop", noop)) - loop(noop) for _ in range(batches)) / calls


def p50_ms(durations_s: list[float]) -> float:
    return 1e3 * statistics.median(durations_s) if durations_s else 0.0
