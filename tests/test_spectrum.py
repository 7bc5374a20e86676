import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrdeteq.spectrum import (
    Alignment,
    ModelSpec,
    NoiseModel,
    Spectrum,
    effective_rank,
    model_from_json,
    model_to_json,
    nu_diagnostic,
    tail_rank,
    trace_resolvents,
)

from krrdeteq import deteq

from conftest import random_spectrum
from test_errors import BOOLEAN_BLOCKS, NOISE_VARIANCE, NON_INTEGRAL_MULTIPLICITY, TRACE_OVERFLOW, check_rows


def reference_trace_resolvents(spectrum, s):
    """Out-of-place sums over the int64 multiplicities: the bitwise oracle for trace_resolvents."""
    shifted = spectrum.values + s
    ratio = spectrum.values / shifted
    t1 = float(np.einsum("i,i->", spectrum.multiplicities, ratio))
    t2 = float(np.einsum("i,i->", spectrum.multiplicities, ratio * ratio))
    slope = float(np.einsum("i,i->", spectrum.multiplicities, ratio * (s / shifted)))
    return t1, t2, slope


def oracle_spectrum(size, mults, seed=0):
    """``size`` blocks spread over 1e-300..1 with unit, random or past-2**53 multiplicities."""
    rng = np.random.default_rng(seed)
    values = np.sort(10.0 ** rng.uniform(-300, 0, size))[::-1]
    if mults == "unit":
        counts = np.ones(size, dtype=np.int64)
    else:
        counts = rng.integers(1, 10**6, size)
        if mults == "huge":  # not exact as float64, and the total stays below 2**63
            counts[:3] = [2**53 + 1, 2**60 + 3, 2**61 - 1]
    return Spectrum(values, counts)


class TestSpectrumType:
    def test_total_rank_past_int64_rejected(self):
        assert Spectrum.from_blocks([(1.0, 2**62), (0.5, 2**62 - 1)]).total_rank == 2**63 - 1

    @pytest.mark.parametrize("case", NON_INTEGRAL_MULTIPLICITY)
    def test_rejects_non_integral_multiplicity(self, case):
        check_rows(NON_INTEGRAL_MULTIPLICITY[case])

    @pytest.mark.parametrize("case", TRACE_OVERFLOW)
    def test_total_trace_overflow_rejected(self, case):
        check_rows(TRACE_OVERFLOW[case])

    @pytest.mark.parametrize("case", BOOLEAN_BLOCKS)
    def test_rejects_boolean_block_entries(self, case):
        check_rows(BOOLEAN_BLOCKS[case])

    def test_integral_float_multiplicity_accepted(self):
        s = Spectrum.from_blocks([(2.0, 3.0), (1.0, 2)])
        assert s.multiplicities.dtype == np.int64
        assert s.multiplicities.tolist() == [3, 2]

    def test_tail_traces_match_expanded(self, rng):
        """tail_trace(m) is within 1e-14 of the correctly rounded sum of the expanded tail at every cut, also where
        the tail is far below one ulp of the trace: power_law(8, 2000) and ``tiny``."""
        tiny = Spectrum.from_blocks([(1.0, 1), (1e-20, 3)])
        for s in [random_spectrum(rng), *(Spectrum.power_law(e, 2000) for e in (2, 4, 8)), tiny]:
            expanded = s.expand()
            for m in range(s.total_rank + 1):
                np.testing.assert_allclose(s.tail_trace(m), math.fsum(expanded[m:]), rtol=1e-14, atol=0)
        # the tail that the trace rounds away still sets the tail rank, effective rank, nu and truncated ridge
        assert tail_rank(tiny, 1, 0.0) == pytest.approx(3.0, rel=1e-14)
        assert effective_rank(tiny, 4, 2) == pytest.approx(3.0, rel=1e-14)
        assert nu_diagnostic(tiny, 1, 4, 0.0) == pytest.approx(1 + 4 * math.sqrt(math.log(4)) / 3e-20, rel=1e-14)
        assert ModelSpec(2, 0.0, tiny, Alignment(np.ones(2))).truncated(1).lam == pytest.approx(3e-20, rel=1e-14)

    def test_split_preserves_expansion(self, rng):
        """head(m) is the top m of the expansion, dividing the block the cut passes through."""
        for _ in range(20):
            s = random_spectrum(rng, max_blocks=8)
            expanded = s.expand()
            for m in range(1, s.total_rank + 1):
                np.testing.assert_array_equal(s.head(m).expand(), expanded[:m])

    def test_eigenvalue_at(self):
        s = Spectrum.from_blocks([(2.0, 3), (1.0, 1)])
        assert [s.eigenvalue_at(j) for j in range(1, 5)] == [2.0, 2.0, 2.0, 1.0]


class TestTraceResolvents:
    def test_isotropic_block(self):
        t1, t2, slope = trace_resolvents(Spectrum.from_blocks([(1.0, 200)]), 1.0)
        assert t1 == pytest.approx(100.0, rel=1e-14)
        assert t2 == pytest.approx(50.0, rel=1e-14)
        assert slope == pytest.approx(50.0, rel=1e-14)

    def test_two_block_hand_values(self):
        t1, t2, slope = trace_resolvents(Spectrum.from_blocks([(2.0, 3), (1.0, 1)]), 2.0)
        assert t1 == pytest.approx(11.0 / 6.0, rel=1e-14)
        assert t2 == pytest.approx(31.0 / 36.0, rel=1e-14)
        assert slope == pytest.approx(35.0 / 36.0, rel=1e-14)

    def test_large_shift_limit(self, rng):
        s = random_spectrum(rng)
        t1, t2, slope = trace_resolvents(s, 1e12)
        assert t1 < 1e-9 and t2 < 1e-9 and slope < 1e-9

    def test_decreasing_in_shift_and_t2_below_t1(self, rng):
        for _ in range(20):
            s = random_spectrum(rng)
            s1, s2 = sorted(rng.uniform(1e-4, 10.0, size=2))
            t1a, t2a, _ = trace_resolvents(s, s1)
            t1b, t2b, _ = trace_resolvents(s, s2)
            assert t1a > t1b and t2a > t2b
            assert t2a <= t1a <= s.total_rank


class TestTraceResolventsOracle:
    """The in-place sums over cached float64 multiplicities equal the out-of-place int64 ones bit for bit."""

    SHIFTS = (5e-324, 1e-300, 1e-150, 1e-12, 1e-3, 1.0, 1e12, 1e300)

    # einsum reduces in 8192-element buffers: sizes on both sides of one buffer and many
    @pytest.mark.parametrize("size", [8191, 8192, 8193, 200_000])
    @pytest.mark.parametrize("mults", ["unit", "random", "huge"])
    def test_bitwise_equal_to_reference(self, size, mults):
        s = oracle_spectrum(size, mults)
        for shift in self.SHIFTS:
            assert trace_resolvents(s, shift) == reference_trace_resolvents(s, shift), shift

    def test_float_weights_round_huge_multiplicities(self):
        s = oracle_spectrum(8, "huge")
        assert s.multiplicities.dtype == np.int64
        assert s.multiplicities[0] == 2**53 + 1
        assert s._weights.dtype == np.float64
        np.testing.assert_array_equal(s._weights, s.multiplicities.astype(float))

    @pytest.mark.parametrize("mults", ["unit", "random"])
    def test_solver_result_identical(self, monkeypatch, mults):
        s = oracle_spectrum(20_000, mults, seed=3)
        grid = [(n, lam) for n in (10, 1000, 100_000) for lam in (1e-300, 1e-3, 10.0)]
        lean = [deteq.solve_effective_reg(s, n, lam) for n, lam in grid]
        monkeypatch.setattr(deteq, "trace_resolvents", reference_trace_resolvents)
        assert lean == [deteq.solve_effective_reg(s, n, lam) for n, lam in grid]


class TestTailRank:
    def test_hand_examples(self):
        assert tail_rank(Spectrum.from_blocks([(1.0, 4)]), 2, 0.0) == pytest.approx(2.0)
        assert tail_rank(Spectrum.from_blocks([(1.0, 1), (0.5, 2)]), 1, 1.0) == pytest.approx(4.0)

    def test_full_rank_convention(self):
        assert tail_rank(Spectrum.from_blocks([(1.0, 4)]), 4, 0.0) == math.inf

    def test_monotone_in_lambda(self, rng):
        s = random_spectrum(rng)
        m = s.total_rank // 2
        values = [tail_rank(s, m, lam) for lam in (0.0, 0.5, 2.0, 9.0)]
        assert values == sorted(values)


class TestEffectiveRank:
    def test_isotropic(self):
        assert effective_rank(Spectrum.from_blocks([(1.0, 10)]), 10, 3) == pytest.approx(10.0)
        # a tail past m whose ulp exceeds the head's sum does not enter it
        assert effective_rank(Spectrum.from_blocks([(1.0, 10), (0.5, 4 * 10**18)]), 10, 3) == 10.0

    def test_n_dominates(self):
        assert effective_rank(Spectrum.from_blocks([(1.0, 1)]), 1, 5) == pytest.approx(5.0)

    def test_power_law_matches_direct_scan(self):
        s = Spectrum.power_law(2.0, 100)
        m, n = 100, 10
        xs = s.expand()
        # brute-force oracle over the defining ratios (0-based indices)
        brute = float(n)
        for k in range(min(n, m)):
            brute = max(brute, xs[k:m].sum() / xs[k])
        assert effective_rank(s, m, n) == pytest.approx(brute, rel=1e-12)

    def test_at_least_n(self, rng):
        for _ in range(10):
            s = random_spectrum(rng)
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, s.total_rank + 1))
            assert effective_rank(s, m, n) >= n

    def test_matches_block_loop_exactly(self, rng):
        # oracle: the per-block scan, with the segment mass taken from the head's tail_trace
        def block_loop(s, m, n):
            head = s.head(m)
            best = float(n)
            starts = np.concatenate(([0], s._cum_mult[:-1]))
            for start, value in zip(starts, s.values):
                if int(start) > min(n, m) - 1:
                    break
                best = max(best, head.tail_trace(int(start)) / float(value))
            return best

        for _ in range(300):
            s = random_spectrum(rng)
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, s.total_rank + 1))
            assert effective_rank(s, m, n) == block_loop(s, m, n)


class TestNuDiagnostic:
    def test_index_past_cut_gives_one(self):
        s = Spectrum.from_blocks([(1.0, 10)])
        # floor(NU_ETA * n) = 3 > m = 2
        assert nu_diagnostic(s, 2, 12, 1.0) == 1.0

    def test_isotropic_value(self):
        s = Spectrum.from_blocks([(1.0, 100)])
        expected = 1.0 + 100.0 * math.sqrt(math.log(100.0))
        assert nu_diagnostic(s, 100, 8, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_large_lambda_limit(self):
        s = Spectrum.from_blocks([(1.0, 100)])
        assert nu_diagnostic(s, 100, 8, 1e12) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    data=st.lists(
        st.tuples(st.floats(1e-6, 1.0), st.integers(1, 20)), min_size=1, max_size=8
    ),
    shifts=st.tuples(st.floats(1e-4, 1.0), st.floats(1.001, 100.0)),
)
def test_resolvent_traces_monotone_property(data, shifts):
    values = np.sort(np.array([v for v, _ in data]))[::-1]
    mults = np.array([m for _, m in data])
    s = Spectrum(values, mults)
    lo, ratio = shifts
    hi = lo * ratio
    t1_lo, t2_lo, slope_lo = trace_resolvents(s, lo)
    t1_hi, t2_hi, _ = trace_resolvents(s, hi)
    assert t1_hi < t1_lo and t2_hi < t2_lo
    assert t2_lo <= t1_lo <= s.total_rank
    # s/(xi+s) = 1 - xi/(xi+s), so the slope sum is T1 - T2
    assert slope_lo == pytest.approx(t1_lo - t2_lo, rel=1e-9, abs=1e-12 * t1_lo)


class TestAlignmentAndModel:
    def test_total_energy(self):
        a = Alignment(np.array([0.5, 0.25]), residual_energy=0.25)
        assert a.total_energy == pytest.approx(1.0)

    @pytest.mark.parametrize("case", NOISE_VARIANCE)
    def test_noise_model_rejects_bad_variance(self, case):
        check_rows(NOISE_VARIANCE[case])

    def test_ridgeless_needs_excess_rank(self):
        s = Spectrum.from_blocks([(2.0, 50)])
        ModelSpec(n=30, lam=0.0, spectrum=s, alignment=Alignment(np.zeros(1)))  # fine; n = 100 raises


class TestJsonRoundTrip:
    def test_round_trip_is_deterministic(self):
        s = Spectrum.from_blocks([(1.0, 3), (0.125, 7)])
        a = Alignment(np.array([0.7, 0.2]), residual_energy=0.1)
        nm = NoiseModel(0.25)
        text = model_to_json(s, a, nm)
        s2, a2, n2 = model_from_json(json.loads(text))
        assert model_to_json(s2, a2, n2) == text
        np.testing.assert_array_equal(s2.values, s.values)
        np.testing.assert_array_equal(s2.multiplicities, s.multiplicities)
        np.testing.assert_array_equal(a2.energies, a.energies)
        assert a2.residual_energy == a.residual_energy
        assert n2.variance == nm.variance

    def test_document_shape(self):
        s = Spectrum.from_blocks([(1.0, 2)])
        doc = json.loads(model_to_json(s, Alignment(np.array([1.0])), NoiseModel(0.0)))
        assert set(doc) == {"blocks", "alignment", "residual_energy", "noise_variance"}

