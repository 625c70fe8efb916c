"""Growth profiles, classification, periodic detection and ratio checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hu_shadow import growth
from hu_shadow import (
    AnalysisOptions,
    ClassificationKind,
    RateRangeError,
    affine_sinusoid,
    build_profile,
    classify,
    detect_periodic_scaled,
    double_factorial_envelope,
    double_factorial_envelope_holds,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
    profile_of,
    ratio_check,
)

SQRT_3_2 = math.sqrt(1.5)

positive_rates = st.lists(
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=200
)


class TestProfile:
    @given(rates=positive_rates)
    def test_log_recurrence_and_positivity(self, rates):
        profile = build_profile(rates)
        assert profile.horizon == len(rates)
        assert np.all(profile.avg > 0)
        for n in range(1, profile.horizon + 1):
            expected = profile.log_sum(n - 1) + math.log(rates[n - 1])
            assert profile.log_sum(n) == pytest.approx(expected, abs=1e-9)

    def test_average_is_geometric_mean(self):
        profile = build_profile([2.0, 0.5, 2.0, 0.5])
        assert profile.avg[3] == pytest.approx(1.0)
        assert profile.avg[0] == pytest.approx(2.0)

    def test_no_overflow_for_extreme_products(self):
        # raw products here would reach 2^(100^2/4), far past float range
        profile = profile_of(power_two_parity(), 100)
        assert np.all(np.isfinite(profile.log_partial))

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError, match="growth rate must be positive"):
            build_profile([1.0, 0.0])
        with pytest.raises(ValueError):
            build_profile([])

    def test_nonpositive_rate_names_first_bad_index(self):
        with pytest.raises(RateRangeError, match=r"positive: p_n = -2\.0 at n = 3$"):
            build_profile([1.0, 0.5, -2.0, 0.0])
        # the parity family's even rates underflow to 0.0 past n = 1071
        with pytest.raises(RateRangeError, match="at n = 1072$"):
            profile_of(power_two_parity(), 2000)


class TestClassification:
    def test_contracting_periodic(self):
        cls = classify(profile_of(periodic_linear(), 1000))
        assert cls.kind is ClassificationKind.CONVERGENT_BELOW_ONE
        assert cls.K == pytest.approx(SQRT_3_2, abs=1e-6)

    def test_expanding_alternating(self):
        cls = classify(profile_of(index_scaled_linear(), 1000))
        assert cls.kind is ClassificationKind.CONVERGENT_ABOVE_ONE
        assert cls.K == pytest.approx(SQRT_3_2, abs=1e-3)

    def test_unstable_parity(self):
        cls = classify(profile_of(power_two_parity(), 200))
        assert cls.kind is ClassificationKind.PERIODIC_BELOW_ONE
        assert cls.periodic is not None

    def test_nonlinear_sinusoid(self):
        cls = classify(profile_of(affine_sinusoid(), 1000))
        assert cls.kind is ClassificationKind.CONVERGENT_ABOVE_ONE
        assert cls.K == pytest.approx(3.0, abs=1e-3)

    def test_rate_one_is_undetermined(self):
        profile = build_profile([1.0] * 200)
        cls = classify(profile)
        assert cls.kind is ClassificationKind.UNDETERMINED

    def test_short_profile_rejected(self):
        with pytest.raises(ValueError):
            classify(build_profile([0.5] * 10))

    @given(p=st.floats(0.1, 0.999))
    @settings(max_examples=30)
    def test_constant_contraction(self, p):
        cls = classify(build_profile([p] * 200), opts=AnalysisOptions(tol=1e-4))
        if p < 1 - 1e-4:
            assert cls.kind is ClassificationKind.CONVERGENT_BELOW_ONE
            assert cls.K == pytest.approx(1.0 / p, rel=1e-9)


class TestPeriodicDetection:
    def test_parity_example(self):
        fit = detect_periodic_scaled(profile_of(power_two_parity(), 160), 8, 1e-4)
        assert fit is not None
        assert fit.m == 2
        assert fit.values[0] == pytest.approx(0.5, abs=1e-9)
        assert fit.values[1] == pytest.approx(0.25, abs=1e-9)
        assert fit.constants[0] == pytest.approx(4.0, abs=1e-9)
        assert fit.constants[1] == pytest.approx(1.0, abs=1e-9)

    def test_alternating_rates_equal_slopes(self):
        # alternating (1/2, 1/8): both classes decay like 1/4 per step but
        # with different constants, so the structure is still periodic
        profile = build_profile([0.5, 0.125] * 40)
        fit = detect_periodic_scaled(profile, 8, 1e-6)
        assert fit is not None
        assert fit.m == 2
        assert fit.rate_factors[0] == pytest.approx(fit.rate_factors[1], rel=1e-9)
        assert fit.constants[0] != pytest.approx(fit.constants[1], rel=1e-3)

    @given(p=st.floats(0.1, 3.0))
    @settings(max_examples=30)
    def test_never_fires_on_constant_rates(self, p):
        profile = build_profile([p] * 120)
        assert detect_periodic_scaled(profile, 8, 1e-6) is None

    def test_contracting_periodic_is_single_law(self):
        # coefficients (2, 1/3) average to a single geometric decay; the
        # classifier must not take the unstable branch
        cls = classify(profile_of(periodic_linear(), 1000))
        assert cls.kind is ClassificationKind.CONVERGENT_BELOW_ONE


def _exhaustive_scan(profile, max_period, tol):
    """Fit every (period, prefix) candidate in turn: the reference scan."""
    if max_period < 2:
        return None
    horizon = profile.horizon
    for m in range(2, max_period + 1):
        if horizon < 4 * m:
            break
        for prefix in range(0, horizon // 4 + 1):
            fit = growth._fit_period(profile, m, prefix, tol)
            if fit is not None:
                return fit
    return None


horizons = st.integers(16, 300)
rate = st.floats(0.05, 20.0)


@st.composite
def periodic_profiles(draw):
    coeffs = draw(st.lists(rate, min_size=1, max_size=6))
    head = draw(st.lists(rate, max_size=12))
    horizon = draw(horizons)
    rates = head + coeffs * (horizon // len(coeffs) + 1)
    return build_profile(rates[:horizon])


@st.composite
def near_constant_periodic_profiles(draw):
    # classes whose laws differ by about the tolerance: the screens'
    # margins decide these candidates
    p = draw(rate)
    period = draw(st.integers(2, 4))
    factors = draw(st.lists(st.floats(-3e-6, 3e-6), min_size=period, max_size=period))
    horizon = draw(horizons)
    rates = [p * math.exp(f) for f in factors] * (horizon // period + 1)
    return build_profile(rates[:horizon])


profiles = st.one_of(
    st.builds(lambda p, h: build_profile([p] * h), rate, horizons),
    periodic_profiles(),
    near_constant_periodic_profiles(),
    st.builds(
        lambda a, b, h: profile_of(index_scaled_linear(a, b), h),
        st.floats(0.5, 5.0),
        st.floats(0.5, 5.0),
        horizons,
    ),
    st.builds(
        lambda s, h: profile_of(affine_sinusoid(s), h), st.floats(1.1, 5.0), horizons
    ),
    st.lists(st.floats(1e-3, 1e3), min_size=16, max_size=300).map(build_profile),
)


def _count_polyfit(monkeypatch):
    """Count numpy.polyfit calls made from growth, as the benchmark does."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def polyfit(self, *args, **kwargs):
            calls.append(1)
            return np.polyfit(*args, **kwargs)

    monkeypatch.setattr(growth, "np", CountingNumpy())
    return calls


class TestScreenedScan:
    # the exhaustive reference scan, not the code under test, sets the pace
    @settings(max_examples=120, deadline=None)
    @given(
        profile=profiles,
        tol=st.sampled_from([1e-4, 1e-6]),
        max_period=st.integers(2, 8),
    )
    def test_matches_exhaustive_scan(self, profile, tol, max_period):
        expected = _exhaustive_scan(profile, max_period, tol)
        assert detect_periodic_scaled(profile, max_period, tol) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        coeffs=st.lists(rate, min_size=2, max_size=3, unique=True),
        horizon=horizons,
        tol=st.sampled_from([1e-4, 1e-6]),
        kick=st.floats(-6.0, 6.0),
        at=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_exhaustive_scan_near_residual_threshold(
        self, coeffs, horizon, tol, kick, at
    ):
        # one rate off by a few tolerances bends its class's log-products
        # by about the tolerance, where the residual bound's margin decides
        rates = (coeffs * (horizon // len(coeffs) + 1))[:horizon]
        rates[int(at * horizon)] *= math.exp(kick * tol)
        profile = build_profile(rates)
        expected = _exhaustive_scan(profile, 8, tol)
        assert detect_periodic_scaled(profile, 8, tol) == expected

    @pytest.mark.parametrize(
        "system, horizon",
        [
            (periodic_linear(), 1000),
            (index_scaled_linear(), 1000),
            (power_two_parity(), 1000),
            (affine_sinusoid(), 1000),
            (periodic_linear(), 10_000),
            (index_scaled_linear(), 10_000),
            (affine_sinusoid(), 10_000),
        ],
        ids=lambda v: v if isinstance(v, int) else v.family.value,
    )
    def test_families_match_exhaustive_scan(self, system, horizon):
        profile = profile_of(system, horizon)
        opts = AnalysisOptions()
        expected = _exhaustive_scan(profile, opts.max_period, opts.tol)
        assert detect_periodic_scaled(profile, opts.max_period, opts.tol) == expected

    @pytest.mark.parametrize(
        "profile",
        [
            profile_of(index_scaled_linear(), 10_000),
            profile_of(affine_sinusoid(), 10_000),
            build_profile([0.7] * 10_000),
        ],
        ids=["index_scaled_linear", "affine_sinusoid", "constant"],
    )
    def test_polyfit_calls_do_not_grow_with_horizon(self, profile, monkeypatch):
        # the exhaustive scan fits more than 17,000 classes on each
        calls = _count_polyfit(monkeypatch)
        assert detect_periodic_scaled(profile, 8, 1e-4) is None
        assert len(calls) <= 24

    def test_nonfinite_profile_is_fitted_exhaustively(self, monkeypatch):
        profile = profile_of(power_two_parity(), 1030)  # rates overflow from 1025
        assert not np.all(np.isfinite(profile.log_partial))
        calls = _count_polyfit(monkeypatch)
        expected = _exhaustive_scan(profile, 2, 1e-4)
        exhaustive = len(calls)
        assert detect_periodic_scaled(profile, 2, 1e-4) == expected
        assert len(calls) == 2 * exhaustive


class TestRatioCheck:
    def test_exact_value(self):
        t = [1.0] * 20
        assert ratio_check(t, 2.0, 10) == pytest.approx(1024 / 1022, abs=1e-12)

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    def test_limit_constant_sequence(self, K):
        t = [1.0] * 200
        assert ratio_check(t, K, 200) == pytest.approx(K - 1, rel=0.05)

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    def test_limit_linear_sequence(self, K):
        t = [float(n) for n in range(1, 201)]
        assert ratio_check(t, K, 200) == pytest.approx(K - 1, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_check([1.0, 1.0], 2.0, 1)
        with pytest.raises(ValueError):
            ratio_check([1.0, -1.0], 2.0, 2)


class TestDoubleFactorialEnvelope:
    def test_small_values(self):
        lo, mid, hi = double_factorial_envelope(1)
        assert mid == pytest.approx(0.5)
        assert lo <= mid <= hi

    @given(k=st.integers(1, 500))
    @settings(max_examples=50)
    def test_bracketing(self, k):
        lo, mid, hi = double_factorial_envelope(k)
        assert lo <= mid <= hi

    def test_exact_check(self):
        assert double_factorial_envelope_holds(200)

    def test_nonpositive_k_max_rejected(self):
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k_max must be >= 1"):
                double_factorial_envelope_holds(k_max)

    def test_verdict_equals_direct_fraction_evaluation(self):
        value = Fraction(1)
        holds = True
        for k in range(1, 401):
            value *= Fraction(2 * k - 1, 2 * k)
            holds = holds and Fraction(1, 4 * k + 1) <= value**2 <= Fraction(1, 3 * k + 1)
            assert double_factorial_envelope_holds(k) == holds

    @pytest.mark.parametrize("k_max", [1, 2, 1000, 2000])
    def test_verdict_equals_resquaring_check(self, k_max):
        assert double_factorial_envelope_holds(k_max) == _resquaring_envelope_holds(k_max)


def _resquaring_envelope_holds(k_max: int) -> bool:
    """The original check, re-squaring the full ratio at every step (the oracle)."""
    num, den = 1, 1
    for k in range(1, k_max + 1):
        num *= 2 * k - 1
        den *= 2 * k
        num_sq = num * num
        den_sq = den * den
        if den_sq > num_sq * (4 * k + 1):  # value < 1/sqrt(4k+1)
            return False
        if num_sq * (3 * k + 1) > den_sq:  # value > 1/sqrt(3k+1)
            return False
    return True
