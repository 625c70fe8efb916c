"""Growth profiles, classification, periodic detection and ratio checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    def test_nan_rate_rejected_with_its_index(self):
        # passed before: the profile was all NaN and classify said undetermined
        with pytest.raises(RateRangeError, match=r"p_n = nan at n = 2"):
            build_profile([0.5, math.nan, 2.0])
        assert build_profile([0.5, math.inf]).log_partial[1] == math.inf

    def test_nonpositive_rate_names_first_bad_index(self):
        with pytest.raises(RateRangeError, match=r"positive: p_n = -2\.0 at n = 3$"):
            build_profile([1.0, 0.5, -2.0, 0.0])
        # the parity family's even rates underflow to 0.0 past n = 1071
        with pytest.raises(RateRangeError, match="at n = 1072$"):
            profile_of(power_two_parity(), 2000)


def _outcome(read, *args):
    """The profile ``read`` makes, as bit patterns, or its error's type and message."""
    try:
        profile = read(*args)
    except (RateRangeError, ValueError) as exc:
        return type(exc), str(exc)
    return profile.horizon, profile.log_partial.tobytes(), profile.avg.tobytes()


class TestProfileFromTheRateArray:
    @pytest.mark.parametrize(
        "sys",
        [
            periodic_linear(),
            index_scaled_linear(),
            power_two_parity(),
            affine_sinusoid(),
            periodic_linear((0.75, 2.5, complex(0.5, 1.5))),
            index_scaled_linear(2.5, 0.75),
            index_scaled_linear(3, 1e308),  # p_2 underflows to 0.0
            power_two_parity(2.0, 3),
            power_two_parity(1.5, -4),
            affine_sinusoid(2.25),
        ],
        ids=lambda sys: f"{sys.family.value}{sys.params}",
    )
    @pytest.mark.parametrize("horizon", [1, 2, 1000, 1071, 1072, 10_000])
    def test_profile_of_equals_the_profile_of_the_rate_list(self, sys, horizon):
        # profile_of hands the rate array straight to build_profile; the list
        # route it replaced gives the same bits, and the same refusal: parity's
        # even rates underflow at n = 1072
        assert _outcome(profile_of, sys, horizon) == _outcome(
            lambda: build_profile(sys.rates(horizon))
        )


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
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((1e300, 1e300, 1e-300, 1e-300), r"C_2 = exp\(1381\.\d+\)"),
            ((5e-324, 1e-320), r"K_1 = exp\(740\.\d+\)"),
        ],
        ids=["constant", "rate_factor"],
    )
    def test_a_class_value_past_the_float_range_is_refused(self, coeffs, message):
        # math.exp of the fitted log raised a bare OverflowError
        sys = periodic_linear(coeffs)
        match = rf"^periodic fit: {message} is past the float range$"
        with pytest.raises(RateRangeError, match=match):
            classify(profile_of(sys, 1000), sys)

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
    # slowly varying rates, p*exp(A sin(n/T)) and c - d/n^2 (the sinusoid's form),
    # with A and d/c on both sides of the rate-spread exit's threshold
    st.builds(
        lambda p, a, t, h: build_profile([p * math.exp(a * math.sin(n / t)) for n in range(1, h + 1)]),
        rate,
        st.floats(-10.0, -4.0).map(lambda u: 10**u),
        st.floats(5.0, 2000.0),
        horizons,
    ),
    st.builds(
        lambda c, d, h: build_profile([c - c * d / n**2 for n in range(1, h + 1)]),
        st.floats(0.5, 5.0),
        st.floats(-9.0, -2.0).map(lambda u: 10**u),
        horizons,
    ),
)


def _count_numpy_calls(monkeypatch, counted):
    """Count the calls of numpy function ``counted`` made from growth, as the
    benchmark counts polyfit."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            function = getattr(np, name)
            if name != counted:
                return function

            def call(*args, **kwargs):
                calls.append(1)
                return function(*args, **kwargs)

            return call

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
            # the bend screen and the rate-spread exit leave all 2,501 prefixes at
            # every period; the spread screen alone rejects them
            profile_of(periodic_linear((Fraction(10001, 10000), 1)), 10_000),
        ],
        ids=["index_scaled_linear", "affine_sinusoid", "constant", "near_constant_cycle"],
    )
    def test_polyfit_calls_do_not_grow_with_horizon(self, profile, monkeypatch):
        # the exhaustive scan fits more than 17,000 classes on each
        calls = _count_numpy_calls(monkeypatch, "polyfit")
        assert detect_periodic_scaled(profile, 8, 1e-4) is None
        assert len(calls) <= 24

    def test_nonfinite_profile_is_fitted_exhaustively(self, monkeypatch):
        profile = profile_of(power_two_parity(), 1030)  # rates overflow from 1025
        assert not np.all(np.isfinite(profile.log_partial))
        calls = _count_numpy_calls(monkeypatch, "polyfit")
        expected = _exhaustive_scan(profile, 2, 1e-4)
        exhaustive = len(calls)
        assert detect_periodic_scaled(profile, 2, 1e-4) == expected
        assert len(calls) == 2 * exhaustive


def _reference_rejected_prefixes(L: np.ndarray, m: int, tol: float) -> np.ndarray:
    """The screen without its early exit: every class and the spread screen
    are built for every period (verbatim, the reference)."""
    SCREEN_MARGIN = growth.SCREEN_MARGIN
    horizon = L.size
    prefixes = np.arange(horizon // 4 + 1)
    rejected = np.zeros(prefixes.size, dtype=bool)
    if not np.all(np.isfinite(L)):
        return rejected
    scale = float(np.max(np.abs(L)))
    bend_limit = 2.0 * (tol + SCREEN_MARGIN * scale)
    slopes = np.empty((m, prefixes.size))
    intercepts = np.empty((m, prefixes.size))
    deviation = 0.0
    for l in range(1, m + 1):
        ns = np.arange(l, horizon + 1, m)
        ys = L[ns - 1]
        last = ns.size - 1
        k0 = (prefixes - l) // m + 1  # first class index past the prefix
        k1 = (k0 + last) // 2
        h = ys[k1] - (ys[k0] + (ys[last] - ys[k0]) * ((k1 - k0) / (last - k0)))
        rejected |= np.abs(h) >= bend_limit

        k = np.arange(last + 1)
        chord = (ys[last] - ys[0]) / last
        z = ys - (ys[0] + chord * k)
        u = k - last / 2
        sum_z = np.cumsum(z[::-1])[::-1]
        sum_uz = np.cumsum((u * z)[::-1])[::-1]
        count = last + 1.0 - k0
        # the suffix k0..last has mean u of k0/2 and sum of squared
        # centred indices count*(count^2 - 1)/12
        slope_k = (sum_uz[k0] - k0 / 2 * sum_z[k0]) / (count * (count**2 - 1) / 12)
        k_mean = (k0 + last) / 2
        y_mean = ys[0] + chord * k_mean + sum_z[k0] / count
        slope = (chord + slope_k) / m
        slopes[l - 1] = slope
        intercepts[l - 1] = y_mean - slope * (ns[0] + m * k_mean)
        deviation = max(deviation, ns.size * float(np.max(np.abs(z))))
    same_law = tol - 2.0 * SCREEN_MARGIN * (scale + deviation)
    rejected |= (np.ptp(slopes, axis=0) <= same_law) & (
        np.ptp(intercepts, axis=0) <= same_law
    )
    return rejected


def _assert_same_masks(L, tol):
    for m in range(2, 9):
        if L.size < 4 * m:
            break
        got = growth._rejected_prefixes(L, m, tol)
        expected = _reference_rejected_prefixes(L, m, tol)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), m


def _family_log_partials(horizon):
    """L_n of the four default systems; the parity one from its log rates,
    which stay finite where its float rates leave the range."""
    for sys in (periodic_linear(), index_scaled_linear(), affine_sinusoid()):
        yield profile_of(sys, horizon).log_partial
    yield np.cumsum(power_two_parity().log_rates(horizon))


class TestEarlyExitScreen:
    @settings(max_examples=150, deadline=None)
    @given(profile=profiles, tol=st.sampled_from([1e-4, 1e-6]))
    def test_mask_equals_full_screen(self, profile, tol):
        _assert_same_masks(profile.log_partial, tol)

    @pytest.mark.parametrize("horizon", [1000, 10_000, 30_000])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_families_mask_equals_full_screen(self, horizon, tol):
        for L in _family_log_partials(horizon):
            _assert_same_masks(L, tol)

    @pytest.mark.parametrize(
        "L",
        [
            profile_of(power_two_parity(), 1030).log_partial,  # inf from n = 1025
            np.array([0.5, math.nan] * 40),
            np.array([1.0] * 40 + [-math.inf] * 40),
        ],
        ids=["parity_overflow", "nan", "minus_inf"],
    )
    def test_non_finite_mask_equals_full_screen(self, L):
        _assert_same_masks(L, 1e-4)
        assert not growth._rejected_prefixes(L, 2, 1e-4).any()

    @pytest.mark.parametrize("m", range(2, 9))
    @pytest.mark.parametrize(
        "rates",
        [
            lambda h: affine_sinusoid().rates(h),
            lambda h: periodic_linear((2, Fraction(1, 3), 5)).rates(h),
            lambda h: [2.0 if n % 3 else 0.5 for n in range(1, h + 1)],
            lambda h: list(np.random.default_rng(h).uniform(0.1, 10.0, h)),
            # laws that differ by about the tolerance: the spread screen decides
            lambda h: [0.9 * math.exp(1e-4 * math.sin(n)) for n in range(1, h + 1)],
            lambda h: [1.5 * (1 + 1e-5 * n) for n in range(1, h + 1)],
        ],
        ids=["sinusoid", "periodic_3", "every_third", "random", "wobble", "drift"],
    )
    def test_unequal_class_sizes_mask_equals_full_screen(self, m, rates):
        # H = 4m + r: the first r classes hold one point more than the others,
        # and the last prefixes move some classes' first start and not others'
        for r in range(m):
            L = build_profile(rates(4 * m + r)).log_partial
            for tol in (1e-4, 1e-6):
                got = growth._rejected_prefixes(L, m, tol)
                expected = _reference_rejected_prefixes(L, m, tol)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), r

    def test_stable_profile_builds_no_spread_screen(self, monkeypatch):
        # the first class's bend screen rejects every prefix at every period
        profile = profile_of(index_scaled_linear(), 10_000)
        calls = _count_numpy_calls(monkeypatch, "cumsum")
        assert detect_periodic_scaled(profile, 8, 1e-4) is None
        assert calls == []

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-4, 0.0])
    @pytest.mark.parametrize("horizon", [1000, 10_000])
    def test_tol_at_its_limits_mask_equals_full_screen(self, tol, horizon):
        # a NaN tol fails every screen's test, the exit's too
        _assert_same_masks(profile_of(affine_sinusoid(), horizon).log_partial, tol)

    def test_smoothly_converging_profile_builds_no_spread_screen(self, monkeypatch):
        # the sinusoid's rates 3 - 1/n^2: no bend rejects a prefix from 677 on, and
        # the rate-spread exit rejects each of those at every period; every period
        # built its spread screen before
        L = profile_of(affine_sinusoid(), 10_000).log_partial
        calls = _count_numpy_calls(monkeypatch, "cumsum")
        for m in range(2, 9):
            assert growth._rejected_prefixes(L, m, 1e-4).all()
        assert calls == []

    @pytest.mark.parametrize("name", ["isfinite", "diff", "sum"])
    @pytest.mark.parametrize(
        "sys, calls",
        [
            # the sinusoid's exit reads the rates at every period
            (affine_sinusoid(), {"isfinite": 1, "diff": 1, "sum": 1}),
            # the other profiles' last rates differ: the exit reads three L_n
            (periodic_linear(), {"isfinite": 1, "diff": 0, "sum": 0}),
            (index_scaled_linear(), {"isfinite": 1, "diff": 0, "sum": 0}),
        ],
        ids=["sinusoid", "periodic", "index_scaled"],
    )
    def test_profile_wide_quantities_are_made_once_per_profile(self, sys, calls, name, monkeypatch):
        # the finiteness of L, max|L| and the exit's rate differences, their
        # deviation sum and range accumulates were made again at every period
        profile = profile_of(sys, 10_000)
        expected = detect_periodic_scaled(profile, 8, 1e-4)
        counted = _count_numpy_calls(monkeypatch, name)
        assert detect_periodic_scaled(profile, 8, 1e-4) == expected
        assert len(counted) == calls[name]

    @pytest.mark.parametrize("horizon", [1000, 10_000])
    def test_a_shared_scan_gives_every_period_its_own_mask(self, horizon):
        for L in _family_log_partials(horizon):
            scan = growth._ProfileScan(L)
            for m in range(2, 9):
                got = growth._rejected_prefixes(L, m, 1e-4, scan=scan)
                assert np.array_equal(got, growth._rejected_prefixes(L, m, 1e-4)), m


def _class_points(horizon, prefix, m):
    """The points n of each residue class l = 1..m with prefix < n <= horizon."""
    return [np.arange(l + m * ((prefix - l) // m + 1), horizon + 1, m) for l in range(1, m + 1)]


def _intercept_weights(ns):
    """The weights of a class's least-squares intercept (its line at n = 0)."""
    x = ns - ns.mean()
    return 1.0 / ns.size - ns.mean() * x / (x @ x)


def _intercept_kernel(points, l, lp):
    """(t, G): the sorted points of classes l and l', and G(t) = nu(n <= t) on
    each gap between them, nu the difference of their intercept weights."""
    ns = np.concatenate([points[lp - 1], points[l - 1]])
    nu = np.concatenate([_intercept_weights(points[lp - 1]), -_intercept_weights(points[l - 1])])
    order = np.argsort(ns)
    return ns[order], np.cumsum(nu[order])[:-1]


def _worst_intercept_pair(horizon, prefix, m):
    """(sup, l, l'): the largest |a_l' - a_l| / delta over rates l_n within delta
    of one value past prefix + 1, with its classes.  Two intercepts differ by a
    mass-0 measure nu on the points, and summation by parts makes the sup the
    integral of |G|."""
    points = _class_points(horizon, prefix, m)
    best = (0.0, 1, 1)
    for l in range(1, m + 1):
        for lp in range(l + 1, m + 1):
            t, G = _intercept_kernel(points, l, lp)
            best = max(best, (float(np.abs(G) @ np.diff(t)), l, lp))
    return best


class TestRateSpreadBound:
    @pytest.mark.parametrize("m", range(2, 12))
    def test_bound_covers_every_class_pair_and_prefix(self, m):
        # the closed form B against the exact constant of the intercept spread, from
        # the shortest horizon 4m on; the slope spread is at most 2*delta
        for horizon in [*range(4 * m, 7 * m), 97, 403]:
            bound = growth._spread_bound(horizon, m)
            assert bound >= 2.0
            for prefix in range(horizon // 4 + 1):
                assert _worst_intercept_pair(horizon, prefix, m)[0] <= bound, (horizon, prefix)

    @pytest.mark.parametrize("horizon, prefix, m", [(40, 10, 8), (200, 12, 4), (200, 50, 3)])
    def test_extremal_rates_reach_the_constant(self, horizon, prefix, m):
        # rates mu -+ delta by the sign of G reach the integral of |G|: the constant
        # the bound is checked against is the sup, not an estimate of it
        sup, l, lp = _worst_intercept_pair(horizon, prefix, m)
        points = _class_points(horizon, prefix, m)
        t, G = _intercept_kernel(points, l, lp)
        mu, delta = 0.3, 1e-3
        rates = np.full(horizon + 1, mu)  # rates[n] = l_n
        for g, lo, hi in zip(G, t[:-1], t[1:]):
            rates[lo + 1:hi + 1] = mu - delta * np.sign(g)
        L = np.cumsum(rates[1:])  # L_n, n = 1..horizon
        fits = [np.polyfit(p, L[p - 1], 1) for p in points]
        assert abs(fits[lp - 1][1] - fits[l - 1][1]) == pytest.approx(sup * delta, rel=1e-6)
        slopes = [fit[0] for fit in fits]
        assert max(slopes) - min(slopes) <= 2 * delta


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


def _envelope_brackets(k: int) -> tuple[bool, bool]:
    """1/sqrt(4k+1) <= r and r <= 1/sqrt(3k+1) for r = (2k-1)!!/(2k)!! = C(2k,k)/4^k,
    in integers: C(2k,k)^2 (4k+1) >= 16^k and 16^k >= C(2k,k)^2 (3k+1)."""
    square = math.comb(2 * k, k) ** 2
    return square * (4 * k + 1) >= 16**k, 16**k >= square * (3 * k + 1)


class TestDoubleFactorialEnvelope:
    def test_small_values(self):
        # r_1 = C(2,1)/4 = 1/2 lies between 1/sqrt(5) and 1/sqrt(4), the upper bound attained
        assert Fraction(math.comb(2, 1), 4) == Fraction(1, 2)
        assert _envelope_brackets(1) == (True, True)
        assert math.comb(2, 1) ** 2 * (3 * 1 + 1) == 16**1

    @given(k=st.integers(1, 500))
    @settings(max_examples=50)
    def test_bracketing(self, k):
        assert _envelope_brackets(k) == (True, True)

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


def _direct_square_cmp(c: int, m: int, k: int) -> int:
    diff = c * c * m - 16**k
    return (diff > 0) - (diff < 0)


@st.composite
def screen_boundaries(draw):
    """(c, m, k) with c*s == 4^k or c*(s+1) == 4^k, s = isqrt(m), or a neighbour."""
    k = draw(st.integers(1, 300))
    lower = draw(st.booleans())  # c*s == 4^k, else c*(s+1) == 4^k
    j = draw(st.integers(0 if lower else 1, min(2 * k, 60)))
    s = (1 << j) if lower else (1 << j) - 1
    m = draw(st.integers(max(s * s, 1), (s + 1) ** 2 - 1))
    c = (1 << (2 * k - j)) + draw(st.integers(-1, 1))
    return c, m, k


class TestScreenedSquareComparison:
    @given(c=st.integers(0, 2**700), m=st.integers(1, 10**6), k=st.integers(0, 400))
    def test_equals_direct_comparison(self, c, m, k):
        assert growth._square_cmp(c, m, k) == _direct_square_cmp(c, m, k)

    @given(case=screen_boundaries())
    def test_equals_direct_comparison_at_screen_boundaries(self, case):
        assert growth._square_cmp(*case) == _direct_square_cmp(*case)

    @pytest.mark.parametrize(
        "c, m, k, sign",
        [
            (2, 4, 1, 0),  # k = 1: value 1/2 = 1/sqrt(3k+1), the envelope's equality
            (2, 5, 1, 1),  # c*s == 4^k with m > s^2
            (4, 1, 1, 0),  # c*s == 4^k with m = s^2
            (2, 3, 1, -1),  # c*(s+1) == 4^k
            (3, 2, 1, 1),  # c*s < 4^k < c*(s+1): the direct comparison
            (0, 7, 3, -1),
        ],
    )
    def test_frozen_signs(self, c, m, k, sign):
        assert growth._square_cmp(c, m, k) == sign == _direct_square_cmp(c, m, k)

    @given(k=st.integers(1, 2000))
    @settings(max_examples=30)
    def test_envelope_bounds_at_central_binomials(self, k):
        c = math.comb(2 * k, k)
        assert growth._square_cmp(c, 4 * k + 1, k) == 1
        assert growth._square_cmp(c, 3 * k + 1, k) == (0 if k == 1 else -1)


#: u = 2^-53, the unit roundoff of float64
UNIT_ROUNDOFF = Fraction(1, 2**53)


def _screen_one(r: float, m: int, k: int) -> int:
    """The screen's sign for one (r, m, k), through its array signature."""
    return int(growth._envelope_screen(np.array([r]), np.array([m]), np.array([k]))[0])


class TestEnvelopeScreen:
    def test_every_float_decision_is_the_exact_sign_to_ten_thousand(self, monkeypatch):
        # the arrays the check hands its screen
        calls = []
        screen = growth._envelope_screen
        monkeypatch.setattr(
            growth, "_envelope_screen", lambda r, m, k: calls.append((r, m, k)) or screen(r, m, k)
        )
        assert double_factorial_envelope_holds(10**4)
        # the running float product, verbatim, and c = C(2k, k) exactly
        r, c = 1.0, 1
        running, binomials = [], []
        for k in range(1, 10**4 + 1):
            r *= (2 * k - 1) / (2 * k)
            c = c * (4 * k - 2) // k
            running.append(r)
            binomials.append(c)
        deferred = []
        for upper in (False, True):  # each bound's blocks, in order
            block = [call for call in calls if (call[1] == 3 * call[2] + 1).all() == upper]
            r_arr, m_arr, k_arr = (np.concatenate(arrays) for arrays in zip(*block))
            assert k_arr.tolist() == list(range(1, 10**4 + 1))
            assert m_arr.tolist() == [(3 if upper else 4) * k + 1 for k in range(1, 10**4 + 1)]
            assert r_arr.tobytes() == np.array(running).tobytes()  # bit for bit
            signs = np.concatenate([screen(*call) for call in block]).tolist()
            for k, c, sign in zip(range(1, 10**4 + 1), binomials, signs):
                m = (3 if upper else 4) * k + 1
                if sign == 0:
                    deferred.append((k, m))
                else:
                    assert sign == growth._square_cmp(c, m, k), (k, m)
        # k = 1 meets the upper bound with equality (c^2 * 4 = 16): only
        # the exact path can decide it
        assert deferred == [(1, 4)]

    @settings(max_examples=200)
    @given(k=st.integers(1, 10**4), upper=st.booleans(), offset=st.floats(-1.0, 1.0))
    def test_values_within_the_error_bound_are_deferred(self, k, upper, offset):
        # r within gamma_2k of 1/sqrt(m) could be a rounded true value on
        # either side of the bound, so the screen must not decide it
        m = 3 * k + 1 if upper else 4 * k + 1
        r0 = 1.0 / math.sqrt(m)
        r = r0 + round(offset * 2 * k) * math.ulp(r0)
        gamma = 2 * k * UNIT_ROUNDOFF / (1 - 2 * k * UNIT_ROUNDOFF)
        assume((1 - gamma) ** 2 <= Fraction(r) ** 2 * m <= (1 + gamma) ** 2)
        assert _screen_one(r, m, k) == 0

    @pytest.mark.parametrize("k", [1, 2, 5, 21, 341, 5461, 10**4])
    def test_values_next_to_the_bounds_are_deferred(self, k):
        # 3k + 1 = 4^j for k = 1, 5, 21, 341, 5461: 1/sqrt(3k+1) is a float
        for m in (4 * k + 1, 3 * k + 1):
            r0 = 1.0 / math.sqrt(m)
            for r in (r0, math.nextafter(r0, 0.0), math.nextafter(r0, 1.0)):
                assert _screen_one(r, m, k) == 0

    @pytest.mark.parametrize("k_max", [1, 2, 3, 50, 400])
    def test_exact_fallback_alone_gives_the_same_verdict(self, k_max, monkeypatch):
        # a screen that defers everything leaves the exact path to decide
        monkeypatch.setattr(growth, "_envelope_screen", lambda r, m, k: np.zeros_like(k))
        assert double_factorial_envelope_holds(k_max) == _running_square_envelope_holds(k_max)

    def test_exact_path_is_handed_python_ints(self, monkeypatch):
        # 1 << 4k overflows a numpy integer from k = 16 on
        seen = []
        square_cmp = growth._square_cmp
        monkeypatch.setattr(growth, "_envelope_screen", lambda r, m, k: np.zeros_like(k))
        monkeypatch.setattr(
            growth,
            "_square_cmp",
            lambda c, m, k: seen.append((type(c), type(m), type(k))) or square_cmp(c, m, k),
        )
        assert double_factorial_envelope_holds(40)
        assert len(seen) == 80 and set(seen) == {(int, int, int)}

    @pytest.mark.parametrize("k_bad", [1, 7])
    @pytest.mark.parametrize("upper", [False, True])
    def test_a_screened_violation_fails_the_check(self, k_bad, upper, monkeypatch):
        screen = growth._envelope_screen
        violation = 1 if upper else -1

        def failing(r, m, k):
            signs = screen(r, m, k)
            signs[(k == k_bad) & ((m == 3 * k + 1) == upper)] = violation
            return signs

        monkeypatch.setattr(growth, "_envelope_screen", failing)
        assert not double_factorial_envelope_holds(k_bad)
        if k_bad > 1:
            assert double_factorial_envelope_holds(k_bad - 1)

    def test_an_exact_violation_fails_the_check(self, monkeypatch):
        # k = 1's upper bound is the one comparison the exact path decides
        monkeypatch.setattr(growth, "_square_cmp", lambda c, m, k: 1)
        assert not double_factorial_envelope_holds(1)


def _running_square_envelope_holds(k_max: int) -> bool:
    """The running-square check, verbatim: the squared ratio as a running integer pair.

    It forms the same exact num^2 and den^2 as the re-squaring check and
    makes the same two comparisons at each k, at O(k) multiplications.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    num_sq, den_sq = 1, 1
    for k in range(1, k_max + 1):
        num_sq *= (2 * k - 1) ** 2
        den_sq *= (2 * k) ** 2
        if den_sq > num_sq * (4 * k + 1):  # value < 1/sqrt(4k+1)
            return False
        if num_sq * (3 * k + 1) > den_sq:  # value > 1/sqrt(3k+1)
            return False
    return True


@pytest.mark.parametrize("k_max", [1, 2, 1000, 2000])
def test_running_square_and_resquaring_references_agree(k_max):
    assert _running_square_envelope_holds(k_max) == _resquaring_envelope_holds(k_max)


def test_verdict_equals_running_square_check_at_ten_thousand():
    assert double_factorial_envelope_holds(10**4) == _running_square_envelope_holds(10**4)
