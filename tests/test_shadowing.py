"""Shadowing constructions, closed-form bounds and the telescoping identity."""

import cmath
import dataclasses
import math
import random
import re
import struct
from fractions import Fraction
from sys import float_info

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hu_shadow import shadowing
from hu_shadow.systems import OVERFLOW_LIMIT, _pseudo_orbit
from hu_shadow import (
    AnalysisOptions,
    Classification,
    ClassificationKind,
    DegenerateQuotient,
    Family,
    HuShadowError,
    HypothesisViolation,
    MapSystem,
    NonContraction,
    PeriodicFit,
    PolicyKind,
    PseudoOrbit,
    RateRangeError,
    ResidualPolicy,
    ShadowMeta,
    ShadowMethod,
    ShadowOptions,
    ShadowResult,
    SearchRegion,
    accumulated_rate_bound,
    affine_sinusoid,
    best_b1_search,
    classify,
    detect_periodic_scaled,
    divergence_lower_bound_log10,
    double_factorial_envelope_holds,
    exact_propagate,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
    profile_of,
    ratio_check,
    refined_cell_size,
    shadow_contracting,
    shadow_expanding,
    sup_error_for_start,
    telescope_difference,
    witness_divergence,
)

SQRT_3_2 = math.sqrt(1.5)


class TestClosedFormBounds:
    @given(
        p=st.floats(0.01, 0.99),
        n=st.integers(1, 300),
        eps=st.floats(0, 1e-2),
        gap=st.floats(0, 1),
    )
    def test_uniform_rate_matches_the_closed_form(self, p, n, eps, gap):
        # the paper's constant-rate sum p^(n-1)*gap + (1 - p^(n-1))/(1 - p)*eps
        pw = p ** (n - 1)
        assert math.isclose(
            accumulated_rate_bound([p] * (n - 1), n, eps, gap),
            pw * gap + (1.0 - pw) / (1.0 - p) * eps,
            rel_tol=1e-10,
            abs_tol=1e-300,
        )

    def test_accumulated_bound_matches_exact_partial_sum(self):
        # frozen from the exact rational oracle: S_4 = 20/9 for rates
        # (2, 1/3, 2, 1/3, ...)
        sys = periodic_linear()
        rates = sys.rates(10)
        assert accumulated_rate_bound(rates, 5, 1e-3, 0.0) == pytest.approx(
            float(Fraction(20, 9)) * 1e-3, rel=1e-12
        )
        orbit = exact_propagate(sys, Fraction(1), Fraction(1, 1000), 10)
        for n in range(2, 11):
            expected = float(orbit.partial_sum(n - 1)) * 1e-3
            assert accumulated_rate_bound(rates, n, 1e-3, 0.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_partial_sum_recurrence(self):
        # S_n is entry n + 1 of the forward sweep with eps = 1 and a zero gap
        rates = [2.0, 0.5, 3.0]
        assert accumulated_rate_bound(rates, 2, 1.0, 0.0) == 1.0
        assert accumulated_rate_bound(rates, 3, 1.0, 0.0) == 1.5
        assert accumulated_rate_bound(rates, 4, 1.0, 0.0) == 5.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_partial_sum_refuses_a_rate_that_is_not_positive(self, bad):
        with pytest.raises(RateRangeError, match=rf"p_n = {bad!r} at n = 2$"):
            accumulated_rate_bound([2.0, bad, 3.0], 4, 1.0, 0.0)

    @given(
        rates=st.lists(st.floats(0.1, 3.0), min_size=4, max_size=40),
        eps=st.floats(0, 1e-2),
        gap=st.floats(0, 1e-2),
    )
    def test_accumulated_bound_monotone_in_inputs(self, rates, eps, gap):
        n = len(rates)
        base = accumulated_rate_bound(rates, n, eps, gap)
        assert base >= 0
        assert accumulated_rate_bound(rates, n, eps * 2, gap) >= base
        assert accumulated_rate_bound(rates, n, eps, gap * 2) >= base


def _reference_bound(rates, n, eps, gap):
    """The per-index bound evaluated afresh: the reference for the sweep."""
    log_prod = 0.0
    S = 0.0
    for i in range(1, n):
        p = rates[i - 1]
        if p <= 0:
            raise ValueError("growth rate must be positive")
        log_prod += math.log(p)
        S = S * p + 1.0
    prod = math.exp(log_prod) if log_prod < 700 else (math.inf if gap else 0.0)
    return prod * gap + S * eps


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@st.composite
def rate_lists(draw):
    rates = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=150))
    if draw(st.booleans()):
        # log-product past 700: prod saturates to inf, or to 0.0 for a zero gap
        rates[:0] = [1e300, 1e300, 1e300]
    return rates


def _equal_factor_classification() -> Classification:
    fit = PeriodicFit(m=2, prefix=0, rate_factors=(2.0, 2.0), constants=(1, 1), max_residual=0.0)
    return Classification(kind=ClassificationKind.PERIODIC_BELOW_ONE, periodic=fit)


def _orbit(horizon: int) -> PseudoOrbit:
    return generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), horizon)


#: Public calls refused for their arguments: the error each raises, or the
#: value it returns in place of a result.
REFUSALS = {
    "accumulated_n_below_one": (
        lambda: accumulated_rate_bound([2.0], 0, 1e-3, 0.0),
        ValueError("n must be an int of at least 1, got 0"),
    ),
    "accumulated_too_few_rates": (
        lambda: accumulated_rate_bound([2.0], 4, 1e-3, 0.0),
        ValueError("need rates p_1..p_3, got 1"),
    ),
    "partial_sum_too_few_rates": (
        lambda: accumulated_rate_bound([2.0, 0.5], 4, 1.0, 0.0),
        ValueError("need rates p_1..p_3, got 2"),
    ),
    # each returned a value that bounds nothing, or failed inside the slicing; the
    # NaN rate shows the refusal comes before the sweep's scan
    "accumulated_n_not_int": (
        lambda: accumulated_rate_bound([2.0, math.nan, 3.0], 2.5, 1e-3, 0.0),
        ValueError("n must be an int of at least 1, got 2.5"),
    ),
    "accumulated_eps_nan": (
        lambda: accumulated_rate_bound([2.0, math.nan, 3.0], 3, math.nan, 0.0),
        ValueError("eps must be finite and nonnegative, got nan"),
    ),
    "accumulated_eps_negative": (
        lambda: accumulated_rate_bound([2.0, math.nan, 3.0], 3, -1e-3, 0.0),
        ValueError("eps must be finite and nonnegative, got -0.001"),
    ),
    "accumulated_gap_nan": (
        lambda: accumulated_rate_bound([2.0, math.nan, 3.0], 3, 1e-3, math.nan),
        ValueError("gap must be finite and nonnegative, got nan"),
    ),
    "accumulated_gap_negative": (
        lambda: accumulated_rate_bound([2.0, math.nan, 3.0], 3, 1e-3, -1.0),
        ValueError("gap must be finite and nonnegative, got -1.0"),
    ),
    # an infinite gap returned nan, inf * 0.0 past 700; an infinite eps returned inf
    "accumulated_gap_inf": (
        lambda: accumulated_rate_bound([1e-300] * 5, 4, 1e-3, math.inf),
        ValueError("gap must be finite and nonnegative, got inf"),
    ),
    "accumulated_eps_inf": (
        lambda: accumulated_rate_bound([2.0, 0.5], 3, math.inf, 0.0),
        ValueError("eps must be finite and nonnegative, got inf"),
    ),
    # max_iter 0 ran one iteration and then named 0; a NaN tol ran every iteration;
    # a NaN or negative tail_fraction capped J at horizon + 200 unsaid
    "options_tol_zero": (
        lambda: ShadowOptions(tol=0.0), ValueError("tol must be finite and above 0, got 0.0")
    ),
    "options_tol_nan": (
        lambda: ShadowOptions(tol=math.nan), ValueError("tol must be finite and above 0, got nan")
    ),
    "options_tol_inf": (
        lambda: ShadowOptions(tol=math.inf), ValueError("tol must be finite and above 0, got inf")
    ),
    "options_max_iter_zero": (
        lambda: ShadowOptions(max_iter=0), ValueError("max_iter must be an int of at least 1, got 0")
    ),
    "options_max_iter_float": (
        lambda: ShadowOptions(max_iter=2.0), ValueError("max_iter must be an int of at least 1, got 2.0")
    ),
    "options_max_iter_bool": (
        lambda: ShadowOptions(max_iter=True), ValueError("max_iter must be an int of at least 1, got True")
    ),
    "analysis_tol_zero": (
        lambda: AnalysisOptions(tol=0.0), ValueError("tol must be finite and above 0, got 0.0")
    ),
    "analysis_tol_nan": (
        lambda: AnalysisOptions(tol=math.nan), ValueError("tol must be finite and above 0, got nan")
    ),
    "analysis_tol_inf": (
        lambda: AnalysisOptions(tol=math.inf), ValueError("tol must be finite and above 0, got inf")
    ),
    "options_tail_fraction_negative": (
        lambda: ShadowOptions(tail_fraction=-1e-3),
        ValueError("tail_fraction must lie in (0, 1), got -0.001"),
    ),
    "options_tail_fraction_nan": (
        lambda: ShadowOptions(tail_fraction=math.nan),
        ValueError("tail_fraction must lie in (0, 1), got nan"),
    ),
    "options_tail_fraction_one": (
        lambda: ShadowOptions(tail_fraction=1.0), ValueError("tail_fraction must lie in (0, 1), got 1.0")
    ),
    # K <= 1 let NaN through: the bound came out NaN, J the cap
    "expanding_k_nan": (
        lambda: shadow_expanding(
            index_scaled_linear(),
            generate_pseudo_orbit(index_scaled_linear(), 1.0, 1e-3, ResidualPolicy(), 50),
            math.nan,
        ),
        HypothesisViolation("K must exceed 1, got nan"),
    ),
    "telescope_n_zero": (
        lambda: telescope_difference(periodic_linear(), _orbit(5), 1.0, 0),
        ValueError("n must be an int of at least 1, got 0"),
    ),
    "telescope_n_past_horizon": (
        lambda: telescope_difference(periodic_linear(), _orbit(5), 1.0, 6),
        ValueError("n must be in 1..5, got 6"),
    ),
    "exact_propagate_horizon_zero": (
        lambda: exact_propagate(periodic_linear(), Fraction(1), Fraction(1, 1000), 0),
        ValueError("horizon must be an int of at least 1, got 0"),
    ),
    "ratio_check_too_few_t": (
        lambda: ratio_check([1.0, 1.0], 1.5, 3), ValueError("need t_1..t_3, got 2 values")
    ),
    # K = 0 divided by zero; K = nan and a NaN t_10 each returned nan
    "ratio_check_k_zero": (
        lambda: ratio_check([1.0] * 10, 0.0, 10), ValueError("K must be finite and above 0, got 0.0")
    ),
    "ratio_check_k_nan": (
        lambda: ratio_check([1.0] * 10, math.nan, 10),
        ValueError("K must be finite and above 0, got nan"),
    ),
    "ratio_check_k_inf": (
        lambda: ratio_check([1.0] * 10, math.inf, 10),
        ValueError("K must be finite and above 0, got inf"),
    ),
    "ratio_check_t_nan": (
        lambda: ratio_check([1.0] * 9 + [math.nan], 2.0, 10), ValueError("t must be positive")
    ),
    # a NaN tol fitted every candidate and returned None, as did an infinite one;
    # tol = 1e-4 finds the period-2 fit on the same profile
    "detect_tol_nan": (
        lambda: detect_periodic_scaled(profile_of(power_two_parity(), 1000), 8, math.nan),
        ValueError("tol must be finite and above 0, got nan"),
    ),
    "detect_tol_inf": (
        lambda: detect_periodic_scaled(profile_of(power_two_parity(), 1000), 8, math.inf),
        ValueError("tol must be finite and above 0, got inf"),
    ),
    "detect_tol_zero": (
        lambda: detect_periodic_scaled(profile_of(power_two_parity(), 1000), 8, 0.0),
        ValueError("tol must be finite and above 0, got 0.0"),
    ),
    # max_period 2 finds the parity family's period-2 fit on the same profile
    "detect_max_period_one": (
        lambda: detect_periodic_scaled(profile_of(power_two_parity(), 1000), 1, 1e-4), None
    ),
    "classify_window_one_at_four": (
        lambda: classify(profile_of(periodic_linear(), 4), None, AnalysisOptions(window=1)),
        Classification(kind=ClassificationKind.UNDETERMINED),
    ),
    "witness_equal_rate_factors": (
        lambda: witness_divergence(power_two_parity(), 1e-3, 40, _equal_factor_classification()),
        HypothesisViolation("rate factors are all equal; no witness"),
    ),
}


def _count_arguments() -> dict:
    """Every count argument of the library: (name, least, the call given it)."""
    sys = periodic_linear()
    orbit = _orbit(5)
    region = SearchRegion(center=1.0, radius=0.01)
    fit = PeriodicFit(m=2, prefix=0, rate_factors=(2.0, 4.0), constants=(4.0, 1.0),
                      max_residual=0.0)
    cls = Classification(kind=ClassificationKind.PERIODIC_BELOW_ONE, periodic=fit)
    profile = profile_of(power_two_parity(), 40)
    return {
        # the five table readers take their steps from one checked range
        **{
            f"MapSystem.{reader}": ("horizon", 0, lambda h, reader=reader: getattr(sys, reader)(h))
            for reader in ("coefficients", "coefficient_pairs", "log_rates", "rates", "tables")
        },
        "profile_of": ("horizon", 1, lambda h: profile_of(sys, h)),
        "detect_periodic_scaled": (
            "max_period", 1, lambda m: detect_periodic_scaled(profile, m, 1e-4)
        ),
        "generate_pseudo_orbit": (
            "horizon", 1, lambda h: generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), h)
        ),
        "exact_propagate": (
            "horizon", 1, lambda h: exact_propagate(sys, Fraction(1), Fraction(1, 1000), h)
        ),
        "witness_divergence": (
            "horizon", 1, lambda h: witness_divergence(power_two_parity(), 1e-3, h, cls)
        ),
        # shadow_expanding steps a given orbit on from its last value this way
        "shadow_extension": (
            "horizon", 1, lambda h: _pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), h, None, orbit)
        ),
        "accumulated_rate_bound": (
            "n", 1, lambda n: accumulated_rate_bound([2.0, 0.5], n, 1e-3, 0.0)
        ),
        "telescope_difference": ("n", 1, lambda n: telescope_difference(sys, orbit, 1.0, n)),
        "ShadowOptions": ("max_iter", 1, lambda n: ShadowOptions(max_iter=n)),
        "AnalysisOptions_window": ("window", 1, lambda n: AnalysisOptions(window=n)),
        "AnalysisOptions_max_period": ("max_period", 2, lambda n: AnalysisOptions(max_period=n)),
        "best_b1_search_horizon": ("horizon", 1, lambda h: best_b1_search(sys, orbit, h, region)),
        "best_b1_search_grid": ("grid", 2, lambda n: best_b1_search(sys, orbit, 5, region, grid=n)),
        "best_b1_search_refinements": (
            "refinements", 0, lambda n: best_b1_search(sys, orbit, 5, region, refinements=n)
        ),
        "sup_error_for_start": ("horizon", 1, lambda h: sup_error_for_start(sys, orbit, 1.0, h)),
        "refined_cell_size_grid": ("grid", 2, lambda n: refined_cell_size(region, n, 0)),
        "refined_cell_size_refinements": (
            "refinements", 0, lambda n: refined_cell_size(region, 2, n)
        ),
        "double_factorial_envelope_holds": ("k_max", 1, double_factorial_envelope_holds),
        "ratio_check": ("n", 2, lambda n: ratio_check([1.0, 2.0, 3.0], 1.5, n)),
        "divergence_lower_bound_log10_k": (
            "k", 0, lambda k: divergence_lower_bound_log10(2.0, 4.0, 1, 2, 2, 4.0, k)
        ),
        "divergence_lower_bound_log10_m": (
            "m", 2, lambda m: divergence_lower_bound_log10(2.0, 4.0, 1, 2, m, 4.0, 3)
        ),
    }


class TestArgumentRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refused(self, name):
        call, outcome = REFUSALS[name]
        if isinstance(outcome, Exception):
            with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}$"):
                call()
        else:
            assert call() == outcome

    @pytest.mark.parametrize("value", [True, 2.5, "least - 1"], ids=["bool", "float", "below"])
    @pytest.mark.parametrize("entry", sorted(_count_arguments()))
    def test_every_count_is_refused_before_any_table(self, entry, value, monkeypatch):
        # a bool passed as a count, a float failed inside the table or the slicing
        # with a TypeError, and refined_cell_size divided by zero at grid 1; a table
        # reader read a negative horizon as the empty table, and profile_of a True
        # horizon as one step
        name, least, call = _count_arguments()[entry]
        value = least - 1 if value == "least - 1" else value
        built = []
        for table in ("_classes", "_rates"):  # every float and exact table reads one
            monkeypatch.setattr(MapSystem, table, lambda self, *args: built.append(args))
        message = f"{name} must be an int of at least {least}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
        assert built == []

    def test_a_numpy_integer_is_a_count(self):
        orbit = generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), np.int64(5))
        assert orbit == _orbit(5)


class TestSoundBoundSweep:
    @given(
        rates=rate_lists(),
        eps=st.floats(0, 1e-2),
        gap=st.one_of(st.just(0.0), st.floats(0, 1.0)),
    )
    def test_sweep_equals_per_index_bounds(self, rates, eps, gap):
        horizon = len(rates)
        sweep = list(shadowing._accumulated_rate_bounds(rates, horizon, eps, gap))
        expected = [_reference_bound(rates, n, eps, gap) for n in range(1, horizon + 1)]
        assert len(sweep) == horizon
        assert all(_same(x, y) for x, y in zip(sweep, expected))
        assert all(
            _same(accumulated_rate_bound(rates, n, eps, gap), y)
            for n, y in enumerate(expected, start=1)
        )
        assert _same(max(sweep), max(expected))

    @pytest.mark.parametrize("gap", [0.0, 1e-3, 0.37])
    @pytest.mark.parametrize("horizon", [1000, 3385, 4000])
    @pytest.mark.parametrize(
        "system", [periodic_linear(), index_scaled_linear(), affine_sinusoid()],
        ids=lambda s: s.family.value,
    )
    def test_family_rates_sampled_indices(self, system, horizon, gap):
        rates = system.rates(horizon)
        sweep = list(shadowing._accumulated_rate_bounds(rates, horizon, 1e-3, gap))
        for n in [*range(1, horizon, 97), horizon]:
            assert _same(sweep[n - 1], _reference_bound(rates, n, 1e-3, gap))

    def test_constructions_report_the_reference_maximum(self):
        horizon = 400
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        rates = sys.rates(horizon)
        result = shadow_contracting(sys, pseudo, SQRT_3_2)
        assert result.meta.sound_bound == max(
            _reference_bound(rates, n, 1e-3, 0.0) for n in range(1, horizon + 1)
        )
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        rates = sys.rates(horizon)
        result = shadow_expanding(sys, pseudo, SQRT_3_2)
        gap = abs(result.d[0])
        assert result.meta.sound_bound == max(
            _reference_bound(rates, n, 1e-3, gap) for n in range(1, horizon + 1)
        )

    def test_nonpositive_rate_rejected(self):
        rates = [0.5, 2.0, 0.0, 1.5]
        with pytest.raises(ValueError, match="growth rate must be positive"):
            max(shadowing._accumulated_rate_bounds(rates, 5, 1e-3, 0.0))
        with pytest.raises(ValueError, match="growth rate must be positive"):
            accumulated_rate_bound(rates, 4, 1e-3, 0.0)
        assert accumulated_rate_bound(rates, 3, 1e-3, 0.0) == _reference_bound(
            rates, 3, 1e-3, 0.0
        )

    def test_constructions_do_not_evaluate_the_bound_per_index(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return accumulated_rate_bound(*args)

        monkeypatch.setattr(shadowing, "accumulated_rate_bound", counting)
        horizon = 3000
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        shadow_contracting(sys, pseudo, SQRT_3_2)
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        assert pseudo.horizon == horizon
        shadow_expanding(sys, pseudo, SQRT_3_2)
        assert len(calls) <= 1


#: rates the maximum's screen must keep bit for bit: inf, 1e+-300 and subnormals
max_rate_values = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([math.inf, 1e300, 1e-300, 5e-324, 2.0**-1060, 2.0**-1022]),
)
#: eps and gap values at the float range's ends, zero included
range_ends = st.sampled_from([0.0, 1.0, 1e300, 1e-300, 5e-324])


@st.composite
def bound_inputs(draw):
    """(rates, period): any rates with no period, or a cycle repeated past a
    block or three of the sweep, with its period or none."""
    if draw(st.booleans()):
        return draw(st.lists(max_rate_values, max_size=200)), None
    cycle = draw(st.lists(max_rate_values, min_size=1, max_size=3))
    length = draw(st.integers(0, 3000))
    rates = (cycle * (length // len(cycle) + 1))[:length]
    return rates, draw(st.sampled_from([None, len(cycle)]))


class TestBoundMaximum:
    """The constructions' maximum of the forward bound, made with no list, is
    the list's built-in ``max`` to the last bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        inputs=bound_inputs(),
        eps=st.one_of(st.floats(0, 1e-2), range_ends),
        gap=st.one_of(st.floats(0, 1.0), range_ends),
    )
    @example(inputs=([math.inf, 2.0], None), eps=1e-3, gap=1e-3)
    @example(inputs=([math.inf, 2.0], None), eps=1e-3, gap=0.0)
    @example(inputs=([0.5, 3.0] * 1500, 2), eps=1e-3, gap=0.0)
    @example(inputs=([0.5, 3.0] * 1500, 2), eps=1e-3, gap=0.5)
    def test_the_maximum_is_the_lists(self, inputs, eps, gap):
        rates, period = inputs
        horizon = len(rates) + 1
        got = shadowing._accumulated_rate_bound_max(rates, horizon, eps, gap, period)
        want = max(shadowing._accumulated_rate_bounds(rates, horizon, eps, gap, period))
        assert type(got) is float
        assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(rates=st.lists(max_rate_values, max_size=200))
    def test_the_recurrence_is_the_running_loop(self, rates):
        # L_k is the running sum 0.0 + ln p_1 + ... + ln p_k in order, and S_2 = 1
        logs, sums = shadowing._rate_recurrence(rates, len(rates) + 1, 1.0)
        log_prod, S, want_logs, want_sums = 0.0, 1.0, [], []
        for k, p in enumerate(rates):
            log_prod += math.log(p)
            S = S * p + 1.0 if k else 1.0
            want_logs.append(log_prod)
            want_sums.append(S)
        assert [x.hex() for x in logs.tolist()] == [x.hex() for x in want_logs]
        assert [x.hex() for x in sums] == [x.hex() for x in want_sums]
        assert shadowing._rate_recurrence(rates, len(rates) + 1, 0.0) == (None, sums)

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_a_product_at_the_largest_float_is_kept(self, ulps):
        # E_1 * gap lands within a few ulp of the largest float, where np.exp and
        # math.exp may round it to either side of the overflow
        e = math.exp(699.0)
        gap = float_info.max / e
        for _ in range(abs(ulps)):
            gap = math.nextafter(gap, math.inf if ulps > 0 else 0.0)
        rates = [e, 1.0 - 2.0**-52, 0.5]
        got = shadowing._accumulated_rate_bound_max(rates, 4, 0.0, gap)
        assert got.hex() == max(shadowing._accumulated_rate_bounds(rates, 4, 0.0, gap)).hex()

    @pytest.mark.parametrize("gap", [5e-324, 2.0**-1060, 2.0**-1022])
    def test_subnormal_values_are_kept(self, gap):
        # every value is on the subnormal grid, where a product's rounding is coarse
        rates = [0.7, 1.3, 0.9, 1.1, 1.0 + 2.0**-52, 0.999]
        for eps in (0.0, 5e-324, 2.0**-1070):
            got = shadowing._accumulated_rate_bound_max(rates, 7, eps, gap)
            assert got.hex() == max(shadowing._accumulated_rate_bounds(rates, 7, eps, gap)).hex()

    @pytest.mark.parametrize(
        "first, top",
        [(1.5, 1.0), (1.5, float_info.max), (1.5 * math.exp(-200 * 2.0**-52), None)],
        ids=["unit", "largest_float", "least_subnormal"],
    )
    def test_the_screen_keeps_the_maximum_with_np_exp_a_few_ulp_off(self, monkeypatch, first, top):
        # E_n grows by about an ulp a step, so the largest value is the last one;
        # the screen's exp is taken 4 ulp low at even entries and 4 ulp high at
        # odd ones, so the entry before the last screens above it: at the largest
        # float it overflows where the last does not, and with a gap of one
        # subnormal unit, as E_n crosses 1.5 at the last entry, it rounds to two
        # units where the exact product rounds to one, and the last to one for two
        rates = [first] + [1.0 + 2.0**-52] * 200
        values = shadowing._accumulated_rate_bounds(rates, 202, 0.0, 1.0)
        gap = 5e-324 if top is None else math.nextafter(top, 0.0) / values[-1]
        exp = np.exp

        def off(x):
            y = exp(x)
            sides = np.where(np.arange(y.size) % 2, np.inf, 0.0)
            for _ in range(4):
                y = np.nextafter(y, sides)
            return y

        want = max(shadowing._accumulated_rate_bounds(rates, 202, 0.0, gap))
        monkeypatch.setattr(np, "exp", off)
        got = shadowing._accumulated_rate_bound_max(rates, 202, 0.0, gap)
        assert got.hex() == want.hex()

    def test_an_infinite_first_rate_makes_the_bound_infinite_not_nan(self):
        # S_2 = 0.0 * inf + 1.0 was NaN: the zero-gap bound read nan, and the
        # list's max skipped the NaNs and reported the gap, 0.001, for a bound of inf
        assert accumulated_rate_bound([math.inf, 2.0], 3, 1e-3, 0.0) == 0.003
        assert accumulated_rate_bound([math.inf, 2.0], 3, 1e-3, 1e-3) == math.inf
        bounds = shadowing._accumulated_rate_bounds([math.inf, 2.0], 3, 1e-3, 1e-3)
        assert bounds == [0.001, math.inf, math.inf]
        assert shadowing._accumulated_rate_bound_max([math.inf, 2.0], 3, 1e-3, 1e-3) == math.inf

    def test_constructions_build_no_bound_list(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a construction built the bound list")

        monkeypatch.setattr(shadowing, "_accumulated_rate_bounds", refused)
        sys = periodic_linear()
        shadow_contracting(sys, generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 3000), 3.0)
        for sys in (index_scaled_linear(), affine_sinusoid()):
            shadow_expanding(sys, generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 300), 3.0)


class TestSinusoidEvaluationCounts:
    def test_the_benchmark_orbit_and_construction_count_their_evaluations(self, monkeypatch):
        # the long-horizon sinusoid at H = 10**3: generation makes one eval_map a
        # step, the fixed point one eval_q per moved b_n and the residual sup one
        # eval_map a step; a change that adds or drops an evaluation moves these
        sys = affine_sinusoid()
        profile = profile_of(sys, 1000)
        K = classify(profile, sys).K
        counts = {"eval_map": 0, "eval_q": 0}
        for name in counts:
            method = getattr(MapSystem, name)

            def counted(self, *args, _name=name, _method=method):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(MapSystem, name, counted)
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 1000)
        assert counts == {"eval_map": 629, "eval_q": 0}
        assert pseudo.horizon == 629
        result = shadow_expanding(sys, pseudo, K)
        assert counts == {"eval_map": 1258, "eval_q": 669}
        assert result.meta.iterations == 4


class TestTelescopeIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        b1=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**31),
    )
    def test_matches_direct_propagation(self, b1, seed):
        rng = random.Random(seed)
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(
            sys,
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            1e-3,
            ResidualPolicy(kind=PolicyKind.LOW_DISCREPANCY_PHASE),
            40,
        )
        b = complex(b1)
        for n in range(1, 41):
            direct = b - pseudo.value(n)
            tele = telescope_difference(sys, pseudo, b1, n)
            assert abs(tele - direct) <= 1e-10 * max(1.0, abs(direct))
            if n < 40:
                b = sys.eval_map(n, b)

    def test_nonlinear_identity(self):
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 15)
        b1 = 1.001
        b = complex(b1)
        for n in range(1, 15):
            b = sys.eval_map(n, b)
        direct = b - pseudo.value(15)
        tele = telescope_difference(sys, pseudo, b1, 15)
        assert abs(tele - direct) <= 1e-9 * max(1.0, abs(direct))


class TestContracting:
    def test_frozen_sup_difference(self):
        # the alternating partial sums reach 9, so the sup error is 9*eps
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 200)
        result = shadow_contracting(sys, pseudo, SQRT_3_2)
        assert result.method is ShadowMethod.CONTRACTING_DIRECT
        assert result.sup_diff == pytest.approx(9e-3, rel=1e-9)
        assert result.meta.sound_bound == pytest.approx(9e-3, rel=1e-9)
        assert result.bound == pytest.approx(SQRT_3_2 / (SQRT_3_2 - 1) * 1e-3)

    def test_b_is_true_orbit(self):
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 100)
        result = shadow_contracting(sys, pseudo, SQRT_3_2)
        assert result.meta.residual_sup == 0.0
        assert result.b[0] == pseudo.value(1)

    def test_sup_within_sound_bound(self):
        sys = periodic_linear()
        for theta in (0.0, 1.0, 2.5):
            policy = ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=theta)
            pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, policy, 150)
            result = shadow_contracting(sys, pseudo, SQRT_3_2)
            assert result.sup_diff <= result.meta.sound_bound * 1.05 + 1e-15

    def test_zero_epsilon_is_exact(self):
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(
            sys, 1.0, 0.0, ResidualPolicy(kind=PolicyKind.ZERO), 100
        )
        result = shadow_contracting(sys, pseudo, SQRT_3_2)
        assert result.sup_diff == 0.0

    def test_requires_K_above_one(self):
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 100)
        with pytest.raises(HypothesisViolation):
            shadow_contracting(sys, pseudo, 0.9)

    def test_an_infinite_K_bounds_by_epsilon(self):
        # 1/5e-324 overflows, so classify reports K = inf; K*eps/(K - 1) was NaN
        sys = periodic_linear((5e-324,))
        K = classify(profile_of(sys, 1000), sys).K
        assert K == math.inf
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 200)
        result = shadow_contracting(sys, pseudo, K)
        assert result.bound == 1e-3 and result.sup_diff == 1e-3 and result.bound_ok
        # a finite K keeps the expression, bit for bit
        for K in (1e308, SQRT_3_2):
            assert shadow_contracting(sys, pseudo, K).bound.hex() == (K * 1e-3 / (K - 1.0)).hex()


class TestExpanding:
    def test_alternating_linear_true_orbit(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 60)
        result = shadow_expanding(sys, pseudo, SQRT_3_2)
        assert result.method is ShadowMethod.EXPANDING_TAIL_SERIES
        assert result.meta.residual_sup <= 1e-9
        assert result.meta.iterations == 1
        assert result.meta.truncation >= 60

    def test_nonlinear_fixed_point(self):
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 100)
        result = shadow_expanding(sys, pseudo, 3.0)
        assert result.meta.iterations <= 20
        assert result.meta.residual_sup <= 1e-9
        assert result.sup_diff <= 2e-3 / math.log(3.0) * (1 + 1e-3)
        assert result.bound_ok

    def test_zero_epsilon_gives_pseudo_orbit_back(self):
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(
            sys, 1.0, 0.0, ResidualPolicy(kind=PolicyKind.ZERO), 50
        )
        result = shadow_expanding(sys, pseudo, 3.0)
        assert result.sup_diff == 0.0
        assert result.b == pseudo.a

    def test_truncation_tracks_tail_fraction(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 40)
        coarse = shadow_expanding(
            sys, pseudo, SQRT_3_2, ShadowOptions(tail_fraction=1e-1)
        )
        fine = shadow_expanding(
            sys, pseudo, SQRT_3_2, ShadowOptions(tail_fraction=1e-6)
        )
        assert fine.meta.truncation >= coarse.meta.truncation

    def test_differences_stable_under_truncation_refinement(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 40)
        a = shadow_expanding(sys, pseudo, SQRT_3_2, ShadowOptions(tail_fraction=1e-3))
        b = shadow_expanding(sys, pseudo, SQRT_3_2, ShadowOptions(tail_fraction=1e-8))
        diff = max(abs(x - y) for x, y in zip(a.d, b.d))
        assert diff <= 1e-3 * a.bound

    def test_requires_K_above_one(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 40)
        with pytest.raises(HypothesisViolation):
            shadow_expanding(sys, pseudo, 1.0)

    @settings(max_examples=15, deadline=None)
    @given(theta=st.floats(0, 2 * math.pi), eps=st.floats(1e-6, 1e-3))
    def test_expanding_orbit_residual_property(self, theta, eps):
        sys = index_scaled_linear()
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=theta)
        pseudo = generate_pseudo_orbit(sys, 1.0, eps, policy, 40)
        result = shadow_expanding(sys, pseudo, SQRT_3_2)
        assert result.meta.residual_sup <= 1e-9


class TestOverflowDiscipline:
    def test_telescope_overflow_raises(self):
        # quotient products of 1e150 per step leave the float range by
        # n = 4; the zero pseudo-orbit itself stays representable
        sys = periodic_linear((1e150,))
        pseudo = generate_pseudo_orbit(
            sys, 0.0, 0.0, ResidualPolicy(kind=PolicyKind.ZERO), 10
        )
        with pytest.raises(OverflowError):
            telescope_difference(sys, pseudo, 1.0, 5)

    @pytest.mark.parametrize("n", [4, 5, 10])
    def test_telescope_refuses_a_coefficient_past_the_float_range(self, n):
        # c_3 = 3e308 reads inf; the telescope names that step, as the constructions do
        sys = index_scaled_linear(1e308, 2)
        pseudo = PseudoOrbit(
            a=(1 + 0j,) * 10,
            r=(0j,) * 9,
            epsilon=0.0,
            horizon=10,
            policy=ResidualPolicy(kind=PolicyKind.ZERO),
        )
        assert telescope_difference(sys, pseudo, 1.0, 3) == 0j
        with pytest.raises(RateRangeError, match=r"c_n = \(inf\+0j\) at n = 3$"):
            telescope_difference(sys, pseudo, 1.0, n)

    def test_overflowing_coefficient_is_refused_before_any_step(self):
        # c_1025 = 2^1025 reads inf from the table and from every scalar; a
        # pseudo-orbit the system did not generate steps through it, and the
        # construction names that step before it steps at all
        sys = power_two_parity()
        pseudo = PseudoOrbit(
            a=(1e-300 + 0j,) * 1100,
            r=(0j,) * 1099,
            epsilon=0.0,
            horizon=1100,
            policy=ResidualPolicy(kind=PolicyKind.ZERO),
        )
        assert sys.coefficient(1025) == complex(math.inf, 0.0)
        with pytest.raises(RateRangeError, match=r"c_n = \(inf\+0j\) at n = 1025"):
            shadow_contracting(sys, pseudo, 2.0)


def _constant_pseudo_orbit(kind: PolicyKind) -> PseudoOrbit:
    """a_n = 1, r_n = 0 at horizon 1100 with epsilon 1e-3, built by hand."""
    return PseudoOrbit(
        a=(1 + 0j,) * 1100,
        r=(0j,) * 1099,
        epsilon=1e-3,
        horizon=1100,
        policy=ResidualPolicy(kind=kind),
    )


class TestExpandingNamedErrors:
    @pytest.mark.parametrize("kind", [PolicyKind.CONSTANT_REAL, PolicyKind.ZERO])
    def test_underflowed_rate_in_the_tail_estimate(self, kind):
        # p_n = 0.0 at every n = 2 mod 3: the first the tail estimate reads is n = 1100
        sys = MapSystem(Family.PERIODIC_LINEAR, (Fraction(10**400, 3), Fraction(3, 10**400)))
        with pytest.raises(RateRangeError, match=r"p_n = 0\.0 at n = 1100"):
            shadow_expanding(sys, _constant_pseudo_orbit(kind), 2.0)

    def test_errors_are_package_errors(self):
        assert issubclass(RateRangeError, HuShadowError)

    def test_a_quotient_that_rounds_to_zero_is_degenerate(self):
        # |c_3| = 1e-301 is a float, but below 1e-300 the backward recurrence divides by ~0
        sys = periodic_linear((Fraction(1, 10**301), 10**302))
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 20)
        with pytest.raises(DegenerateQuotient, match=r"^\|q_3\| ~ 0; error dynamics singular$"):
            shadow_expanding(sys, pseudo, math.sqrt(10))

    def test_a_nonlinear_quotient_of_zero_is_degenerate(self, monkeypatch):
        # slope 1 from a_1 = pi gave q_1 = 1 + cos(pi) = 0j at the first fixed-point
        # iterate; a sinusoid's slope is now above 1, so q_1 >= slope - 1 > 0 on the
        # real line, and the zero is q_1's alone here
        sys = affine_sinusoid(1.5)
        pseudo = generate_pseudo_orbit(sys, math.pi, 1e-3, ResidualPolicy(), 5)
        eval_q = MapSystem.eval_q
        monkeypatch.setattr(
            MapSystem, "eval_q", lambda self, n, u, v: 0j if n == 1 else eval_q(self, n, u, v)
        )
        with pytest.raises(DegenerateQuotient, match=r"^\|q_1\| ~ 0; error dynamics singular$"):
            shadow_expanding(sys, pseudo, 1.5)

    def test_a_quotient_past_the_float_range_is_a_non_contraction(self):
        # the phase residuals push the fixed point off the real line, where the
        # map expands imaginary parts until cmath.sin overflows in eval_q
        sys = affine_sinusoid(1.05)
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=1.0)
        pseudo = generate_pseudo_orbit(sys, 0.0, 1.0, policy, 10)
        with pytest.raises(NonContraction, match=r"^q_111 left the float range at b_111 = "):
            shadow_expanding(sys, pseudo, 1.05)

    def test_a_sup_change_increasing_three_times_is_a_non_contraction(self):
        sys = affine_sinusoid(1.5)
        pseudo = generate_pseudo_orbit(sys, 2.0, 1.0, ResidualPolicy(), 5)
        with pytest.raises(NonContraction, match="sup-change increased over 3 consecutive"):
            shadow_expanding(sys, pseudo, 1.5)

    def test_no_fixed_point_within_max_iter_is_a_non_contraction(self):
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 60)
        with pytest.raises(NonContraction, match="^no fixed point within 1 iterations$"):
            shadow_expanding(sys, pseudo, 3.0, ShadowOptions(max_iter=1))


# -- the loops with a call per step, kept verbatim as references ----------


def _per_call_accumulated_rate_bounds(rates, horizon, eps, gap):
    log_prod = 0.0
    S = 0.0
    for i in range(horizon):
        if i:
            p = rates[i - 1]
            if p <= 0:
                raise ValueError("growth rate must be positive")
            log_prod += math.log(p)
            S = S * p + 1.0
        prod = math.exp(log_prod) if log_prod < 700 else (math.inf if gap else 0.0)
        yield prod * gap + S * eps


def _listed_tables(sys, horizon):
    """``sys.tables(horizon)`` as the lists the per-step loops read."""
    coeffs, rates = sys.tables(horizon)
    return (None if coeffs is None else coeffs.tolist()), rates.tolist()


def _per_call_apply(sys, coeffs, n, z):
    if coeffs is not None:
        c = coeffs[n - 1]
        if cmath.isfinite(c):
            return c * z
    return sys.eval_map(n, z)


def _per_call_relative_residual_sup(sys, coeffs, b):
    worst = 0.0
    for n in range(1, len(b)):
        res = abs(b[n] - _per_call_apply(sys, coeffs, n, b[n - 1]))
        worst = max(worst, res / max(1.0, abs(b[n - 1])))
    return worst


def _per_call_shadow_contracting(sys, pseudo, K):
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    coeffs, rates = _listed_tables(sys, horizon)
    b = [pseudo.value(1)]
    for n in range(1, horizon):
        b.append(_per_call_apply(sys, coeffs, n, b[-1]))
    d = tuple(b[i] - pseudo.a[i] for i in range(horizon))
    sup = max(abs(x) for x in d)
    sound = max(_per_call_accumulated_rate_bounds(rates, horizon, eps, 0.0))
    if sup > sound * 1.05 + 1e-15:
        raise HypothesisViolation(
            f"measured sup-difference {sup:.3e} exceeds the sound rate bound "
            f"{sound:.3e}; the system is not contracting as classified"
        )
    bound = K * eps / (K - 1.0)
    meta = ShadowMeta(
        truncation=0,
        iterations=1,
        residual_sup=_per_call_relative_residual_sup(sys, coeffs, b),
        sound_bound=sound,
    )
    return ShadowResult(
        b=tuple(b), d=d, bound=bound, method=ShadowMethod.CONTRACTING_DIRECT, meta=meta
    )


class TruncatedOrbit(HuShadowError):
    """The regenerating reference's error for an orbit that generation from
    a_1 does not take to its horizon; a generated orbit never meets it."""


def _regenerated(sys, pseudo, horizon):
    """The orbit generated again from a_1 with the orbit's own epsilon and
    policy: the extension a generated orbit gets by stepping it on."""
    return generate_pseudo_orbit(sys, pseudo.value(1), pseudo.epsilon, pseudo.policy, horizon)


def _stepped_on(sys, pseudo, horizon):
    """``pseudo`` as given, stepped on from a_H through ``eval_map`` with its
    own epsilon and policy, stopping where generation would."""
    a, r = list(pseudo.a), list(pseudo.r)
    truncated = False
    for n in range(pseudo.horizon, horizon):
        r_n = pseudo.policy.residual(n, pseudo.epsilon)
        try:
            nxt = sys.eval_map(n, a[-1]) + r_n
        except OverflowError:
            truncated = True
            break
        if not (abs(nxt.real) <= OVERFLOW_LIMIT and abs(nxt.imag) <= OVERFLOW_LIMIT):
            truncated = True
            break
        a.append(nxt)
        r.append(r_n)
    return PseudoOrbit(tuple(a), tuple(r), pseudo.epsilon, len(a), pseudo.policy, truncated)


def _per_call_shadow_expanding(sys, pseudo, K, opts=ShadowOptions(), extend=_regenerated):
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    bound = 2.0 * eps / math.log(K)

    coeffs, rates = _listed_tables(sys, horizon + shadowing.TAIL_CAP_MARGIN)
    J, capped = shadowing._pick_truncation(rates, horizon, eps, bound, opts.tail_fraction, K)
    ext = extend(sys, pseudo, max(J + 1, horizon))
    if ext.horizon < horizon:
        raise TruncatedOrbit(
            f"the extension orbit reaches only n = {ext.horizon} of the "
            f"pseudo-orbit's horizon {horizon}: its next value leaves the representable range"
        )
    J = min(J, ext.horizon - 1)

    n_ext = ext.horizon
    a = list(ext.a)
    d = [0j] * (n_ext + 1)
    scale = max(1.0, abs(a[0]))
    iterations = 0
    prev_change = math.inf
    increasing = 0
    while True:
        iterations += 1
        new_d = [0j] * (n_ext + 1)
        for n in range(J, 0, -1):
            if coeffs is None:
                b_n = a[n - 1] + d[n - 1]
                try:
                    q = sys.eval_q(n, b_n, a[n - 1])
                except OverflowError:
                    q = complex(math.inf, 0.0)
                if not cmath.isfinite(q):
                    raise NonContraction(f"q_{n} left the float range at b_{n} = {b_n!r}")
            else:
                q = coeffs[n - 1]
            if abs(q) < shadowing.DEGENERATE_QUOTIENT_LIMIT:
                raise DegenerateQuotient(f"|q_{n}| ~ 0; error dynamics singular")
            r_n = ext.residual(n) if n <= len(ext.r) else 0j
            new_d[n - 1] = (r_n + new_d[n]) / q
            if not cmath.isfinite(new_d[n - 1]):  # the refusal, checked in the step
                raise DegenerateQuotient(f"d_{n} = (r_{n} + d_{n + 1})/q_{n} left the float range")
        change = max(abs(new_d[i] - d[i]) for i in range(horizon))
        d = new_d
        if sys.is_linear or eps == 0.0:
            break
        if change < opts.tol * scale:
            break
        if change > prev_change:
            increasing += 1
            if increasing >= 3:
                raise NonContraction(
                    "sup-change increased over 3 consecutive iterations; "
                    "epsilon is too large for the tail series to contract"
                )
        else:
            increasing = 0
        prev_change = change
        if iterations >= opts.max_iter:
            raise NonContraction(
                f"no fixed point within {opts.max_iter} iterations"
            )
    b = tuple(a[i] + d[i] for i in range(horizon))
    d_out = tuple(d[:horizon])
    sound = max(_per_call_accumulated_rate_bounds(rates, horizon, eps, abs(d[0])))
    meta = ShadowMeta(
        truncation=J,
        iterations=iterations,
        residual_sup=_per_call_relative_residual_sup(sys, coeffs, b),
        sound_bound=sound,
        truncation_capped=capped,
    )
    return ShadowResult(
        b=b, d=d_out, bound=bound, method=ShadowMethod.EXPANDING_TAIL_SERIES, meta=meta
    )


def _per_call_shadow_given(sys, pseudo, K, opts=ShadowOptions()):
    """The per-call construction on the orbit as given, stepped on from a_H."""
    return _per_call_shadow_expanding(sys, pseudo, K, opts, _stepped_on)


def _float_bits(x: float) -> int:
    """The 64 bits of a float, so NaNs of either sign differ."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _exp_every_step_accumulated_rate_bounds(rates, horizon, eps, gap):
    """``_accumulated_rate_bounds`` before it skipped exp for a zero gap, verbatim
    but for a zero gap's product past exp(700): 0.0, where inf * 0.0 was NaN."""
    if horizon < 1:
        return []
    log, exp, inf = math.log, math.exp, math.inf
    log_prod = 0.0
    S = 0.0
    out = [1.0 * gap + S * eps]  # n = 1: the empty product exp(0.0) = 1.0
    for n, p in enumerate(rates[: horizon - 1], 1):
        if not p > 0:
            raise RateRangeError(f"growth rate must be positive: p_n = {p!r} at n = {n}")
        log_prod += log(p)
        S = S * p + 1.0
        out.append((exp(log_prod) if log_prod < 700 else (inf if gap else 0.0)) * gap + S * eps)
    return out


def _loop_partial_sum(rates, n):
    """The perturbation partial sum S_n by its own loop S <- S*p + 1: the
    reference for entry n + 1 of the forward sweep."""
    S = 0.0
    for i in range(1, n + 1):
        S = S * rates[i - 1] + 1.0
    return S


def _bits(x) -> tuple:
    """The exact bits of a float or complex, NaN and the sign of zero included."""
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def _result_bits(result: ShadowResult) -> tuple:
    meta = result.meta
    return (
        tuple(_bits(z) for z in result.b),
        tuple(_bits(z) for z in result.d),
        _bits(result.bound),
        result.method,
        meta.truncation,
        meta.iterations,
        _bits(meta.residual_sup),
        _bits(meta.sound_bound),
        meta.truncation_capped,
    )


def _outcome(fn, *args):
    """fn(*args), or the error's type and message.

    The sound-bound rate guard names the bad index and the reference's
    does not: any "growth rate must be positive" error is the same outcome.
    """
    try:
        return fn(*args)
    except ValueError as exc:
        if str(exc).startswith("growth rate must be positive"):
            return "growth rate must be positive"
        return type(exc), str(exc)
    except Exception as exc:
        return type(exc), str(exc)


def _shadow_outcome(construct, *args):
    return _outcome(lambda: _result_bits(construct(*args)))


shadow_systems = st.one_of(
    st.lists(
        st.one_of(
            st.integers(-4, 4).filter(bool),
            st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool),
            st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 1e-3),
            st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(
                lambda z: abs(z) > 1e-3
            ),
        ),
        min_size=1,
        max_size=4,
    ).map(periodic_linear),
    st.builds(
        index_scaled_linear,
        st.one_of(st.integers(-5, 5).filter(bool), st.floats(0.5, 5.0)),
        st.one_of(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=7), st.floats(0.5, 5.0)),
    ),
    st.builds(
        power_two_parity,
        st.one_of(st.integers(1, 3), st.floats(0.5, 3.0).map(Fraction)),
        st.integers(-4, 4),
    ),
)
#: ``shadow_contracting``'s refusal of the nonlinear family, as ``_outcome`` reports it
NONLINEAR_CONTRACTING = (
    HypothesisViolation,
    "the contracting construction needs a linear family, got affine_sinusoid",
)
lean_policies = st.builds(ResidualPolicy, st.sampled_from(list(PolicyKind)), st.floats(-7.0, 7.0))


class TestLeanConstructions:
    @settings(max_examples=120, deadline=None)
    @given(
        sys=shadow_systems,
        a1=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        eps=st.floats(0, 1e-2),
        policy=lean_policies,
        horizon=st.one_of(st.integers(1, 120), st.integers(1000, 1100)),
        K=st.floats(1.01, 8.0),
    )
    def test_linear_bit_identical_to_per_call_loops(self, sys, a1, eps, policy, horizon, K):
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        for new, old in (
            (shadow_contracting, _per_call_shadow_contracting),
            (shadow_expanding, _per_call_shadow_expanding),
        ):
            assert _shadow_outcome(new, sys, pseudo, K) == _shadow_outcome(old, sys, pseudo, K)

    @settings(max_examples=25, deadline=None)
    @given(
        slope=st.floats(1.5, 4.0),
        a1=st.floats(-2.0, 2.0),
        eps=st.floats(0, 1e-2),
        policy=lean_policies,
        horizon=st.integers(1, 60),
        tail_fraction=st.sampled_from([1e-1, 1e-3, 1e-6]),
    )
    def test_nonlinear_bit_identical_to_per_call_loops(self, slope, a1, eps, policy, horizon, tail_fraction):
        sys = affine_sinusoid(slope)
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        opts = ShadowOptions(tail_fraction=tail_fraction)
        K = slope - 0.25
        assert _shadow_outcome(shadow_expanding, sys, pseudo, K, opts) == _shadow_outcome(
            _per_call_shadow_expanding, sys, pseudo, K, opts
        )
        assert _shadow_outcome(shadow_contracting, sys, pseudo, K) == NONLINEAR_CONTRACTING

    @pytest.mark.parametrize("K", [0.5, 1.0, math.nan])
    def test_contracting_checks_k_before_linearity(self, K):
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10)
        with pytest.raises(HypothesisViolation, match=f"K must exceed 1, got {K}"):
            shadow_contracting(sys, pseudo, K)

    @settings(max_examples=80, deadline=None)
    @given(
        sys=shadow_systems,
        a1=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        eps=st.floats(0, 1e-2),
        policy=lean_policies,
        horizon=st.one_of(st.integers(1, 120), st.integers(1000, 1100)),
        K=st.floats(1.01, 8.0),
    )
    def test_contracting_residual_is_zero_by_construction(self, sys, a1, eps, policy, horizon, K):
        # the per-call residual pass over b re-steps it with b's own arithmetic
        result = _outcome(shadow_contracting, sys, generate_pseudo_orbit(sys, a1, eps, policy, horizon), K)
        if isinstance(result, ShadowResult):
            coeffs = _listed_tables(sys, horizon)[0]
            assert _bits(_per_call_relative_residual_sup(sys, coeffs, result.b)) == _bits(0.0)
            assert _bits(result.meta.residual_sup) == _bits(0.0)

    @pytest.mark.parametrize(
        "sys, horizon, K",
        [
            (periodic_linear(), 10_000, SQRT_3_2),
            (index_scaled_linear(), 3385, SQRT_3_2),
            (affine_sinusoid(), 629, 3.0),
            (power_two_parity(), 1025, 2.0),
        ],
        ids=["periodic", "index_scaled", "sinusoid", "parity"],
    )
    def test_benchmark_settings(self, sys, horizon, K):
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        pairs = [(shadow_expanding, _per_call_shadow_expanding)]
        if sys.is_linear:
            pairs.append((shadow_contracting, _per_call_shadow_contracting))
        else:
            assert _shadow_outcome(shadow_contracting, sys, pseudo, K) == NONLINEAR_CONTRACTING
        for new, old in pairs:
            assert _shadow_outcome(new, sys, pseudo, K) == _shadow_outcome(old, sys, pseudo, K)

    @pytest.mark.parametrize("kind", [PolicyKind.CONSTANT_REAL, PolicyKind.ZERO])
    @pytest.mark.parametrize(
        "sys, refusals",
        [
            # (contracting, expanding): a c_n past the float range in the orbit's own
            # steps, after the tail estimate's underflowed rate where there is one
            (power_two_parity(), (r"c_n = \(inf\+0j\) at n = 1025", r"p_n = 0\.0 at n = 1100")),
            # generated from a_1 = 1, the orbit leaves the float range at n = 5
            (MapSystem(Family.PERIODIC_LINEAR, (Fraction(10**300), Fraction(1, 10**300), 3)), None),
            (
                MapSystem(Family.PERIODIC_LINEAR, (Fraction(10**400, 3), Fraction(3, 10**400))),
                (r"c_n = \(inf\+0j\) at n = 1$", r"p_n = 0\.0 at n = 1100"),
            ),
            (periodic_linear((1e-301, 2.0)), None),  # a degenerate quotient
            (periodic_linear((1e308 + 1e308j, 0.5)), None),  # |c_1| overflows, c_1 is finite
            # c_n = inf at every odd n > 1, up to the horizon
            (index_scaled_linear(1e308, 2), (r"c_n = \(inf\+0j\) at n = 3$",) * 2),
        ],
        ids=[
            "parity", "short_extension", "underflowed_rate", "degenerate", "modulus_overflow",
            "infinite_steps",
        ],
    )
    def test_hand_built_orbits(self, sys, refusals, kind):
        # a_n = 1 and r_n = 0, which generation does not reproduce: shadowed as given
        pseudo = _constant_pseudo_orbit(kind)
        if refusals is not None:
            for construct, refusal in zip((shadow_contracting, shadow_expanding), refusals):
                with pytest.raises(RateRangeError, match=refusal):
                    construct(sys, pseudo, 2.0)
            return
        for new, old in (
            (shadow_contracting, _per_call_shadow_contracting),
            (shadow_expanding, _per_call_shadow_given),
        ):
            assert _shadow_outcome(new, sys, pseudo, 2.0) == _shadow_outcome(old, sys, pseudo, 2.0)


class TestContinuedExtension:
    """``shadow_expanding`` uses the orbit it is given up to its horizon H and
    steps it on from a_H through the table it holds, however the orbit was
    made: a generated orbit and every equal copy of it give the regenerating
    per-call construction's result, and any other orbit is shadowed as given."""

    @pytest.mark.parametrize(
        "sys, a1, kind, horizon, K",
        [
            (affine_sinusoid(), 1.0, PolicyKind.CONSTANT_REAL, 1000, 3.0),  # truncated at 629
            (affine_sinusoid(2.5), 0.3, PolicyKind.LOW_DISCREPANCY_PHASE, 40, 2.25),
            (affine_sinusoid(), -0.7, PolicyKind.ZERO, 300, 3.0),
            (power_two_parity(), 1.0, PolicyKind.CONSTANT_REAL, 1100, 2.0),  # p_n = 0.0 in the tail
            (power_two_parity(Fraction(3, 2), -3), 1.0, PolicyKind.LOW_DISCREPANCY_PHASE, 1100, 1.2),
            (index_scaled_linear(), 1.0, PolicyKind.LOW_DISCREPANCY_PHASE, 1100, SQRT_3_2),
            (index_scaled_linear(2.5, 3), 1.0 + 1j, PolicyKind.CONSTANT_PHASE, 1100, 1.1),
            (periodic_linear((3, 0.5 + 0.25j)), 2.0, PolicyKind.LOW_DISCREPANCY_PHASE, 1100, 1.1),
        ],
        ids=[
            "sinusoid", "sinusoid_low_discrepancy", "sinusoid_zero", "parity_past_the_float_range",
            "parity_fraction", "index_low_discrepancy", "index_phase", "periodic_complex",
        ],
    )
    def test_every_copy_gives_the_regenerated_result(self, sys, a1, kind, horizon, K):
        policy = ResidualPolicy(kind=kind, theta=0.7)
        pseudo = generate_pseudo_orbit(sys, a1, 1e-3, policy, horizon)
        twin = MapSystem(sys.family, sys.params)  # equal to sys, another object
        orbits = {
            "generated": pseudo,
            "replaced": dataclasses.replace(pseudo),
            "hand_built": PseudoOrbit(
                pseudo.a, pseudo.r, pseudo.epsilon, pseudo.horizon, pseudo.policy, pseudo.truncated
            ),
            "twin": generate_pseudo_orbit(twin, a1, 1e-3, policy, horizon),
        }
        assert twin == sys and twin is not sys
        want = _shadow_outcome(_per_call_shadow_expanding, sys, pseudo, K)
        assert want == _shadow_outcome(_per_call_shadow_given, sys, pseudo, K)
        for name, orbit in orbits.items():
            assert orbit == pseudo
            assert _shadow_outcome(shadow_expanding, sys, orbit, K) == want, name

    @settings(max_examples=60, deadline=None)
    @given(
        sys=st.one_of(shadow_systems, st.floats(1.5, 4.0).map(affine_sinusoid)),
        a1=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        eps=st.floats(0, 1e-2),
        policy=lean_policies,
        horizon=st.one_of(st.integers(1, 60), st.integers(1000, 1100)),
        scale=st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        K=st.floats(1.01, 8.0),
    )
    # off the real line the sine overflows at q_7: both refuse with NonContraction
    @example(
        sys=affine_sinusoid(4.0), a1=1.0, eps=0.0, policy=ResidualPolicy(), horizon=8,
        scale=1j, K=2.0,
    )
    def test_a_hand_built_orbit_is_shadowed_as_given(self, sys, a1, eps, policy, horizon, scale, K):
        # generation does not reproduce a_n scaled by a drawn factor
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        by_hand = dataclasses.replace(pseudo, a=tuple(scale * z for z in pseudo.a))
        assert _shadow_outcome(shadow_expanding, sys, by_hand, K) == _shadow_outcome(
            _per_call_shadow_given, sys, by_hand, K
        )

    def test_an_orbit_generation_does_not_reach_is_kept(self):
        # generation from a_1 = 1 leaves the float range at n = 5, where the
        # regenerating reference stops; the orbit as given is kept whole
        sys = MapSystem(Family.PERIODIC_LINEAR, (Fraction(10**300), Fraction(1, 10**300), 3))
        pseudo = _constant_pseudo_orbit(PolicyKind.CONSTANT_REAL)
        assert generate_pseudo_orbit(sys, 1.0, 1e-3, pseudo.policy, 1100).horizon == 4
        with pytest.raises(TruncatedOrbit):
            _per_call_shadow_expanding(sys, pseudo, 2.0)
        result = shadow_expanding(sys, pseudo, 2.0)
        assert len(result.b) == 1100 and result.meta.truncation >= 1100
        assert result.b == tuple(a + d for a, d in zip(pseudo.a, result.d))

    @pytest.mark.parametrize(
        "a, r, horizon",
        [((1j,) * 3, (0j,) * 2, 4), ((1j,) * 3, (0j,) * 3, 3), ((1j,) * 4, (0j,) * 3, 3), ((), (), 0)],
        ids=["horizon_past_a", "r_as_long_as_a", "a_past_horizon", "empty"],
    )
    def test_malformed_lengths_are_refused(self, a, r, horizon):
        message = (
            rf"len\(a\) == horizon == len\(r\) \+ 1, got len\(a\) = {len(a)}, "
            rf"horizon = {horizon}, len\(r\) = {len(r)}"
        )
        with pytest.raises(ValueError, match=message):
            PseudoOrbit(a, r, 1e-3, horizon, ResidualPolicy())
        pseudo = generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), 3)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(pseudo, a=a, r=r, horizon=horizon)

    @settings(max_examples=40, deadline=None)
    @given(
        slope=st.floats(1.5, 4.0),
        a1=st.one_of(
            st.floats(-2.0, 2.0),
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        ),
        eps=st.floats(0, 1e-2),
        policy=lean_policies,
        horizon=st.integers(1, 1100),
    )
    def test_nonlinear_long_horizons(self, slope, a1, eps, policy, horizon):
        sys = affine_sinusoid(slope)
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        K = slope - 0.25
        assert _shadow_outcome(shadow_expanding, sys, pseudo, K) == _shadow_outcome(
            _per_call_shadow_expanding, sys, pseudo, K
        )

    def test_no_second_generation_and_one_table(self, monkeypatch):
        generated, tables = [], []
        monkeypatch.setattr(
            shadowing,
            "generate_pseudo_orbit",
            lambda *args: generated.append(args) or generate_pseudo_orbit(*args),
        )
        original = MapSystem._float_table
        monkeypatch.setattr(
            MapSystem, "_float_table", lambda self, ns: tables.append(ns) or original(self, ns)
        )
        for sys, K in ((index_scaled_linear(), SQRT_3_2), (affine_sinusoid(), 3.0)):
            pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 1000)
            tables.clear()
            shadow_expanding(sys, pseudo, K)
            shadow_expanding(sys, dataclasses.replace(pseudo), K)
            assert generated == []
            assert tables == ([range(1, 1201)] * 2 if sys.is_linear else [])

    def test_every_copy_is_stepped_on_over_the_tail_only(self, monkeypatch):
        calls = []
        original = MapSystem.eval_map
        monkeypatch.setattr(
            MapSystem, "eval_map", lambda self, n, z: calls.append(n) or original(self, n, z)
        )
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 300)
        calls.clear()
        J = shadow_expanding(sys, pseudo, 3.0).meta.truncation
        stepped_on = calls[:]
        # the steps 300 .. J and the residual pass after them, without steps 1 .. 299
        assert J > 300 and stepped_on[: J - 299] == list(range(300, J + 1))
        twin = generate_pseudo_orbit(MapSystem(sys.family, sys.params), 1.0, 1e-3, ResidualPolicy(), 300)
        by_hand = PseudoOrbit(pseudo.a, pseudo.r, pseudo.epsilon, pseudo.horizon, pseudo.policy)
        for copy in (dataclasses.replace(pseudo), by_hand, twin):
            calls.clear()
            shadow_expanding(sys, copy, 3.0)
            assert calls == stepped_on

    def test_the_fixed_point_evaluates_only_the_quotients_that_moved(self, monkeypatch):
        calls = []
        original = MapSystem.eval_q
        monkeypatch.setattr(
            MapSystem, "eval_q", lambda self, *args: calls.append(args[0]) or original(self, *args)
        )
        sys = affine_sinusoid()
        result = shadow_expanding(sys, generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 1000), 3.0)
        J = result.meta.truncation
        assert (J, result.meta.iterations) == (628, 4)
        # every q_n once, then a few dozen: the per-call loop makes 4 * 628
        assert sorted(set(calls)) == list(range(1, J + 1))
        assert len(calls) < 2 * J


class TestLeanSweeps:
    @given(
        rates=rate_lists(),
        eps=st.floats(0, 1e-2),
        gap=st.one_of(st.just(0.0), st.floats(0, 1.0)),
    )
    def test_sound_bound_list_equals_per_call_generator(self, rates, eps, gap):
        for horizon in (len(rates), len(rates) + 1):
            sweep = shadowing._accumulated_rate_bounds(rates, horizon, eps, gap)
            expected = list(_per_call_accumulated_rate_bounds(rates, horizon, eps, gap))
            assert [_bits(x) for x in sweep] == [_bits(x) for x in expected]

    @given(rates=rate_lists())
    def test_partial_sum_equals_its_own_loop(self, rates):
        # prefixes past exp(700) included: a zero gap's term is 0.0 there, not NaN
        for n in range(1, len(rates) + 1):
            got = accumulated_rate_bound(rates, n + 1, 1.0, 0.0)
            assert _float_bits(got) == _float_bits(_loop_partial_sum(rates, n)), n

    def test_sound_bound_keeps_libm_exp_and_log(self):
        # 20,000 log-products spread over (-700, 700): numpy's SIMD exp and
        # log round some of them apart from libm's
        rng = random.Random(7)
        rates = [math.exp(rng.uniform(-0.7, 0.7)) for _ in range(20_000)]
        sweep = shadowing._accumulated_rate_bounds(rates, 20_001, 1e-3, 0.5)
        expected = list(_per_call_accumulated_rate_bounds(rates, 20_001, 1e-3, 0.5))
        assert [x.hex() for x in sweep] == [x.hex() for x in expected]

    @pytest.mark.parametrize("eps", [0.0, -0.0, 1e-3])
    @pytest.mark.parametrize("gap", [0.0, -0.0, 1e-3])
    def test_zero_gap_skips_exp_bit_identically(self, gap, eps):
        # the log-product climbs past 700 (inf * 0.0 is NaN), falls back
        # below it and below exp's underflow (-745), and ends at inf
        rng = random.Random(3)
        rates = [math.exp(rng.uniform(-3, 3)) for _ in range(200)]
        rates += [1e300] * 3 + [1e-300] * 6 + rates + [math.inf, 2.0]
        sweep = shadowing._accumulated_rate_bounds(rates, len(rates) + 1, eps, gap)
        expected = _exp_every_step_accumulated_rate_bounds(rates, len(rates) + 1, eps, gap)
        assert [_float_bits(x) for x in sweep] == [_float_bits(x) for x in expected]

    @pytest.mark.parametrize("gap, logs", [(0.0, 0), (-0.0, 0), (1e-3, 99)])
    def test_zero_gap_takes_no_log(self, gap, logs, monkeypatch):
        # a zero gap's bound never reads the log-product, so it is not formed
        calls = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
        shadowing._accumulated_rate_bounds([0.5, 2.0] * 50, 100, 1e-3, gap)
        assert len(calls) == logs

    @given(rates=rate_lists(), eps=st.sampled_from([0.0, -0.0, 1e-3]))
    def test_zero_gap_skip_on_drawn_rates(self, rates, eps):
        for gap in (0.0, -0.0):
            sweep = shadowing._accumulated_rate_bounds(rates, len(rates) + 1, eps, gap)
            expected = _exp_every_step_accumulated_rate_bounds(rates, len(rates) + 1, eps, gap)
            assert [_float_bits(x) for x in sweep] == [_float_bits(x) for x in expected]

    def test_residual_sup_equals_the_per_call_past_the_float_range(self, monkeypatch):
        # c_1025 = 2^1025 is inf in the table and in eval_map: the per-call
        # loop goes through eval_map there, the table loop makes no call
        sys = power_two_parity()
        b = (1e-300 + 0j,) * 1100
        coeffs = sys.coefficients(1100)
        expected = _per_call_relative_residual_sup(sys, coeffs, b)
        calls = []
        original = MapSystem.eval_map
        monkeypatch.setattr(
            MapSystem, "eval_map", lambda self, n, z: calls.append(n) or original(self, n, z)
        )
        assert _bits(shadowing._relative_residual_sup(sys, coeffs, b)) == _bits(expected)
        assert calls == []

    @given(
        values=st.lists(
            st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1, max_size=40
        ),
        coefficients=st.lists(
            st.one_of(
                st.complex_numbers(allow_nan=True, allow_infinity=True).filter(bool),
                st.floats(allow_nan=True, allow_infinity=True).map(complex).filter(bool),
                st.just(Fraction(1, 10**400)),  # no zero constant: a 0.0 entry by underflow
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_residual_sup_running_max_equals_builtin_max(self, values, coefficients):
        # NaN, inf and overflowing moduli included; max(worst, x) and
        # max(1.0, m) are the reference
        sys = MapSystem(Family.PERIODIC_LINEAR, tuple(coefficients))
        coeffs = sys.coefficients(len(values))
        abs(1j)  # clear a stale errno: CPython 3.11's abs(complex) of a NaN reports it
        expected = _outcome(lambda: _bits(_per_call_relative_residual_sup(sys, coeffs, values)))
        abs(1j)
        got = _outcome(lambda: _bits(shadowing._relative_residual_sup(sys, coeffs, values)))
        assert got == expected


class TestNonFiniteRates:
    def test_pick_truncation_rejects_nan(self):
        # returned (210, True) before
        with pytest.raises(RateRangeError, match=r"p_n = nan at n = 10"):
            shadowing._pick_truncation([math.nan] * 300, 10, 1e-3, 0.01, 1e-3, 2.0)

    def test_a_tail_product_past_the_float_range_saturates(self):
        # ln 10^300 twice passes ln(max float): the tail estimate's math.exp
        # raised a bare OverflowError('math range error')
        tiny = Fraction(1, 10**300)
        sys = periodic_linear((tiny, tiny, 10**300, 10**300, 10**10))
        pseudo = PseudoOrbit((1 + 0j,), (), 1e-3, 1, ResidualPolicy())
        bound = 2.0 * 1e-3 / math.log(2.0)
        assert shadowing._pick_truncation(sys.rates(201), 1, 1e-3, bound, 1e-3, 2.0) == (197, False)
        # J falls to the extension's last step, 3: a_5 = 1e300 * a_4 leaves the float
        # range; then d_2 is about 1e297, and dividing by q_1 = 1e-300 overflows
        message = r"^d_1 = \(r_1 \+ d_2\)/q_1 left the float range$"
        with pytest.raises(DegenerateQuotient, match=message):
            shadow_expanding(sys, pseudo, 2.0)

    def test_sound_bound_rejects_nan(self):
        # returned nan before
        with pytest.raises(RateRangeError, match=r"p_n = nan at n = 2"):
            accumulated_rate_bound([0.5, math.nan, 0.5], 4, 1e-3, 0.0)

    def test_sound_bound_allows_inf(self):
        # the parity profile past n = 1024 has inf rates
        assert accumulated_rate_bound([0.5, math.inf, 0.5], 4, 1e-3, 1.0) == math.inf

    @pytest.mark.parametrize("horizon", [3, 4, 5])
    def test_zero_gap_bound_past_exp_700_is_a_number(self, horizon):
        # ln(1e305) > 700: the zero-gap entry at n = 3 was inf * 0.0 = NaN, which
        # max skipped, and the construction refused with a bound of about 1e-10
        sys = periodic_linear((1, 10**305, Fraction(1, 10**306)))
        pseudo = generate_pseudo_orbit(sys, 1e-300, 1e-10, ResidualPolicy(), horizon)
        result = shadow_contracting(sys, pseudo, 2.154)
        assert result.meta.sound_bound >= result.sup_diff >= 1e295
        bounds = shadowing._accumulated_rate_bounds(sys.rates(horizon), horizon, 1e-10, 0.0)
        assert not any(map(math.isnan, bounds))
