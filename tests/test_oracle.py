"""Exact rational oracle and the brute-force start-point search."""

import ast
import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hu_shadow import oracle
from hu_shadow import (
    Family,
    MapSystem,
    PolicyKind,
    PseudoOrbit,
    ResidualPolicy,
    SearchRegion,
    UnsupportedFamily,
    affine_sinusoid,
    best_b1_search,
    exact_difference,
    exact_propagate,
    exact_telescope,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
    refined_cell_size,
    shadow_expanding,
    sup_error_for_start,
)
from hu_shadow.systems import modulus
from test_systems import reference_rational_coefficient  # the per-index rule, verbatim

SQRT_3_2 = math.sqrt(1.5)

small_fraction = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=64
)


class TestExactPropagation:
    def test_frozen_values(self):
        orbit = exact_propagate(periodic_linear(), Fraction(1), Fraction(1, 1000), 6)
        # a_2 = 2 + 1/1000, a_3 = a_2/3 + 1/1000
        assert orbit.value(2) == Fraction(2001, 1000)
        assert orbit.value(3) == Fraction(2001, 3000) + Fraction(1, 1000)
        assert orbit.partial_sum(4) == Fraction(20, 9)
        assert orbit.partial_sum(5) == Fraction(49, 9)
        assert orbit.product(2) == Fraction(2, 3)

    def test_step_index_outside_the_orbit_is_refused(self):
        # index 0 read the entry at the horizon before: the index wrapped
        orbit = exact_propagate(periodic_linear(), Fraction(1), Fraction(1, 1000), 5)
        for read in (orbit.value, orbit.product, orbit.partial_sum):
            for n in (0, -1, 6):
                with pytest.raises(ValueError, match=rf"step index must be in 1\.\.5, got {n}$"):
                    read(n)

    def test_matches_float_generation(self):
        sys = index_scaled_linear()
        orbit = exact_propagate(sys, Fraction(1), Fraction(1, 1000), 25)
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 25)
        for n in range(1, 26):
            assert float(orbit.value(n)) == pytest.approx(
                pseudo.value(n).real, rel=1e-12
            )

    @pytest.mark.parametrize(
        "eps, horizon, message",
        [
            (Fraction(-1, 1000), 5, "epsilon must be finite and nonnegative, got -1/1000"),
            (math.nan, 5, "epsilon must be finite and nonnegative, got nan"),
            (math.inf, 5, "epsilon must be finite and nonnegative, got inf"),
            (Fraction(1, 1000), 0, "horizon must be >= 1, got 0"),
        ],
        ids=["negative", "nan", "inf", "horizon_0"],
    )
    def test_refuses_what_float_generation_refuses(self, eps, horizon, message):
        # a negative epsilon gave an orbit whose residual was -epsilon, and a
        # NaN one failed inside Fraction with "cannot convert NaN to integer ratio"
        sys = periodic_linear()
        with pytest.raises(ValueError) as float_side:
            generate_pseudo_orbit(sys, 1.0, eps, ResidualPolicy(), horizon)
        with pytest.raises(ValueError) as exact_side:
            exact_propagate(sys, Fraction(1), eps, horizon)
        assert str(exact_side.value) == str(float_side.value) == message

    @pytest.mark.parametrize(
        "a1", [math.nan, math.inf, -math.inf, 1j, 1 + 0j, np.complex128(2.0)],
        ids=["nan", "inf", "minus_inf", "complex", "complex_real_value", "numpy_complex"],
    )
    def test_refuses_a_start_that_is_not_finite_and_real(self, a1, monkeypatch):
        # NaN failed inside Fraction with a ValueError, inf with an OverflowError
        # and a complex a1 with a TypeError; now one line, before any table is read
        pairs = []
        monkeypatch.setattr(MapSystem, "coefficient_pairs", lambda self, horizon: pairs.append(horizon))
        with pytest.raises(ValueError) as refusal:
            exact_propagate(periodic_linear(), a1, Fraction(1, 1000), 5)
        assert str(refusal.value) == f"a1 must be finite and real, got {a1!r}"
        assert pairs == []

    @pytest.mark.parametrize(
        "a1", [3, Fraction(-2, 3), 0.75, -0.0, 1.7e308],
        ids=["int", "fraction", "float", "negative_zero", "past_the_float_limit"],
    )
    def test_accepts_an_int_a_fraction_and_a_finite_float(self, a1):
        # the exact side keeps no range limit: 1.7e308 is past generation's 1e300
        orbit = exact_propagate(periodic_linear(), a1, Fraction(1, 1000), 3)
        assert orbit.value(1) == Fraction(a1)
        assert orbit.value(2) == 2 * Fraction(a1) + Fraction(1, 1000)

    def test_rejects_nonlinear(self):
        with pytest.raises(UnsupportedFamily):
            exact_propagate(affine_sinusoid(), Fraction(1), Fraction(0), 5)

    def test_rejects_inexact_policy(self):
        with pytest.raises(UnsupportedFamily):
            exact_propagate(
                periodic_linear(),
                Fraction(1),
                Fraction(1, 1000),
                5,
                ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=1.0),
            )


class TestExactIdentity:
    @settings(max_examples=60, deadline=None)
    @given(a1=small_fraction, b1=small_fraction, seed=st.integers(0, 2**31))
    def test_telescope_equals_direct_bit_exactly(self, a1, b1, seed):
        rng = random.Random(seed)
        sys = periodic_linear()
        horizon = 25
        residuals = [
            Fraction(rng.randrange(-1000, 1001), 10**6) for _ in range(horizon - 1)
        ]
        direct = exact_difference(sys, a1, b1, residuals, horizon)
        for n in range(1, horizon + 1):
            assert exact_telescope(sys, a1, b1, residuals, n) == direct[n - 1]

    def test_alternating_family_identity(self):
        sys = index_scaled_linear()
        residuals = [Fraction(1, 1000)] * 29
        direct = exact_difference(sys, Fraction(1), Fraction(5, 4), residuals, 30)
        for n in (2, 10, 17, 30):
            assert exact_telescope(sys, Fraction(1), Fraction(5, 4), residuals, n) == direct[n - 1]


class TestStartPointSearch:
    def test_sup_error_zero_for_true_orbit(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(
            sys, 1.0, 0.0, ResidualPolicy(kind=PolicyKind.ZERO), 12
        )
        assert sup_error_for_start(sys, pseudo, 1.0, 12) == 0.0

    def test_search_never_beats_evaluated_center(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        center_err = sup_error_for_start(sys, pseudo, 1.0, 12)
        _, best_err = best_b1_search(
            sys, pseudo, 12, SearchRegion(center=1.0, radius=0.02), grid=16, refinements=2
        )
        assert best_err <= center_err

    def test_refinements_monotone(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10)
        region = SearchRegion(center=1.0, radius=0.02)
        _, coarse = best_b1_search(sys, pseudo, 10, region, grid=12, refinements=0)
        _, fine = best_b1_search(sys, pseudo, 10, region, grid=12, refinements=3)
        assert fine <= coarse

    def test_reported_error_is_reproducible(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10)
        region = SearchRegion(center=1.0, radius=0.02)
        b1, err = best_b1_search(sys, pseudo, 10, region, grid=12, refinements=2)
        assert sup_error_for_start(sys, pseudo, b1, 10) == err

    def test_cell_size(self):
        region = SearchRegion(center=0.0, radius=1.0)
        assert refined_cell_size(region, 65, 0) == pytest.approx(1 / 32)
        assert refined_cell_size(region, 65, 2) == pytest.approx(1 / 512)

    def test_validation(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10)
        with pytest.raises(ValueError):
            best_b1_search(sys, pseudo, 10, SearchRegion(1.0, 0.1), grid=1)

    @pytest.mark.parametrize(
        "center, radius",
        [
            (0.0, 9e307),  # 2*radius overflows
            (1.7e308j, 1e307),  # center + radius overflows
            (complex(math.inf, 0.0), 1.0),
            (0.0, math.nan),
        ],
    )
    def test_grid_span_past_float_range_rejected(self, center, radius):
        # linspace's span was inf, so its grid held NaN start points
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 6)
        with pytest.raises(ValueError, match="spans past the float range"):
            best_b1_search(sys, pseudo, 6, SearchRegion(center, radius), grid=4, refinements=1)

    @pytest.mark.parametrize("horizon", [8, 12, 60])
    def test_sinusoid_searches_the_real_line(self, horizon):
        # a complex grid left the real line, where the map expands imaginary
        # offsets about 3x per step, and raised OverflowError('math range error')
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        b1, err = best_b1_search(sys, pseudo, horizon, SearchRegion(1.0, 1.0))
        assert b1.imag == 0.0
        assert math.isfinite(err)
        assert err <= sup_error_for_start(sys, pseudo, 1.0, horizon)

    def test_sinusoid_projects_a_complex_centre_onto_the_real_line(self):
        # the centre 1 + 0.5j was evaluated before the real-line rounds, and the
        # map's expansion off the real line raised OverflowError('math range error')
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 60)
        b1, err = best_b1_search(sys, pseudo, 60, SearchRegion(1.0 + 0.5j, 1.0))
        assert b1.imag == 0.0
        assert math.isfinite(err)
        assert err <= sup_error_for_start(sys, pseudo, 1.0, 60)

    def test_nan_start_after_a_failed_call_is_nan(self):
        # abs(complex) of a NaN once reported the ERANGE left by the failed
        # cmath.sin as OverflowError('absolute value too large')
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 6)
        with pytest.raises(OverflowError):
            cmath.sin(1 + 1000j)
        assert math.isnan(sup_error_for_start(sys, pseudo, complex(math.nan, 0.0), 6))


def _per_call_sup_error(sys, pseudo, b1, horizon):
    """``sup_error_for_start`` with one ``eval_map`` call per step (the reference)."""
    b = complex(b1)
    worst = modulus(b - pseudo.value(1))
    for n in range(1, min(horizon, pseudo.horizon)):
        b = sys.eval_map(n, b)
        worst = max(worst, modulus(b - pseudo.value(n + 1)))
    return worst


def _scalar_best_b1_search(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    horizon: int,
    region: SearchRegion,
    grid: int = 64,
    refinements: int = 6,
) -> tuple[complex, float]:
    """The original scalar search, one start point at a time (the oracle).

    It refuses the regions the search refuses, with the same message, so
    that both reject a grid span past the float range alike, and searches
    the sinusoid's real line alike, from the real part of its centre.
    """
    if grid < 2 or refinements < 0:
        raise ValueError("need grid >= 2 and refinements >= 0")
    center = complex(region.center)
    if not sys.is_linear:  # real start points only, the centre too
        center = complex(center.real)
    radius = float(region.radius)
    for part in (center.real, center.imag):
        if not math.isfinite((part + radius) - (part - radius)):
            raise ValueError(
                f"search grid around {center!r} with radius {radius!r} "
                "spans past the float range"
            )
    best_b1 = center
    best_err = sup_error_for_start(sys, pseudo, center, horizon)
    for _ in range(refinements + 1):
        res = np.linspace(center.real - radius, center.real + radius, grid)
        ims = np.linspace(center.imag - radius, center.imag + radius, grid)
        if not sys.is_linear:  # real start points only
            ims = [0.0]
        for re in res:
            for im in ims:
                cand = complex(re, im)
                err = sup_error_for_start(sys, pseudo, cand, horizon)
                if err < best_err:
                    best_err = err
                    best_b1 = cand
        center = best_b1
        radius /= 4.0
    return best_b1, best_err


def _outcome(search, *args, **kwargs):
    """A search's result, or the type and message of what it raised."""
    # CPython's abs(complex) of a NaN value raises OverflowError if errno
    # still holds ERANGE from an earlier failed call (such as the previous
    # example's); a finite abs() clears errno, so both searches start alike.
    abs(1j)
    try:
        return search(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _same(a, b):
    """== on outcomes, with a NaN sup error equal to a NaN sup error."""
    if a == b:
        return True

    def nan(x):
        return isinstance(x, float) and math.isnan(x)

    return a[0] == b[0] and nan(a[1]) and nan(b[1])


finite = st.floats(-3, 3)

#: family name -> (strategy for the system, largest horizon)
SEARCH_FAMILIES = {
    "index_scaled_linear": (st.just(index_scaled_linear()), 40),
    "periodic_linear": (
        st.lists(
            st.one_of(
                st.integers(-3, -1),
                st.floats(-3, 3),
                st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
            ).filter(lambda c: abs(c) > 1e-3),
            min_size=1,
            max_size=4,
        ).map(periodic_linear),
        40,
    ),
    "power_two_parity": (st.just(power_two_parity()), 40),
    "affine_sinusoid": (st.just(affine_sinusoid()), 12),
}


@st.composite
def search_inputs(draw):
    family = draw(st.sampled_from(sorted(SEARCH_FAMILIES)))
    systems_of_family, max_horizon = SEARCH_FAMILIES[family]
    sys = draw(systems_of_family)
    horizon = draw(st.integers(1, max_horizon))
    if sys.is_linear:
        a1 = complex(draw(finite), draw(finite))
        policy = ResidualPolicy(
            kind=draw(st.sampled_from(list(PolicyKind))), theta=draw(finite)
        )
    else:
        a1 = draw(finite)
        policy = ResidualPolicy()
    pseudo = generate_pseudo_orbit(sys, a1, draw(st.floats(0, 1e-2)), policy, horizon)
    imag = draw(st.one_of(st.just(0.0), finite))
    center = complex(draw(finite), imag) + a1
    radius = draw(st.one_of(st.floats(1e-9, 3), st.floats(1e150, 1e308)))
    region = SearchRegion(center=center, radius=radius)
    return sys, pseudo, horizon, region


class TestVectorisedSearch:
    @settings(max_examples=120, deadline=None)
    @given(
        inputs=search_inputs(),
        grid=st.integers(2, 24),
        refinements=st.integers(0, 3),
        search_horizon=st.integers(0, 5),
    )
    def test_bit_identical_to_scalar_loop(self, inputs, grid, refinements, search_horizon):
        sys, pseudo, horizon, region = inputs
        # the search may run shorter than, or past, the pseudo-orbit
        horizon = max(1, horizon - 2 + search_horizon)
        args = (sys, pseudo, horizon, region)
        expected = _outcome(_scalar_best_b1_search, *args, grid=grid, refinements=refinements)
        got = _outcome(best_b1_search, *args, grid=grid, refinements=refinements)
        assert _same(got, expected), (got, expected)

    def test_tie_goes_to_first_candidate_in_row_major_order(self):
        # horizon 1: the error is |b1 - 1|; (0.8, -0.8) and (0.8, 0.8) tie
        # below the centre's error 1, and the imaginary part is the inner loop
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 0.0, ResidualPolicy(), 1)
        region = SearchRegion(center=0.0, radius=0.8)
        got = best_b1_search(sys, pseudo, 1, region, grid=2, refinements=0)
        assert got == _scalar_best_b1_search(sys, pseudo, 1, region, grid=2, refinements=0)
        assert got[0] == complex(0.8, -0.8)
        for refinements in (1, 3):
            assert best_b1_search(
                sys, pseudo, 1, region, grid=4, refinements=refinements
            ) == _scalar_best_b1_search(sys, pseudo, 1, region, grid=4, refinements=refinements)

    @pytest.mark.parametrize(
        "horizon, center, radius",
        [
            (1, 1e308 + 1e308j, 4e307),  # finite parts, infinite modulus at b_1
            (12, 3e306 + 3e306j, 6e305),  # the same at b_10
        ],
    )
    def test_overflowing_modulus_raises_like_abs(self, horizon, center, radius):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        sup_error_for_start(sys, pseudo, center, horizon)  # the centre does not overflow
        region = SearchRegion(center=center, radius=radius)
        args = (sys, pseudo, horizon, region)
        with pytest.raises(OverflowError, match="absolute value too large"):
            best_b1_search(*args, grid=2, refinements=0)
        assert _outcome(best_b1_search, *args, grid=3, refinements=1) == _outcome(
            _scalar_best_b1_search, *args, grid=3, refinements=1
        )

    def test_nan_after_overflow_keeps_running_max(self):
        # b_8 overflows to (inf, 0), then 0*inf makes the parts NaN; max()
        # keeps the infinite maximum where a NaN-propagating one would not
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        region = SearchRegion(center=1e307, radius=1e300)
        got = best_b1_search(sys, pseudo, 12, region, grid=3, refinements=1)
        assert got == _scalar_best_b1_search(sys, pseudo, 12, region, grid=3, refinements=1)
        assert got[1] == math.inf

    def test_raises_the_first_failing_candidates_exception(self, monkeypatch):
        # a later candidate fails at an earlier step: the scalar loop still
        # raises the first candidate's exception, so must the search
        eval_map = MapSystem.eval_map

        def failing(self, n, z):
            z = complex(z)
            if n == 3 and z.real < -0.5:
                raise ValueError("first candidate, step 3")
            if n == 1 and z.real > 0.5:
                raise OverflowError("last candidate, step 1")
            return eval_map(self, n, z)

        monkeypatch.setattr(MapSystem, "eval_map", failing)
        sys = affine_sinusoid()
        pseudo = generate_pseudo_orbit(sys, 0.0, 0.0, ResidualPolicy(), 6)
        region = SearchRegion(center=0.0, radius=1.0)
        with pytest.raises(ValueError, match="first candidate, step 3"):
            best_b1_search(sys, pseudo, 6, region, grid=2, refinements=0)

    def test_linear_family_makes_no_map_calls(self, monkeypatch):
        # the acceptance-9 setting of tests/test_acceptance.py
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        region = SearchRegion(center=shadow_expanding(sys, pseudo, SQRT_3_2).b[0], radius=0.01)
        calls = []
        eval_map = MapSystem.eval_map
        monkeypatch.setattr(
            MapSystem, "eval_map", lambda self, n, z: calls.append(n) or eval_map(self, n, z)
        )
        best_b1_search(sys, pseudo, 12, region, grid=64, refinements=6)
        assert len(calls) == 0

    def test_linear_family_reads_the_coefficient_table_once(self, monkeypatch):
        # the acceptance-9 search at H = 60, as the benchmark runs it
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 60)
        region = SearchRegion(center=shadow_expanding(sys, pseudo, SQRT_3_2).b[0], radius=0.01)
        calls = []
        coefficient = MapSystem.coefficient
        monkeypatch.setattr(
            MapSystem, "coefficient", lambda self, n: calls.append(n) or coefficient(self, n)
        )
        best_b1_search(sys, pseudo, 60, region, grid=64, refinements=6)
        assert calls == []

    def test_nan_first_modulus_stays_nan(self):
        # max() keeps a NaN first modulus throughout; numpy.fmax alone would
        # replace it by the later finite moduli
        sys = index_scaled_linear()
        pseudo = PseudoOrbit(
            a=(complex(math.nan, 0.0), 2.0 + 0j, 3.0 + 0j, 4.0 + 0j),
            r=(0j, 0j, 0j),
            epsilon=0.0,
            horizon=4,
            policy=ResidualPolicy(),
        )
        args = (sys, pseudo, 4, SearchRegion(center=1.0, radius=0.5))
        expected = _outcome(_scalar_best_b1_search, *args, grid=3, refinements=1)
        got = _outcome(best_b1_search, *args, grid=3, refinements=1)
        assert _same(got, expected), (got, expected)
        assert math.isnan(got[1])

    def test_start_points_are_not_written(self):
        # best_b1_search reads its candidates back after the call
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        starts = np.array([1.0 + 0.5j, -2.0 + 0j, 0.25 - 1j])
        kept = starts.copy()
        errs = oracle._sup_errors(sys, pseudo, starts, 12, sys.coefficients(11))
        assert np.array_equal(starts, kept)
        assert errs.tolist() == [sup_error_for_start(sys, pseudo, b1, 12) for b1 in kept]

    @pytest.mark.parametrize(
        "sys",
        [
            periodic_linear((2, 10**400)),  # c_2 past the float range: the int pair's inf
            MapSystem(Family.PERIODIC_LINEAR, (2, math.inf)),  # c_2 = inf, no error
            MapSystem(Family.PERIODIC_LINEAR, (2, complex(math.nan, 1.0))),
        ],
        ids=["int_past_float_range", "inf", "nan"],
    )
    def test_non_finite_table_entry_steps_as_the_scalar_loop(self, sys):
        # generation truncates at such a step, so the pseudo-orbit is built directly
        pseudo = PseudoOrbit(
            a=(1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j),
            r=(0j, 0j, 0j),
            epsilon=0.0,
            horizon=4,
            policy=ResidualPolicy(),
        )
        region = SearchRegion(center=1.0, radius=0.5)
        args = (sys, pseudo, 4, region)
        expected = _outcome(_scalar_best_b1_search, *args, grid=3, refinements=1)
        got = _outcome(best_b1_search, *args, grid=3, refinements=1)
        assert _same(got, expected), (got, expected)

    def test_real_table_with_signed_zero_products(self, monkeypatch):
        # a negative real c_n times a zero part: Python's product gives
        # -2*0 - 0*(-1) = +0 where the real step's -2*0 gives -0
        assert math.copysign(1.0, (complex(-2.0, 0.0) * complex(0.0, -1.0)).real) == 1.0
        assert math.copysign(1.0, float(np.float64(0.0) * -2.0)) == -1.0
        steps = []
        monkeypatch.setattr(oracle, "_step_parts", lambda *args: steps.append(args[2]))
        sys = periodic_linear((-2, Fraction(1, 2), -0.25))
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        # starts on both axes, with zero parts of both signs
        parts = (-1.0, -0.0, 0.0, 0.5)
        starts = np.array([complex(x, y) for x in parts for y in parts])
        errs = oracle._sup_errors(sys, pseudo, starts, 12, sys.coefficients(11))
        assert errs.tolist() == [sup_error_for_start(sys, pseudo, b1, 12) for b1 in starts]
        # an odd grid centred at 0 holds starts on both axes too
        region = SearchRegion(center=0.0, radius=1.0)
        got = best_b1_search(sys, pseudo, 12, region, grid=5, refinements=2)
        assert got == _scalar_best_b1_search(sys, pseudo, 12, region, grid=5, refinements=2)
        assert steps == []  # every entry is real

    def test_mixed_cycle_steps_complex_entries_through_step_parts(self, monkeypatch):
        sys = periodic_linear((2, complex(0.3, 0.5), -0.5, complex(0.2, -1.1), 1.5))
        pseudo = generate_pseudo_orbit(sys, 1.0 + 0.5j, 1e-3, ResidualPolicy(), 14)
        coeffs = sys.coefficients(13)
        steps = []
        step_parts = oracle._step_parts
        monkeypatch.setattr(
            oracle, "_step_parts", lambda *args: steps.append(args[2]) or step_parts(*args)
        )
        starts = np.array([complex(x, y) for x in (-1.0, 0.0, 1.25) for y in (-0.5, 0.0, 0.75)])
        errs = oracle._sup_errors(sys, pseudo, starts, 14, coeffs)
        assert steps == [c for c in coeffs if c.imag != 0.0]
        assert errs.tolist() == [sup_error_for_start(sys, pseudo, b1, 14) for b1 in starts]
        region = SearchRegion(center=1.0 + 0.5j, radius=0.5)
        got = best_b1_search(sys, pseudo, 14, region, grid=5, refinements=2)
        assert got == _scalar_best_b1_search(sys, pseudo, 14, region, grid=5, refinements=2)


class TestSupErrorTable:
    @settings(max_examples=100, deadline=None)
    @given(
        inputs=search_inputs().filter(lambda inputs: inputs[0].is_linear),
        offset=st.one_of(st.builds(complex, finite, finite), st.complex_numbers()),
        search_horizon=st.integers(0, 5),
    )
    def test_table_route_equals_the_per_call_loop(self, inputs, offset, search_horizon):
        sys, pseudo, horizon, region = inputs
        horizon = max(1, horizon - 2 + search_horizon)
        b1 = region.center + offset
        expected = _outcome(_per_call_sup_error, sys, pseudo, b1, horizon)
        got = _outcome(sup_error_for_start, sys, pseudo, b1, horizon)
        nan = [isinstance(x, float) and math.isnan(x) for x in (got, expected)]
        assert got == expected or all(nan), (got, expected)

    def test_linear_family_reads_the_table_once(self, monkeypatch):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 12)
        expected = _per_call_sup_error(sys, pseudo, 1.01, 12)
        tables = []
        coefficients = MapSystem.coefficients
        monkeypatch.setattr(
            MapSystem, "coefficients", lambda self, n: tables.append(n) or coefficients(self, n)
        )
        monkeypatch.setattr(MapSystem, "eval_map", None)  # no call per step
        assert sup_error_for_start(sys, pseudo, 1.01, 12) == expected
        assert tables == [11]


def _spy_fallback(monkeypatch) -> list:
    """Record, for each call of ``_sup_errors`` that sends any start to
    ``sup_error_for_start``, the number of calls it makes there, the one
    that raises included."""
    sizes, calls = [], []
    sup_errors, reference = oracle._sup_errors, oracle.sup_error_for_start

    def counted(*args):
        calls.append(args)
        return reference(*args)

    def spy(*args):
        calls.clear()
        try:
            return sup_errors(*args)
        finally:
            if calls:
                sizes.append(len(calls))

    monkeypatch.setattr(oracle, "sup_error_for_start", counted)
    monkeypatch.setattr(oracle, "_sup_errors", spy)
    return sizes


def _constant_orbit(values) -> PseudoOrbit:
    """A pseudo-orbit through ``values`` with zero residuals, built directly."""
    a = tuple(complex(z) for z in values)
    return PseudoOrbit(
        a=a, r=(0j,) * (len(a) - 1), epsilon=0.0, horizon=len(a), policy=ResidualPolicy()
    )


class TestSquaredDistanceScreen:
    """The screen decides a start from its squared distances only where the
    largest clears its runner-up and lies in [2^-900, 2^900]; each trigger
    below sends starts to ``sup_error_for_start``, and the search stays
    bit-identical to the scalar loop."""

    def _check(self, monkeypatch, sys, pseudo, horizon, region, grid=3, refinements=1):
        sizes = _spy_fallback(monkeypatch)
        args = (sys, pseudo, horizon, region)
        expected = _outcome(_scalar_best_b1_search, *args, grid=grid, refinements=refinements)
        got = _outcome(best_b1_search, *args, grid=grid, refinements=refinements)
        assert _same(got, expected), (got, expected)
        return got, sizes

    def test_an_exact_tie_at_every_step(self, monkeypatch):
        # c = 1 and r = 0: b_n - a_n is the same at every step
        sys = periodic_linear((1,))
        pseudo = generate_pseudo_orbit(sys, 1.0, 0.0, ResidualPolicy(), 8)
        _, sizes = self._check(monkeypatch, sys, pseudo, 8, SearchRegion(1.5 + 0.5j, 0.25))
        # the centre, then both rounds of 3 x 3 starts, every one of them
        assert sizes == [1, 9, 9]

    @pytest.mark.parametrize("scale", [1e-140, 1e-160, 1e-200])
    def test_distances_below_two_to_the_minus_450(self, scale, monkeypatch):
        # a_n = 0 and d_n halves each step: q = |d_1|^2 < 2^-900 is the largest,
        # from a square near the bottom of the normal range to one that underflows
        sys = periodic_linear((0.5,))
        pseudo = generate_pseudo_orbit(sys, 0.0, 0.0, ResidualPolicy(), 10)
        got, sizes = self._check(monkeypatch, sys, pseudo, 10, SearchRegion(scale, scale / 4))
        assert sizes == [1, 9, 9]
        assert 0.0 < got[1] < 2.0**-450

    def test_a_step_with_hypot_of_nan_and_inf(self, monkeypatch):
        # b_2 = 1e308 * b_1 has an infinite imaginary part and a_2 a NaN real
        # part: hypot(NaN, inf) = inf, where d_re^2 + d_im^2 is NaN
        sys = periodic_linear((1e308,))
        pseudo = _constant_orbit([1.0, complex(math.nan, 0.0), 3.0, 4.0])
        got, sizes = self._check(monkeypatch, sys, pseudo, 4, SearchRegion(1.0 + 10j, 0.5))
        assert got[1] == math.inf
        assert sizes == [1, 9, 9]

    def test_an_infinite_square_then_a_nan_square(self, monkeypatch):
        # q_1 is 1e240; b_2 = 1e200 * b_1 has an infinite imaginary part, so
        # q_2 = inf; b_3's real part is 1e200 * re - 0 * inf = NaN, so q_3 is
        # NaN: the largest q carries that NaN, and each start is undecided
        sys = periodic_linear((1e200,))
        pseudo = _constant_orbit([0.0, 0.0, 0.0])
        got, sizes = self._check(monkeypatch, sys, pseudo, 3, SearchRegion(1e-100 + 1e120j, 1e-101))
        assert got[1] == math.inf
        assert sizes == [1, 9, 9]

    def test_a_modulus_that_overflows_from_finite_parts(self, monkeypatch):
        # |b_1 - a_1| > 1.8e308 with finite parts: sup_error_for_start raises as abs does
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 1)
        got, sizes = self._check(monkeypatch, sys, pseudo, 1, SearchRegion(1e308 + 1e308j, 4e307))
        assert got == (OverflowError, "absolute value too large")
        assert sizes == [1, 9]  # the centre, then the first round, where it raises

    @pytest.mark.parametrize("scale", [1e140, 1e200])
    def test_distances_above_two_to_the_450(self, scale, monkeypatch):
        # |d| about 1e140: a finite square above 2^900; about 1e200: the
        # square overflows to inf under a finite modulus
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 3)
        got, sizes = self._check(monkeypatch, sys, pseudo, 3, SearchRegion(scale, scale / 10))
        assert math.isfinite(got[1]) and got[1] > 2.0**450
        assert sizes == [1, 9, 9]

    @pytest.mark.parametrize("horizon", [12, 60])
    def test_acceptance_grids_send_no_start_to_the_hypot_loop(self, horizon, monkeypatch):
        # the acceptance-9 setting, as the benchmark runs it at H = 12 and 60
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        region = SearchRegion(center=shadow_expanding(sys, pseudo, SQRT_3_2).b[0], radius=0.01)
        sizes = _spy_fallback(monkeypatch)
        tables = []
        coefficients = MapSystem.coefficients
        monkeypatch.setattr(
            MapSystem, "coefficients", lambda self, n: tables.append(n) or coefficients(self, n)
        )
        best_b1_search(sys, pseudo, horizon, region, grid=64, refinements=6)
        assert sizes == []
        assert tables == [horizon - 1]  # one table read for the centre and all 7 rounds


# -- integer-pair exact orbit ----------------------------------------------


def _fraction_exact_propagate(sys, a1, eps, horizon, policy=None):
    """``exact_propagate`` as a plain ``Fraction`` loop (the reference)."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if policy is None:
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    coeffs = [reference_rational_coefficient(sys, n) for n in range(1, horizon + 1)]
    a = [Fraction(a1)]
    products = []
    sums = []
    prod = Fraction(1)
    S = Fraction(0)
    for n in range(1, horizon + 1):
        c = coeffs[n - 1]
        prod *= c
        p = abs(c)
        S = S * p + 1
        products.append(prod)
        sums.append(S)
        if n < horizon:
            a.append(c * a[-1] + policy.rational_residual(n, Fraction(eps)))
    return a, products, sums


def _pairs(values):
    assert all(type(x) is Fraction for x in values)
    return [(x.numerator, x.denominator) for x in values]


def _assert_orbit_matches_fraction_loop(sys, a1, eps, horizon, policy=None):
    orbit = exact_propagate(sys, a1, eps, horizon, policy)
    a, products, sums = _fraction_exact_propagate(sys, a1, eps, horizon, policy)
    assert _pairs(orbit.a) == _pairs(a)
    assert _pairs(orbit.coefficient_products) == _pairs(products)
    assert _pairs(orbit.partial_sums) == _pairs(sums)


nonzero_rational = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
).filter(bool)

rational_systems = st.one_of(
    st.lists(nonzero_rational, min_size=1, max_size=4).map(periodic_linear),
    st.builds(
        index_scaled_linear,
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    ),
    st.builds(
        power_two_parity,
        st.one_of(
            st.integers(1, 7),
            st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(bool),
        ),
        st.integers(-9, 9),
    ),
)


class TestIntegerPairOrbit:
    @settings(max_examples=80, deadline=None)
    @given(
        sys=rational_systems,
        a1=st.sampled_from(
            [
                Fraction(0),
                Fraction(-7, 4),
                Fraction(1, 3),
                Fraction(-22, 7),
                1,
                Fraction(5, 8),
                Fraction(-3, 32),
            ]
        ),
        eps=st.sampled_from(
            [Fraction(0), Fraction(1, 1000), Fraction(7, 3), Fraction(1, 1024), Fraction(2)]
        ),
        kind=st.sampled_from([PolicyKind.ZERO, PolicyKind.CONSTANT_REAL]),
        horizon=st.integers(1, 300),
    )
    # an integer residual, with no denominator to cancel: a is (1, 4, 10/3, 26/3, 44/9, 106/9)
    @example(
        sys=periodic_linear(),
        a1=1,
        eps=Fraction(2),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=6,
    )
    # a negative power-of-two numerator and a power-of-two denominator, both
    # applied by shifts; a base below 1 with a negative shift; and zero
    # operands, which have no trailing-zero count
    @example(
        sys=periodic_linear((-8, Fraction(1, 4))),
        a1=Fraction(-3, 32),
        eps=Fraction(1, 1024),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=40,
    )
    @example(
        sys=power_two_parity(Fraction(1, 2), -3),
        a1=Fraction(5, 8),
        eps=Fraction(1, 1024),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=40,
    )
    @example(
        sys=periodic_linear((-8, Fraction(1, 4))),
        a1=Fraction(0),
        eps=Fraction(0),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=40,
    )
    # each part of c_n is 1, a power of two or neither, with negative
    # numerators among them; each part cancels in full, in part or not at all
    @example(
        sys=periodic_linear(
            (Fraction(-4, 3), Fraction(3, 8), -1, 6, Fraction(5, 12), Fraction(-9, 10))
        ),
        a1=Fraction(9, 5),
        eps=Fraction(1, 1000),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=60,
    )
    # a zero c_n, built directly (the factories refuse it): P and a are 0, S is 1
    @example(
        sys=MapSystem(Family.PERIODIC_LINEAR, (Fraction(3, 2), 0)),
        a1=Fraction(-7, 4),
        eps=Fraction(0),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=6,
    )
    # a + r, g = gcd(ad, rd): g = 1 at a_2 = 2 + 7/3
    @example(
        sys=periodic_linear((2,)),
        a1=1,
        eps=Fraction(7, 3),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=2,
    )
    # a sum coprime to g: 1 < g < rd at a_2 = 1/6 + 5/12 = 7/12, and g = rd at
    # a_3 = 7/72 + 5/12 = 37/72, where a_n's denominator is kept
    @example(
        sys=periodic_linear((Fraction(1, 6),)),
        a1=1,
        eps=Fraction(5, 12),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=3,
    )
    # a sum sharing a factor with g: g = rd at a_2 = 1/3 + 2/3 = 1, and
    # 1 < g < rd at a_2 = 1/6 + 1/10 = 4/15
    @example(
        sys=periodic_linear((Fraction(1, 3),)),
        a1=1,
        eps=Fraction(2, 3),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=2,
    )
    @example(
        sys=periodic_linear((Fraction(1, 6),)),
        a1=1,
        eps=Fraction(1, 10),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=2,
    )
    # a negative a_1 with residual numerators above 1: each a_n = w_n / r_d
    # cancels by every divisor of r_d = 12 along the first run, by 1 and 3 along the second
    @example(
        sys=periodic_linear((Fraction(-4, 3), 6, Fraction(-5, 8))),
        a1=Fraction(-22, 7),
        eps=Fraction(5, 12),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=40,
    )
    @example(
        sys=index_scaled_linear(Fraction(-3, 2), 5),
        a1=Fraction(-7, 4),
        eps=Fraction(7, 3),
        kind=PolicyKind.CONSTANT_REAL,
        horizon=40,
    )
    def test_equals_fraction_loop(self, sys, a1, eps, kind, horizon):
        _assert_orbit_matches_fraction_loop(sys, a1, eps, horizon, ResidualPolicy(kind=kind))

    # the benchmark's start point at seed 0
    @pytest.mark.parametrize("factory", [periodic_linear, index_scaled_linear, power_two_parity])
    def test_benchmark_families_at_3000(self, factory):
        _assert_orbit_matches_fraction_loop(factory(), Fraction(1), Fraction(1, 1000), 3000)

    # a dyadic start point of another seed
    @pytest.mark.parametrize("factory", [periodic_linear, index_scaled_linear, power_two_parity])
    def test_benchmark_families_at_3000_from_a_dyadic_start(self, factory):
        _assert_orbit_matches_fraction_loop(factory(), Fraction(37, 32), Fraction(1, 1000), 3000)

    def test_unsupported_policy_needs_a_second_step(self):
        # the residual is read only for a_2 on, as in the Fraction loop
        phase = ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=1.0)
        _assert_orbit_matches_fraction_loop(periodic_linear(), Fraction(1), Fraction(1, 1000), 1, phase)
        with pytest.raises(UnsupportedFamily):
            exact_propagate(periodic_linear(), Fraction(1), Fraction(1, 1000), 2, phase)


class TestRunIdentities:
    # exact_propagate's three runs against each other, with no reference
    # loop: S_n = |P_n| sum_{j<=n} 1/|P_j|, that is s_{n+1} = 1 + S_n/|P_n|
    # for s_n = sum_{k<n} 1/|P_k| (P_0 = 1); and, while c_1..c_n > 0,
    # a_{n+1} = P_n a_1 + r S_n
    @settings(max_examples=60, deadline=None)
    @given(
        sys=rational_systems,
        a1=small_fraction,
        eps=small_fraction.map(abs),  # exact_propagate refuses a negative epsilon
        kind=st.sampled_from([PolicyKind.ZERO, PolicyKind.CONSTANT_REAL]),
        horizon=st.integers(1, 200),
    )
    def test_sums_and_values_follow_from_the_products(self, sys, a1, eps, kind, horizon):
        policy = ResidualPolicy(kind=kind)
        orbit = exact_propagate(sys, a1, eps, horizon, policy)
        r = policy.rational_residual(1, eps)
        inverse_sum = Fraction(0)
        positive = True
        for n in range(1, horizon + 1):
            p, s = orbit.product(n), orbit.partial_sum(n)
            inverse_sum += 1 / abs(p)
            assert s == abs(p) * inverse_sum
            positive = positive and reference_rational_coefficient(sys, n) > 0
            if positive and n < horizon:
                assert orbit.value(n + 1) == p * a1 + r * s


class TestOneReduction:
    def test_every_divmod_and_gcd_is_in_the_runner(self):
        # the pair reduction is stated once, in _affine_run: one divmod per
        # part of c_n, each with its gcd, and the gcd that divides a value by
        # the residual's denominator; adding an integer residual needs none
        def reductions(node):
            names = (getattr(x.func, "id", None) or getattr(x.func, "attr", None)
                     for x in ast.walk(node) if isinstance(x, ast.Call))
            return sorted(name for name in names if name in ("divmod", "gcd"))

        tree = ast.parse(Path(oracle.__file__).read_text())
        (runner,) = [
            x for x in ast.walk(tree) if isinstance(x, ast.FunctionDef) and x.name == "_affine_run"
        ]
        assert reductions(tree) == reductions(runner) == ["divmod"] * 2 + ["gcd"] * 3

    def test_a_fraction_is_built_in_place_in_the_runner_alone(self):
        # object.__new__ and the two slot writes of a reduced pair are stated
        # once; exact_difference and exact_telescope read Fraction(num, den)
        def builds(node):
            return sorted(
                x.attr for x in ast.walk(node)
                if isinstance(x, ast.Attribute) and (
                    x.attr == "__new__" and isinstance(x.value, ast.Name) and x.value.id == "object"
                    or x.attr in ("_numerator", "_denominator") and isinstance(x.ctx, ast.Store)
                )
            )

        package = Path(oracle.__file__).parent
        everywhere = [
            b for path in sorted(package.glob("*.py")) for b in builds(ast.parse(path.read_text()))
        ]
        tree = ast.parse(Path(oracle.__file__).read_text())
        (runner,) = [
            x for x in ast.walk(tree) if isinstance(x, ast.FunctionDef) and x.name == "_affine_run"
        ]
        assert everywhere == builds(runner) == ["__new__", "_denominator", "_numerator"]


big_power_of_two = st.integers(0, 4000).map(lambda j: 1 << j)
pair_operand = st.one_of(
    st.integers(-(2**70), 2**70),
    st.just(0),
    big_power_of_two,
    big_power_of_two.map(lambda x: -x),
    st.tuples(big_power_of_two, st.integers(-(2**40), 2**40)).map(lambda t: t[0] * t[1]),
)
positive_part = st.one_of(st.integers(2, 2**70), big_power_of_two.filter(lambda d: d > 1))


def _one_step(a1, c):
    """c * a1 as exact_propagate's runner reduces it: a_2 = c_1 a_1 with no residual."""
    sys = MapSystem(Family.PERIODIC_LINEAR, (c,))
    value = exact_propagate(sys, a1, Fraction(0), 2, ResidualPolicy(kind=PolicyKind.ZERO)).value(2)
    assert type(value.numerator) is int and type(value.denominator) is int
    return value.numerator, value.denominator


class TestPairHelpers:
    # the cancellation of x against a part d of c_n, stated once in
    # _affine_run: x as a_1's numerator against c's denominator, and as a_1's
    # denominator against c's numerator
    @settings(max_examples=300)
    @given(x=pair_operand, d=positive_part)
    def test_cancel_divides_out_the_gcd(self, x, d):
        g = math.gcd(x, d)
        assert _one_step(Fraction(x), Fraction(1, d)) == (x // g, d // g)
        if x:
            assert _one_step(Fraction(1, x), Fraction(d)) == Fraction(d, x).as_integer_ratio()

    @pytest.mark.parametrize(
        "x, d",
        [(0, 2), (0, 3), (1, 1), (1, 2), (0, 2**4000), (-(2**4001), 2**4000), (-12, 8)],
        ids=["0,2", "0,3", "1,1", "1,2", "0,2^4000", "-2^4001,2^4000", "-12,8"],
    )
    def test_cancel_edge_cases(self, x, d):
        # a zero x has no trailing-zero count: the whole power of two cancels
        g = math.gcd(x, d)
        assert _one_step(Fraction(x), Fraction(1, d)) == (x // g, d // g)

    @settings(max_examples=300)
    @given(x=pair_operand, y=positive_part, m=pair_operand.filter(bool), d=positive_part)
    @example(x=0, y=1, m=-(2**12), d=2**7)
    @example(x=-(2**9) * 3, y=2**5 * 5, m=-(2**5), d=2**9)
    @example(x=7, y=1, m=1, d=1)
    def test_times_is_the_reduced_product(self, x, y, m, d):
        a, c = Fraction(x, y), Fraction(m, d)
        assert _one_step(a, c) == (a * c).as_integer_ratio()


# -- rational coefficient table ---------------------------------------------


def _per_index_rational_coefficients(sys, horizon):
    """The coefficient list by the per-index rule (the reference)."""
    if not sys.is_linear:
        raise UnsupportedFamily(f"{sys.family.value} is not linear")
    return [reference_rational_coefficient(sys, n) for n in range(1, horizon + 1)]


def _table_outcome(build, sys, horizon):
    """(num, den) pairs of a coefficient list, or the type and message it raised."""
    try:
        coeffs = build(sys, horizon)
    except (UnsupportedFamily, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return [c if isinstance(c, tuple) else (c.numerator, c.denominator) for c in coeffs]


class TestRationalTable:
    @settings(max_examples=150, deadline=None)
    @given(sys=rational_systems)
    def test_every_pair_equals_the_scalar_rule(self, sys):
        table = MapSystem.coefficient_pairs(sys, 300)
        assert all(type(x) is int for pair in table for x in pair)
        assert table == [
            (c.numerator, c.denominator) for c in _per_index_rational_coefficients(sys, 300)
        ]

    @pytest.mark.parametrize("factory", [periodic_linear, index_scaled_linear, power_two_parity])
    def test_benchmark_families_at_3000(self, factory):
        sys = factory()
        assert _table_outcome(MapSystem.coefficient_pairs, sys, 3000) == _table_outcome(
            _per_index_rational_coefficients, sys, 3000
        )

    @pytest.mark.parametrize("shift", [-9, -8, -3, -2, -1, 0])
    @pytest.mark.parametrize("base", [2, 3, Fraction(3, 2), Fraction(1, 9), -2, Fraction(-3, 2)])
    def test_parity_exponents_crossing_zero(self, base, shift):
        # even n has e = -(n + shift) >= 0 for n <= -shift, so the even
        # class steps through e = 0 (even shift) or from 1 to -1 (odd shift).
        # The factory refuses a negative base; a MapSystem built directly
        # still keeps the sign on the numerator.
        sys = MapSystem(Family.POWER_TWO_PARITY, (base, shift))
        for horizon in (0, 1, 2, 3, 12, 25):
            assert _table_outcome(MapSystem.coefficient_pairs, sys, horizon) == _table_outcome(
                _per_index_rational_coefficients, sys, horizon
            )

    @pytest.mark.parametrize(
        "sys",
        [
            periodic_linear((2, 0.5)),
            periodic_linear((Fraction(1, 3), 1 + 1j, 2)),
            periodic_linear((2.0,)),
            index_scaled_linear(3.0, 2),
            index_scaled_linear(3, 2.0),
            index_scaled_linear(Fraction(1, 3), 1j),
            power_two_parity(2.0, 3),
            affine_sinusoid(),
        ],
        ids=[
            "periodic-float-second",
            "periodic-complex-second",
            "periodic-float-only",
            "index-float-odd",
            "index-float-even",
            "index-complex-even",
            "parity-float-base",
            "sinusoid",
        ],
    )
    def test_unsupported_parameters_raise_as_the_scalar_rule(self, sys):
        # the scalar rule raises at the first index whose c_n reads an
        # inexact parameter, so short horizons may still succeed
        for horizon in (0, 1, 2, 3, 7):
            assert _table_outcome(MapSystem.coefficient_pairs, sys, horizon) == _table_outcome(
                _per_index_rational_coefficients, sys, horizon
            )
        raised = _table_outcome(MapSystem.coefficient_pairs, sys, 7)
        assert raised[0] is UnsupportedFamily

    @pytest.mark.parametrize(
        "params",
        [
            (Family.INDEX_SCALED_LINEAR, (3, 0)),
            (Family.INDEX_SCALED_LINEAR, (3, 0.0)),
            (Family.POWER_TWO_PARITY, (0, 3)),
            (Family.POWER_TWO_PARITY, (Fraction(0), -9)),
        ],
        ids=["index-zero-even-scale", "index-float-zero", "parity-zero-base", "parity-zero-fraction"],
    )
    def test_a_zero_divisor_is_refused_at_construction(self, params):
        # c_n divides by these parameters: a MapSystem built directly is
        # refused as the factories refuse it, before any table is read
        with pytest.raises(ValueError, match="growth rate must be positive"):
            MapSystem(*params)

    @settings(max_examples=30, deadline=None)
    @given(sys=rational_systems, a1=small_fraction, b1=small_fraction)
    def test_difference_and_telescope_read_the_table(self, sys, a1, b1):
        residuals = [Fraction(1, 1000)] * 19
        direct = exact_difference(sys, a1, b1, residuals, 20)
        a, b = a1, b1
        for n in range(1, 21):
            assert direct[n - 1] == b - a
            assert exact_telescope(sys, a1, b1, residuals, n) == b - a
            c = reference_rational_coefficient(sys, n)
            a, b = c * a + residuals[0], c * b
