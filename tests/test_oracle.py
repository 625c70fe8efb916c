"""Exact rational oracle and the brute-force start-point search."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hu_shadow import (
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

    def test_matches_float_generation(self):
        sys = index_scaled_linear()
        orbit = exact_propagate(sys, Fraction(1), Fraction(1, 1000), 25)
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 25)
        for n in range(1, 26):
            assert float(orbit.value(n)) == pytest.approx(
                pseudo.value(n).real, rel=1e-12
            )

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


def _scalar_best_b1_search(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    horizon: int,
    region: SearchRegion,
    grid: int = 64,
    refinements: int = 6,
) -> tuple[complex, float]:
    """The original scalar search, one start point at a time (the oracle)."""
    if grid < 2 or refinements < 0:
        raise ValueError("need grid >= 2 and refinements >= 0")
    center = complex(region.center)
    radius = float(region.radius)
    best_b1 = center
    best_err = sup_error_for_start(sys, pseudo, center, horizon)
    for _ in range(refinements + 1):
        res = np.linspace(center.real - radius, center.real + radius, grid)
        ims = np.linspace(center.imag - radius, center.imag + radius, grid)
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
