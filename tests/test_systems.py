"""Map families, residual policies and pseudo-orbit generation."""

import ast
import cmath
import math
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from sys import float_info

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hu_shadow
from hu_shadow import (
    Family,
    MapSystem,
    PolicyKind,
    PseudoOrbit,
    RateRangeError,
    ResidualPolicy,
    UnsupportedFamily,
    affine_sinusoid,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
    accumulated_rate_bound,
    build_profile,
    profile_of,
    shadow_expanding,
)
from hu_shadow.scenario import MAX_HORIZON
from hu_shadow.shadowing import TAIL_CAP_MARGIN
from hu_shadow.systems import OVERFLOW_LIMIT, modulus


def _exact_coefficients(sys: MapSystem, horizon: int) -> list[Fraction]:
    """c_1 .. c_horizon as Fractions, from the exact pair table."""
    return [Fraction(*pair) for pair in sys.coefficient_pairs(horizon)]


class TestCoefficients:
    def test_periodic_cycle(self):
        c = _exact_coefficients(periodic_linear((2, Fraction(1, 3))), 102)
        assert c[:3] == [2, Fraction(1, 3), 2]
        assert c[100:] == [2, Fraction(1, 3)]

    def test_index_scaled(self):
        c = _exact_coefficients(index_scaled_linear(), 6)
        assert c == [3, Fraction(1, 4), 9, Fraction(1, 8), 15, Fraction(1, 12)]

    def test_power_parity(self):
        c = _exact_coefficients(power_two_parity(), 4)
        assert c == [2, Fraction(1, 32), 8, Fraction(1, 128)]

    def test_scaled_products_alternate(self):
        # the products decay along both parity classes, but at different
        # per-period factors (4 on the odd class, 16 on the even one)
        sys = power_two_parity()
        prod = Fraction(1)
        values = []
        for c in _exact_coefficients(sys, 8):
            prod *= c
            values.append(prod)
        assert values[0] / values[2] == 4
        assert values[2] / values[4] == 4
        assert values[1] / values[3] == 16
        assert values[3] / values[5] == 16

    def test_nonlinear_has_no_coefficient(self):
        with pytest.raises(UnsupportedFamily):
            affine_sinusoid().coefficient(1)

    def test_float_params_have_no_rational_coefficient(self):
        sys = periodic_linear((2, 0.3333333333333333))
        with pytest.raises(
            UnsupportedFamily,
            match=r"^family periodic_linear with non-rational parameters has no exact coefficient$",
        ):
            sys.coefficient_pairs(2)
        assert sys.coefficient_pairs(1) == [(2, 1)]
        assert sys.coefficient(2) == pytest.approx(1 / 3)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            periodic_linear().coefficient(0)

    def test_negative_even_shift(self):
        # c_n = 2^-(n-5) at even n: a positive exponent below n = 5
        sys = power_two_parity(2, -5)
        assert _exact_coefficients(sys, 8)[1::2] == [8, 2, Fraction(1, 2), Fraction(1, 8)]
        assert sys.coefficient(4) == 2 + 0j
        assert sys.log_rates(2)[1] == math.log(8)


class TestFactories:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: periodic_linear((2, 0)),
            lambda: index_scaled_linear(0, 2),
            lambda: power_two_parity(-2),
        ],
        ids=["periodic_zero", "index_scaled_zero_odd_scale", "parity_negative_base"],
    )
    def test_zero_coefficient_rejected(self, build):
        with pytest.raises(ValueError, match="growth rate must be positive"):
            build()

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            periodic_linear(())

    @pytest.mark.parametrize(
        "family, params, factory, message",
        [
            (Family.PERIODIC_LINEAR, (), lambda: periodic_linear(()),
             "periodic_linear needs at least one coefficient"),
            (Family.POWER_TWO_PARITY, (1j, 3), lambda: power_two_parity(1j, 3),
             "base must be real, got 1j"),
            (Family.POWER_TWO_PARITY, (2, 1.5), lambda: power_two_parity(2, 1.5),
             "even_shift must be an integer, got 1.5"),
            # no factory call passes no slope
            (Family.AFFINE_SINUSOID, (), None, "affine_sinusoid takes one slope, got ()"),
            (Family.AFFINE_SINUSOID, (1j,), lambda: affine_sinusoid(1j),
             "slope must be real, got 1j"),
            (Family.AFFINE_SINUSOID, (0.5,), lambda: affine_sinusoid(0.5),
             "affine_sinusoid requires slope > 1 for a positive expanding rate"),
            (Family.AFFINE_SINUSOID, (math.nan,), lambda: affine_sinusoid(math.nan),
             "parameters must be finite, got nan"),
            (Family.AFFINE_SINUSOID, ("3",), lambda: affine_sinusoid("3"),
             "slope must be real, got '3'"),
        ],
        ids=[
            "no_coefficient", "complex_base", "float_shift",
            "sinusoid_no_slope", "sinusoid_complex_slope", "sinusoid_slope_below_one",
            "sinusoid_nan_slope", "sinusoid_string_slope",
        ],
    )
    def test_a_direct_build_is_refused_as_its_factory_refuses_it(
        self, family, params, factory, message
    ):
        # built before: the empty table was np.empty's memory (rates(4) read
        # [4.66e-310, 2.4e-322, ...]), the parity two and the sinusoid's first two
        # ended in a bare TypeError or IndexError, the next two built a sinusoid
        # whose rates(3) read -0.5 or NaN, and a string slope was a bare TypeError
        for build in (lambda: MapSystem(family, params), factory):
            if build is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build()

    @pytest.mark.parametrize(
        "name, params",
        [("periodic_linear", (2,)), ("affine_sinusoid", (3.0,)), ("power_two_parity", (2, 3))],
    )
    def test_a_family_given_by_value_is_its_member(self, name, params):
        # a bare AttributeError ('str' object has no attribute 'value') before
        sys = MapSystem(name, params)
        assert sys.family is Family(name)
        assert sys == MapSystem(Family(name), params)
        assert sys.rates(6) == MapSystem(Family(name), params).rates(6)

    def test_an_unknown_family_name_is_refused(self):
        with pytest.raises(ValueError, match="'lorenz' is not a valid Family"):
            MapSystem("lorenz", (2,))

    def test_sinusoid_slope_must_expand(self):
        with pytest.raises(ValueError):
            affine_sinusoid(slope=0.5)

    def test_kinds(self):
        assert power_two_parity().family is Family.POWER_TWO_PARITY

    @pytest.mark.parametrize("shift", [3.0, True, Fraction(3)])
    def test_parity_shift_must_be_an_int(self, shift):
        # built before, then every read ended in a bare TypeError
        with pytest.raises(ValueError, match="even_shift must be an integer"):
            power_two_parity(2, shift)

    def test_zero_checks_on_ints_past_the_float_range(self):
        # raised OverflowError from the zero check before
        sys = periodic_linear((10**400,))
        assert sys.coefficient_pairs(2) == [(10**400, 1)] * 2
        assert sys.coefficients(1) == [complex(math.inf, 0.0)]
        assert _bits(sys.coefficient(1)) == _bits(complex(math.inf, 0.0))
        with pytest.raises(ValueError, match="growth rate must be positive"):
            periodic_linear((10**400, 0))


class TestEvaluation:
    def test_linear_map(self):
        sys = periodic_linear()
        assert sys.eval_map(1, 1 + 1j) == 2 + 2j
        assert sys.eval_map(2, 3.0) == pytest.approx(1.0)

    def test_a_step_reads_no_is_linear_property(self, monkeypatch):
        # the sinusoid's orbit and construction call these once per step
        reads = []
        is_linear = MapSystem.is_linear
        systems = (affine_sinusoid(), periodic_linear())  # construction reads it once
        monkeypatch.setattr(
            MapSystem, "is_linear", property(lambda self: reads.append(1) or is_linear.fget(self))
        )
        for sys in systems:
            assert sys.eval_map(3, 1.0) == sys.eval_map(3, 1.0 + 0j)
            assert sys.eval_q(3, 2.0, 1.0) == sys.eval_q(3, 2.0 + 0j, 1.0)
            assert sys.eval_q(3, 2.0, 2.0) == sys.eval_q(3, 2.0 + 0j, 2.0)
        assert reads == []

    def test_sinusoid_map_real(self):
        sys = affine_sinusoid()
        x = 0.7
        expected = 3 * x + math.sin(x / 5) / 5
        assert sys.eval_map(5, x) == complex(expected, 0.0)

    def test_sinusoid_map_complex(self):
        sys = affine_sinusoid()
        z = 0.3 + 0.2j
        expected = 3 * z + cmath.sin(z / 4) / 4
        assert sys.eval_map(4, z) == pytest.approx(expected)

    @given(
        u=st.floats(-5, 5),
        v=st.floats(-5, 5),
        n=st.integers(1, 50),
    )
    def test_quotient_matches_map_difference(self, u, v, n):
        sys = affine_sinusoid()
        q = sys.eval_q(n, u, v)
        if u != v:
            lhs = sys.eval_map(n, u) - sys.eval_map(n, v)
            assert abs(q * (u - v) - lhs) <= 1e-12 * max(1.0, abs(lhs))
        # the rate is a lower expansion bound of the quotient
        assert abs(q) >= sys.growth_rate(n) - 1e-12

    def test_quotient_at_coincident_points_is_derivative(self):
        sys = affine_sinusoid()
        q = sys.eval_q(3, 1.0, 1.0)
        assert q == complex(3 + math.cos(1 / 3) / 9, 0.0)

    def test_linear_quotient_is_coefficient(self):
        sys = index_scaled_linear()
        assert sys.eval_q(7, 1 + 2j, -3j) == sys.coefficient(7)

    def test_rates_positive(self):
        for sys in (periodic_linear(), index_scaled_linear(), power_two_parity(), affine_sinusoid()):
            assert all(p > 0 for p in sys.rates(50))


def _real_line_map(slope, n, x):
    """``eval_map``'s deleted real-argument formula, verbatim."""
    return complex(slope * x + math.sin(x / n) / n, 0.0)


def _real_line_derivative(slope, n, u):
    """``eval_q``'s deleted real-argument derivative at u == v, verbatim."""
    return complex(slope + math.cos(u.real / n) / n**2, 0.0)


def _real_line_quotient(slope, n, x, y):
    """``eval_q``'s deleted real-argument quotient, verbatim."""
    return complex(
        slope + (math.sin(x / n) - math.sin(y / n)) / (n * (x - y)), 0.0
    )


sinusoid_slopes = st.one_of(st.just(3.0), st.floats(1.0, 10.0, exclude_min=True))
sinusoid_steps = st.one_of(st.integers(1, 50), st.integers(1, 10**6))
finite_reals = st.floats(allow_nan=False, allow_infinity=False)


class TestOneComplexFormula:
    """The sinusoid's F and quotient are one complex formula each; on the
    real line they give the bits of the deleted real-argument formulas."""

    # x = -0.0 is left out: the complex formula's real part is +0.0 there,
    # the real-line one's -0.0 (generation adds r_n to it, and every other
    # caller takes a modulus or a difference)
    @settings(max_examples=200)
    @given(
        slope=sinusoid_slopes,
        n=sinusoid_steps,
        x=finite_reals.filter(lambda x: _bits(x) != _bits(-0.0)),
    )
    @example(slope=3.0, n=1, x=5e-324)
    @example(slope=3.0, n=2, x=1.7e308)
    def test_map_equals_the_real_line_formula(self, slope, n, x):
        assert _bits(affine_sinusoid(slope).eval_map(n, x)) == _bits(_real_line_map(slope, n, x))

    def test_map_at_negative_zero(self):
        assert _bits(affine_sinusoid().eval_map(2, -0.0)) == _bits(0j)
        assert _bits(_real_line_map(3.0, 2, -0.0)) == _bits(complex(-0.0, 0.0))

    # a pair whose difference x - y overflows is kept: n * (x - y) would be
    # inf + NaN i in complex arithmetic, so the quotient halves both
    # differences first, which gives the slope, as the real line does
    @settings(max_examples=200)
    @given(
        slope=sinusoid_slopes,
        n=sinusoid_steps,
        x=finite_reals,
        y=st.one_of(finite_reals, st.floats(-10.0, 10.0)),
        same=st.booleans(),
    )
    @example(slope=3.0, n=3, x=0.0, y=-0.0, same=False)
    @example(slope=3.0, n=1, x=1e308, y=-1e308, same=False)
    def test_quotient_equals_the_real_line_formula(self, slope, n, x, y, same):
        y = x if same else y
        if x == y:
            reference = _real_line_derivative(slope, n, complex(x))
        else:
            reference = _real_line_quotient(slope, n, x, y)
        assert _bits(affine_sinusoid(slope).eval_q(n, x, y)) == _bits(reference)

    def test_quotient_off_the_real_line_where_the_difference_overflows(self):
        # u - v = inf + 700i: the slope alone was returned, (3+0j)
        q = affine_sinusoid().eval_q(1, 1e308 + 700j, -1e308)
        assert q.real == pytest.approx(3.0000114962313544, rel=1e-15)
        assert q.imag == pytest.approx(-2.26e-5, rel=1e-3)
        assert _bits(affine_sinusoid().eval_q(1, 1e308, -1e308)) == _bits(3 + 0j)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_argument_gives_nan_parts(self, x):
        # the real-line formulas raised ValueError('math domain error') at +-inf
        sys = affine_sinusoid()
        for value in (sys.eval_map(3, x), sys.eval_q(3, x, 1.0), sys.eval_q(3, x, x)):
            assert math.isnan(value.real) and math.isnan(value.imag)


class TestResidualPolicies:
    @given(
        kind=st.sampled_from(list(PolicyKind)),
        theta=st.floats(0, 2 * math.pi),
        n=st.integers(1, 10**6),
        eps=st.one_of(st.floats(0, 10), st.floats(0, float_info.min)),
    )
    # a subnormal epsilon: the phase product's parts once rounded past it
    @example(kind=PolicyKind.LOW_DISCREPANCY_PHASE, theta=0.0, n=46159, eps=2.2250738585e-313)
    # a normal epsilon: |r| once landed one ulp above it
    @example(kind=PolicyKind.CONSTANT_PHASE, theta=0.1, n=1, eps=1e-3)
    @example(kind=PolicyKind.LOW_DISCREPANCY_PHASE, theta=0.0, n=15, eps=1e-3)
    def test_magnitude_within_epsilon(self, kind, theta, n, eps):
        policy = ResidualPolicy(kind=kind, theta=theta)
        assert abs(policy.residual(n, eps)) <= eps

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_negative_epsilon_ends_within_its_magnitude(self, kind):
        # the clamp steps toward zero until |r| <= |epsilon|: for a negative
        # epsilon, which generation refuses, |r| <= epsilon would never hold
        assert abs(ResidualPolicy(kind=kind, theta=0.1).residual(1, -1e-3)) <= 1e-3

    @given(
        kind=st.sampled_from(list(PolicyKind)),
        n=st.integers(1, 10**4),
    )
    def test_deterministic(self, kind, n):
        policy = ResidualPolicy(kind=kind, theta=0.25)
        assert policy.residual(n, 1e-3) == policy.residual(n, 1e-3)

    def test_constant_real(self):
        assert ResidualPolicy().residual(17, 1e-3) == 1e-3 + 0j

    def test_a_kind_given_by_its_value_is_the_kind(self):
        # "zero" compared equal to PolicyKind.ZERO but failed each identity test: the
        # residual was the low-discrepancy one and rational_residual raised AttributeError
        policy = ResidualPolicy(kind="zero")
        assert policy.kind is PolicyKind.ZERO
        assert policy.residual(1, 1e-3) == 0j
        assert policy.rational_residual(1, Fraction(1, 1000)) == 0
        with pytest.raises(ValueError, match="'spiral' is not a valid PolicyKind"):
            ResidualPolicy(kind="spiral")

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_a_theta_that_is_not_finite_is_refused(self, theta):
        # its residual was NaN, and generation reported the orbit truncated at n = 1
        with pytest.raises(ValueError, match=f"^theta must be finite, got {theta!r}$"):
            ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=theta)

    def test_rational_form_matches_float(self):
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
        assert policy.rational_residual(3, Fraction(1, 1000)) == Fraction(1, 1000)
        with pytest.raises(UnsupportedFamily):
            ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=1.0).rational_residual(
                3, Fraction(1, 1000)
            )


class TestPseudoOrbit:
    def test_recurrence_holds(self):
        sys = periodic_linear()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 50)
        assert pseudo.horizon == 50
        assert not pseudo.truncated
        for n in range(1, 50):
            lhs = pseudo.value(n + 1)
            rhs = sys.eval_map(n, pseudo.value(n)) + pseudo.residual(n)
            assert lhs == rhs

    def test_zero_policy_gives_true_orbit(self):
        sys = index_scaled_linear()
        pseudo = generate_pseudo_orbit(
            sys, 2.0, 0.0, ResidualPolicy(kind=PolicyKind.ZERO), 30
        )
        assert all(r == 0 for r in pseudo.r)

    def test_overflow_truncates(self):
        # the accumulated residuals of the parity family grow like 2^n,
        # leaving the representable range shortly after n = 1000
        sys = power_two_parity()
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 1300)
        assert pseudo.truncated
        assert pseudo.horizon < 1300
        assert all(abs(a) <= 1e300 for a in pseudo.a)

    def test_bad_args(self):
        sys = periodic_linear()
        with pytest.raises(ValueError):
            generate_pseudo_orbit(sys, 1.0, -1.0, ResidualPolicy(), 10)
        with pytest.raises(ValueError):
            generate_pseudo_orbit(sys, 1.0, 1.0, ResidualPolicy(), 0)

    def test_step_index_outside_the_orbit_is_refused(self):
        # value(0) read a_5 and residual(0) read r_4 before: the index wrapped
        pseudo = generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), 5)
        assert (pseudo.value(1), pseudo.value(5)) == (pseudo.a[0], pseudo.a[4])
        assert (pseudo.residual(1), pseudo.residual(4)) == (pseudo.r[0], pseudo.r[3])
        for read, last in ((pseudo.value, 5), (pseudo.residual, 4)):
            for n in (0, -1, last + 1):
                with pytest.raises(ValueError, match=rf"step index must be in 1\.\.{last}, got {n}$"):
                    read(n)

    @settings(max_examples=25)
    @given(
        eps=st.floats(0, 1e-2),
        theta=st.floats(0, 2 * math.pi),
        horizon=st.integers(2, 80),
    )
    def test_recurrence_property(self, eps, theta, horizon):
        sys = affine_sinusoid()
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_PHASE, theta=theta)
        pseudo = generate_pseudo_orbit(sys, 0.5, eps, policy, horizon)
        for n in range(1, pseudo.horizon):
            err = abs(
                pseudo.value(n + 1)
                - sys.eval_map(n, pseudo.value(n))
                - pseudo.residual(n)
            )
            assert err <= 1e-12 * max(1.0, abs(pseudo.value(n + 1)))


def _bits(z: complex) -> tuple:
    """The exact bits of a complex, NaN and the sign of zero included."""
    return z.real.hex(), z.imag.hex()


# -- the per-index rule that the tables replaced, kept verbatim as the
# reference (``self`` is the system) ------------------------------------


def _parity_exponent(n: int, even_shift: int) -> int:
    """e with c_n = base**e in ``power_two_parity``."""
    return n if n % 2 == 1 else -(n + even_shift)


def _rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _float_power(base: float, e: int) -> complex:
    """complex(base ** e) for base > 0, inf where it overflows."""
    try:
        return complex(base**e)
    except OverflowError:
        return complex(math.inf, 0.0)


def _expanding_rate(slope: float, n: int) -> float:
    """slope - 1/n^2, the affine sinusoid's expanding rate."""
    return float(slope) - 1.0 / n**2


def reference_raw_coefficient(self, n: int):
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    if self.family is Family.PERIODIC_LINEAR:
        coeffs = self.params
        return coeffs[(n - 1) % len(coeffs)]
    if self.family is Family.INDEX_SCALED_LINEAR:
        odd_scale, even_inverse_scale = self.params
        if n % 2 == 1:
            return odd_scale * n
        return Fraction(1, even_inverse_scale * n) if _rational(
            even_inverse_scale
        ) else 1.0 / (even_inverse_scale * n)
    if self.family is Family.POWER_TWO_PARITY:
        base, even_shift = self.params
        e = _parity_exponent(n, even_shift)
        if not _rational(base):
            return float(base) ** e
        return base**e if e >= 0 else Fraction(1, base**-e)
    raise UnsupportedFamily(f"{self.family.value} is not linear")


def reference_coefficient(self, n: int) -> complex:
    c = reference_raw_coefficient(self, n)
    return complex(c)


def reference_rational_coefficient(self, n: int) -> Fraction:
    c = reference_raw_coefficient(self, n)
    if type(c) is Fraction:  # immutable: no copy needed
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise UnsupportedFamily(
        f"family {self.family.value} with non-rational parameters has "
        "no exact coefficient"
    )


def reference_growth_rate(self, n: int) -> float:
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    if not self.is_linear:
        return _expanding_rate(self.params[0], n)
    try:
        return modulus(reference_coefficient(self, n))
    except OverflowError:
        return math.inf


def reference_log_growth_rate(self, n: int) -> float:
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    if self.family is Family.POWER_TWO_PARITY:
        base, even_shift = self.params
        e = _parity_exponent(n, even_shift)
        if isinstance(base, int):  # the reduced c_n is base**e or Fraction(1, base**-e)
            return math.log(base**e) if e >= 0 else 0.0 - math.log(base**-e)
        if not isinstance(base, Fraction):
            c = _float_power(float(base), e).real
            if 0.0 < c < math.inf:
                return math.log(c)
            return e * math.log(float(base))  # base**e is past the float range
    elif not self.is_linear:
        return math.log(_expanding_rate(self.params[0], n))
    c = reference_raw_coefficient(self, n)
    if isinstance(c, Fraction):
        return math.log(abs(c.numerator)) - math.log(c.denominator)
    if isinstance(c, int):
        return math.log(abs(c))
    return math.log(abs(complex(c)))


def _scalar_entry(sys: MapSystem, n: int) -> complex:
    """The reference c_n, or the infinity of its sign where it overflows."""
    try:
        return reference_coefficient(sys, n)
    except OverflowError:
        try:
            positive = reference_rational_coefficient(sys, n) > 0
        except (UnsupportedFamily, OverflowError):  # a float power base**e
            base, even_shift = sys.params
            positive = base > 0 or _parity_exponent(n, even_shift) % 2 == 0
        return complex(math.inf if positive else -math.inf, 0.0)


def _assert_tables_match_scalar_rule(sys: MapSystem, horizon: int, ns=None) -> None:
    coeffs = sys.coefficients(horizon)
    rates = sys.rates(horizon)
    assert len(coeffs) == len(rates) == horizon
    for n in ns or range(1, horizon + 1):
        assert _bits(coeffs[n - 1]) == _bits(_scalar_entry(sys, n)), n
        assert rates[n - 1].hex() == reference_growth_rate(sys, n).hex(), n


#: systems whose tables are compared at H = 12,000: every index up to
#: 2,000, which covers the parity family's overflow (odd n >= 1025) and
#: underflow (even n >= 1072 for base 2) indices, and every 7th one after
TABLE_SYSTEMS = {
    "periodic_default": periodic_linear(),
    "periodic_mixed": periodic_linear((3, Fraction(-2, 7), 0.3, 1.5 - 0.5j, -0.75j)),
    # moduli where math.hypot and C hypot (abs, numpy.hypot) round apart
    "periodic_hypot": periodic_linear((2.08 + 2.111j, 0.911 + 1.119j, 2.768 + 0.845j)),
    "periodic_out_of_range": MapSystem(
        Family.PERIODIC_LINEAR, (Fraction(10**400, 3), -(10**400), Fraction(1, 10**400))
    ),
    "index_default": index_scaled_linear(),
    "index_fraction": index_scaled_linear(Fraction(7, 3), Fraction(-5, 2)),
    "index_float": index_scaled_linear(2.9, -1.7),
    "index_out_of_range": index_scaled_linear(-(10**305), 10**305),
    "parity_float": power_two_parity(2.0, 3),
    "parity_fraction": power_two_parity(Fraction(3, 2), -4),
    # the even class starts past the float range and moves back into it
    "parity_back_from_inf": power_two_parity(2, -2000),
    "parity_back_from_zero": power_two_parity(Fraction(1, 2), -2000),
    **{
        f"parity_{base}_{shift}": power_two_parity(base, shift)
        for base in (2, 3)
        for shift in (-5, 0, 3)
    },
    # bases 2**s read c_n from the exponent alone: 4 overflows from n = 513,
    # 1/8 underflows from n = 359, 1/2 rounds the tie 2**-1075 to 0.0 at
    # n = 1075; 2/3 rounds each exact power of its class stream
    "parity_4_3": power_two_parity(4, 3),
    "parity_1/8_3": power_two_parity(Fraction(1, 8), 3),
    "parity_1/2_3": power_two_parity(Fraction(1, 2), 3),
    "parity_2/3_3": power_two_parity(Fraction(2, 3), 3),
}

rational = st.one_of(
    st.integers(-50, 50).filter(bool),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(bool),
    st.integers(10**300, 10**310),
)
finite = st.floats(-1e3, 1e3)
real = st.one_of(rational, finite.filter(lambda x: abs(x) > 1e-300))


linear_systems = st.one_of(
    st.lists(st.one_of(real, st.builds(complex, finite, finite)), min_size=1, max_size=5)
    .filter(lambda cs: all(abs(complex(c)) > 0 for c in cs if not isinstance(c, int)))
    .map(lambda cs: MapSystem(Family.PERIODIC_LINEAR, tuple(cs))),
    # built directly: the factory's complex() check overflows on huge ints
    st.builds(lambda *scales: MapSystem(Family.INDEX_SCALED_LINEAR, scales), real, real),
    st.builds(
        power_two_parity,
        st.one_of(
            st.integers(1, 7),
            st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(bool),
            st.floats(0.1, 9.0),
        ),
        st.integers(-9, 9),
    ),
)


class TestCoefficientTable:
    @pytest.mark.parametrize("name", sorted(TABLE_SYSTEMS))
    def test_every_entry_equals_the_scalar_rule(self, name):
        ns = [*range(1, 2001), *range(2001, 12_001, 7)]
        _assert_tables_match_scalar_rule(TABLE_SYSTEMS[name], 12_000, ns)

    @settings(max_examples=60, deadline=None)
    @given(sys=linear_systems, horizon=st.integers(0, 300))
    def test_tables_equal_scalar_rule(self, sys, horizon):
        _assert_tables_match_scalar_rule(sys, horizon)

    def test_a_float_parameter_is_refused_before_any_pair(self, monkeypatch):
        # each class is asked for its lazy pairs before any is read: the
        # rational class of 3*n makes no gcd before the refusal
        calls = []
        monkeypatch.setattr(hu_shadow.systems, "gcd", lambda a, b: calls.append(a) or math.gcd(a, b))
        with pytest.raises(UnsupportedFamily, match="non-rational parameters"):
            index_scaled_linear(3, 0.5).coefficient_pairs(10**4)
        assert calls == []

    def test_sinusoid_rates_and_no_coefficients(self):
        sys = affine_sinusoid(2.5)
        coeffs, rates = sys.tables(500)
        assert coeffs is None
        assert [r.hex() for r in rates] == [
            reference_growth_rate(sys, n).hex() for n in range(1, 501)
        ]
        assert rates[:3] == [2.5 - 1.0, 2.5 - 0.25, 2.5 - 1.0 / 9]
        with pytest.raises(UnsupportedFamily):
            sys.coefficients(3)

    def test_nonpositive_horizon_is_empty(self):
        for horizon in (0, -3):
            assert power_two_parity().coefficients(horizon) == []
            assert periodic_linear().rates(horizon) == []

    def test_pipeline_reads_the_table(self, monkeypatch):
        # the parent made tens of thousands of scalar calls at this size
        calls = []
        for method in ("eval_map", "eval_q", "growth_rate"):
            original = getattr(MapSystem, method)
            monkeypatch.setattr(
                MapSystem,
                method,
                lambda self, *args, _f=original, _m=method: calls.append(_m) or _f(self, *args),
            )
        sys = index_scaled_linear()
        profile_of(sys, 10_000)
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10_000)
        shadow_expanding(sys, pseudo, math.sqrt(1.5))
        assert len(calls) <= 5, len(calls)


def _outcome(read, sys: MapSystem, n: int):
    """The bits of a scalar read, or the type of the error it raised."""
    try:
        value = read(sys, n)
    except (ArithmeticError, ValueError, UnsupportedFamily) as exc:
        return type(exc)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return _bits(complex(value))


class TestOneEntryReads:
    """The scalars read one entry of the tables; at any step they equal
    the per-index rule, and a table started at any step equals the
    tail of the table started at step 1."""

    @settings(max_examples=150, deadline=None)
    @given(sys=linear_systems, n=st.integers(1, 3000), count=st.integers(1, 9))
    @example(sys=periodic_linear((2, Fraction(1, 3), 0.75)), n=5, count=4)  # cycle offset 1
    @example(sys=index_scaled_linear(Fraction(7, 3), -5), n=2, count=3)  # even first step
    @example(sys=index_scaled_linear(2.5, Fraction(3, 4)), n=7, count=2)  # odd first step
    @example(sys=power_two_parity(3, -7), n=6, count=5)  # even exponents cross zero
    @example(sys=power_two_parity(2.0, 3), n=1025, count=3)  # past the float range
    def test_scalars_equal_the_per_index_rule(self, sys, n, count):
        for read, reference in (
            (MapSystem.coefficient, _scalar_entry),
            (MapSystem.growth_rate, reference_growth_rate),
        ):
            assert _outcome(read, sys, n) == _outcome(reference, sys, n), read.__name__
        # the exact pair and the log rate of step n: entry n of the tables up to n,
        # or, where a float parameter of another class refuses the whole pair
        # table, the pair of step n's own class law (None for a float parameter)
        try:
            pair = sys.coefficient_pairs(n)[n - 1]
        except UnsupportedFamily:
            ((steps, law),) = sys._classes(range(n, n + 1))
            (pair,) = law.pairs(steps) or [None]
        want = _outcome(reference_rational_coefficient, sys, n)
        # the per-index rule computed a float power before refusing it
        assert (pair or UnsupportedFamily) == (UnsupportedFamily if want is OverflowError else want)
        assert sys.log_rates(n)[n - 1].hex() == reference_log_growth_rate(sys, n).hex()
        ns = range(n, n + count)
        assert [_bits(c) for c in sys._float_table(ns).tolist()] == [
            _bits(c) for c in sys.coefficients(n + count - 1)[n - 1:]
        ]

    @pytest.mark.parametrize(
        "sys, n",
        [(power_two_parity(2.0, 3), 1025), (index_scaled_linear(1e308, 2), 3)],
        ids=["float-power", "float-product"],
    )
    def test_a_finite_coefficient_past_the_float_range_reads_the_infinity(self, sys, n):
        assert _bits(sys.coefficient(n)) == _bits(complex(math.inf, 0.0))
        assert sys.coefficients(n)[-1] == complex(math.inf, 0.0)
        assert sys.growth_rate(n) == math.inf
        assert sys.log_rates(n)[-1] == reference_log_growth_rate(sys, n)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "read",
        [
            MapSystem.coefficient,
            lambda sys, n: sys.eval_map(n, 1.0),
            lambda sys, n: sys.eval_q(n, 2.0, 1.0),
            MapSystem.growth_rate,
        ],
        ids=["coefficient", "eval_map", "eval_q", "growth_rate"],
    )
    @pytest.mark.parametrize(
        "sys",
        [periodic_linear(), index_scaled_linear(), power_two_parity(), affine_sinusoid()],
        ids=["periodic", "index_scaled", "parity", "sinusoid"],
    )
    def test_a_step_index_below_one_is_refused(self, sys, read, n):
        with pytest.raises(ValueError, match=rf"^step index must be >= 1, got {n}$"):
            read(sys, n)

    def test_a_modulus_past_the_float_range_reads_inf(self):
        # both parts are finite, |c_1| is not: abs raises, the rate is the table's inf
        sys = periodic_linear((complex(1.5e308, 1.5e308),))
        assert sys.growth_rate(1) == math.inf
        assert sys.growth_rate(1) == sys.rates(1)[0]

    @pytest.mark.parametrize(
        "sys, horizon, n",
        [(periodic_linear((complex(1.5e308, 1.5e308),)), 2, 1), (index_scaled_linear(1e308, 2), 4, 3)],
        ids=["modulus", "product"],
    )
    def test_a_log_rate_past_the_float_range_reads_the_table(self, sys, horizon, n):
        # the modulus case raised a bare OverflowError from abs before
        assert sys.rates(horizon)[n - 1] == math.inf
        assert sys.log_rates(horizon)[n - 1] == math.inf

    def test_a_log_rate_of_an_underflowed_rate_is_refused_by_name(self):
        # 1/(1e308 * 2) underflows to 0.0; math.log raised a bare 'math domain error'
        sys = index_scaled_linear(3, 1e308)
        assert sys.rates(2) == [3.0, 0.0]
        message = "growth rate must be positive: p_n = 0.0 at n = 2"
        with pytest.raises(RateRangeError, match=f"^{re.escape(message)}$"):
            sys.log_rates(2)
        with pytest.raises(RateRangeError, match=f"^{re.escape(message)}$"):
            profile_of(sys, 2)


class TestOneFloatValue:
    """Every float read of c_n is the table's entry: the infinity of its
    sign past the float range, for rational and float parameters alike."""

    @settings(max_examples=100, deadline=None)
    @given(
        sys=linear_systems,
        n=st.integers(1, 3000),
        u=st.complex_numbers(max_magnitude=1e3),
        v=st.complex_numbers(max_magnitude=1e3),
        z=st.one_of(st.complex_numbers(max_magnitude=1e3), st.floats(-1e3, 1e3)),
    )
    @example(sys=power_two_parity(), n=1025, u=1j, v=0j, z=1.0)  # an int pair past the range
    @example(sys=index_scaled_linear(1e308, 2), n=3, u=2.0, v=-1j, z=-3 + 0.5j)  # a float product
    def test_scalar_reads_are_the_table_entry(self, sys, n, u, v, z):
        c = sys.coefficients(n)[n - 1]
        assert _bits(sys.coefficient(n)) == _bits(c)
        assert _bits(sys.eval_q(n, u, v)) == _bits(c)
        assert _bits(sys.eval_map(n, z)) == _bits(c * complex(z))


class TestPrefixTables:
    """A table built to horizon H is a prefix of the one built to N >= H:
    ``shadow_expanding`` and ``witness_divergence`` step their orbits
    through a longer table than ``generate_pseudo_orbit`` would build."""

    @settings(max_examples=120, deadline=None)
    @given(
        sys=st.one_of(linear_systems, st.builds(affine_sinusoid, st.floats(1.01, 9.0))),
        H=st.one_of(st.integers(1, 300), st.integers(1000, 1100)),
        extra=st.integers(0, 250),
    )
    @example(sys=power_two_parity(), H=1000, extra=200)  # odd steps overflow from 1025
    @example(sys=power_two_parity(Fraction(3, 2), -4), H=1020, extra=60)
    @example(sys=power_two_parity(2.0, 3), H=1024, extra=50)
    @example(sys=index_scaled_linear(), H=3385, extra=200)  # the benchmark's reached horizon
    @example(sys=affine_sinusoid(), H=629, extra=200)
    @example(sys=power_two_parity(4, 3), H=500, extra=50)  # odd steps overflow from 513
    @example(sys=power_two_parity(Fraction(1, 8), 3), H=330, extra=40)
    @example(sys=power_two_parity(Fraction(1, 2), 3), H=1070, extra=10)  # 0.0 from 1075
    @example(sys=power_two_parity(Fraction(2, 3), 3), H=1740, extra=120)  # inf from 1748
    def test_shorter_table_is_a_prefix(self, sys, H, extra):
        N = H + extra
        (short_c, short_p), (long_c, long_p) = sys.tables(H), sys.tables(N)
        assert [x.hex() for x in short_p] == [x.hex() for x in long_p[:H]]
        if sys.is_linear:
            assert [_bits(c) for c in short_c] == [_bits(c) for c in long_c[:H]]
        else:
            assert short_c is long_c is None


class TestWholeRangeTables:
    """Each table rule runs once over the whole range of steps, not once
    per entry."""

    def test_power_of_two_parity_makes_no_quotient_call(self, monkeypatch):
        calls = []
        quotient = hu_shadow.systems._quotient
        monkeypatch.setattr(
            hu_shadow.systems, "_quotient", lambda num, den: calls.append(num) or quotient(num, den)
        )
        power_two_parity().tables(10_000)
        assert calls == []

    def test_rational_parity_base_stops_rounding_where_it_leaves_the_float_range(
        self, monkeypatch
    ):
        # each class of base 3 leaves the float range near n = 650-680; past
        # that every entry is the same limit, and rounding each exact power
        # to the end would make the build quadratic in the horizon
        calls = []
        quotient = hu_shadow.systems._quotient
        monkeypatch.setattr(
            hu_shadow.systems, "_quotient", lambda num, den: calls.append(num) or quotient(num, den)
        )
        power_two_parity(3).tables(10**4)
        assert len(calls) <= 700

    def test_sinusoid_evaluates_its_rate_rule_once(self, monkeypatch):
        calls = []
        rate = hu_shadow.systems._expanding_rate
        monkeypatch.setattr(
            hu_shadow.systems, "_expanding_rate", lambda slope, n: calls.append(n) or rate(slope, n)
        )
        affine_sinusoid().tables(10_000)
        assert len(calls) == 1

    @pytest.mark.parametrize("base", [3, Fraction(3, 2), 10**30])
    def test_rational_parity_base_memory_at_the_horizon_cap(self, base):
        # the class stream holds one power at a time and the float table stops
        # reading it where the class leaves the float range; the exact pairs of
        # every step would hold about 1 GB of powers of 3 at this horizon
        tracemalloc.start()
        try:
            power_two_parity(base).tables(MAX_HORIZON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @pytest.mark.parametrize("base", [2, 3, Fraction(3, 2)])
    def test_parity_log_rates_hold_one_power_per_class(self, base):
        # each log is taken as the class stream makes its pair; a table of
        # every pair grows as the square of the horizon (64-160 MB here)
        tracemalloc.start()
        try:
            power_two_parity(base).log_rates(3 * 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPowerSpan:
    """A power class past the float range is its limit, decided from the
    exponent alone: no int64 product of exponents, no exact power whose
    rounding is already known."""

    @pytest.mark.parametrize(
        "sys, want",
        [
            (power_two_parity(4, 2**62), [4.0, 0.0, 64.0, 0.0]),  # 2 * e wrapped in int64
            (power_two_parity(4, -(2**63)), [4.0, math.inf, 64.0, math.inf]),
            (power_two_parity(3, 10**7), [3.0, 0.0, 27.0, 0.0]),  # made 3**(10**7 + 2) first
            (power_two_parity(Fraction(3, 2), -(10**9)), [1.5, math.inf, 3.375, math.inf]),
            (power_two_parity(2.5, 10**400), [2.5, 0.0, 15.625, 0.0]),  # ** raised, read as inf
            (power_two_parity(1, 10**400), [1.0, 1.0, 1.0, 1.0]),
        ],
        ids=["wrap", "wrap_negative", "power_of_three", "fraction", "float_base", "base_one"],
    )
    def test_rates_past_the_float_range_are_the_limit(self, sys, want):
        start = time.perf_counter()
        assert sys.rates(4) == want
        assert time.perf_counter() - start < 0.5

    def test_an_exponent_past_int64_reads_the_limit(self):
        # np.ldexp raised a bare TypeError on the float array that np.arange makes of 2**63 + 2
        assert _bits(power_two_parity(2, 2**63).coefficient(2)) == _bits(0j)

    @pytest.mark.parametrize("shift, zero", [(10**9, 0.0), (10**9 + 1, -0.0)])
    @pytest.mark.parametrize("base", [-2, Fraction(-3, 2)])
    def test_a_negative_base_keeps_the_sign_of_its_limit(self, base, shift, zero):
        # built directly: the factory refuses a negative base; its exact powers
        # round to the zero or infinity of their sign, as _quotient does
        below = MapSystem(Family.POWER_TWO_PARITY, (base, shift))
        assert _bits(below.coefficient(2)) == _bits(complex(zero, 0.0))
        above = MapSystem(Family.POWER_TWO_PARITY, (base, -shift))
        assert _bits(above.coefficient(2)) == _bits(complex(math.copysign(math.inf, zero), 0.0))

    @pytest.mark.parametrize("shift", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    @pytest.mark.parametrize("base", [1.0, -1.0])
    def test_a_float_base_of_modulus_one_is_one_past_the_float_range(self, base, shift):
        # 1.0 ** e raises OverflowError for an e past the float range, not an overflow;
        # -1.0 is built directly (the factory refuses a negative base)
        sys = MapSystem(Family.POWER_TWO_PARITY, (base, shift))
        assert sys.rates(4) == [1.0] * 4
        assert [_bits(c) for c in sys.coefficients(4)] == [
            _bits(complex(x, 0.0)) for x in (base, 1.0, base, 1.0)
        ]
        assert sys.log_rates(4) == [0.0] * 4

    def test_a_negative_float_base_overflows_to_the_infinity_of_its_sign(self):
        # (-1.5)**1751 raises OverflowError inside the span, where it read +inf;
        # built directly (the factory refuses a negative base)
        sys = MapSystem(Family.POWER_TWO_PARITY, (-1.5, 3))
        assert _bits(sys.coefficients(1760)[1750]) == _bits(complex(-math.inf, 0.0))
        _assert_tables_match_scalar_rule(sys, 1760)

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.sampled_from(
            [2, 3, 4, 1, 1.0, 2.5, 0.3, Fraction(1, 8), Fraction(3, 2), Fraction(2, 3),
             Fraction(2**40 + 1, 2**40)]
        ),
        shift=st.integers(-3000, 3000),
        horizon=st.integers(0, 40),
    )
    def test_entries_at_the_span_edges_equal_the_scalar_rule(self, base, shift, horizon):
        _assert_tables_match_scalar_rule(power_two_parity(base, shift), horizon)


def _float_power_log_rate(base: float, even_shift: int, n: int):
    """ln p_n for a float parity base by the direct rule, None where it fails."""
    e = n if n % 2 == 1 else -(n + even_shift)
    try:
        return math.log(abs(complex(float(base) ** e)))
    except (OverflowError, ValueError):
        return None


class TestFloatBaseLogRate:
    def test_base_two_past_the_float_range(self):
        sys = power_two_parity(2.0, 3)
        failed = 0
        for n, got in enumerate(sys.log_rates(3000), 1):
            exponent = n if n % 2 == 1 else -(n + 3)
            assert math.isfinite(got)
            assert got == pytest.approx(exponent * math.log(2), rel=1e-12)
            direct = _float_power_log_rate(2.0, 3, n)
            if direct is None:
                failed += 1
            else:
                assert got == direct
        assert failed > 0  # the direct rule overflows (odd n >= 1025) and underflows

    @pytest.mark.parametrize("base, even_shift", [(1.5, -4), (0.5, 3), (3.0, 0)])
    def test_other_bases_finite_and_equal_where_direct_rule_works(self, base, even_shift):
        sys = power_two_parity(base, even_shift)
        for n, got in enumerate(sys.log_rates(4000), 1):
            assert math.isfinite(got)
            direct = _float_power_log_rate(base, even_shift, n)
            if direct is not None:
                assert got == direct


class TestPowerOfTwoLogRate:
    @pytest.mark.parametrize("base", [2, 4, Fraction(1, 2)], ids=["2", "4", "1/2"])
    @pytest.mark.parametrize(
        "even_shift", [0, 3, -5, -1030, 1019, 1020, 1021, 1024, 2000, 10**5, -(10**5)]
    )
    def test_equals_the_pair_route(self, base, even_shift):
        # exponents cross k = 1023, where CPython's math.log of the int 2**k
        # changes rule, and zero, where the pair flips to 1/2**k
        sys = MapSystem(Family.POWER_TWO_PARITY, (base, even_shift))
        pairs = sys.coefficient_pairs(64)
        expected = [math.log(abs(num)) - math.log(den) for num, den in pairs]
        assert [x.hex() for x in sys.log_rates(64)] == [x.hex() for x in expected]

    def test_equals_the_pair_route_over_a_long_range(self):
        sys = power_two_parity()
        expected = [math.log(abs(num)) - math.log(den) for num, den in sys.coefficient_pairs(5000)]
        assert [x.hex() for x in sys.log_rates(5000)] == [x.hex() for x in expected]

    def test_makes_no_power(self, monkeypatch):
        # every exact power 2**(10**7 + n) was made: 2.1 ms at a shift of 10**6
        def refuse(*args):
            raise AssertionError("an exact power was made")

        monkeypatch.setattr(hu_shadow.systems, "_class_powers", refuse)
        rates = power_two_parity(2, 10**7).log_rates(4)
        assert rates[1] == -(math.log(0.5) + math.log(2.0) * (10**7 + 3))
        assert rates[2] == math.log(8.0)


# -- the loop with a call per step, kept verbatim as the reference --------


def _per_call_finite(z: complex) -> bool:
    return (
        math.isfinite(z.real)
        and math.isfinite(z.imag)
        and abs(z.real) <= OVERFLOW_LIMIT
        and abs(z.imag) <= OVERFLOW_LIMIT
    )


def _per_call_generate_pseudo_orbit(sys, a1, epsilon, policy, horizon):
    """The per-step loop that reads the residual and tests finiteness by call."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    coeffs = sys.coefficients(horizon - 1) if sys.is_linear else None
    a = [complex(a1)]
    r = []
    truncated = False
    for n in range(1, horizon):
        r_n = policy.residual(n, epsilon)
        try:
            if coeffs is None:
                nxt = sys.eval_map(n, a[-1]) + r_n
            else:
                nxt = coeffs[n - 1] * a[-1] + r_n
        except OverflowError:
            truncated = True
            break
        if not _per_call_finite(nxt):
            truncated = True
            break
        a.append(nxt)
        r.append(r_n)
    return PseudoOrbit(
        a=tuple(a),
        r=tuple(r),
        epsilon=epsilon,
        horizon=len(a),
        policy=policy,
        truncated=truncated,
    )


def _orbit_bits(orbit: PseudoOrbit) -> tuple:
    return (
        tuple(_bits(z) for z in orbit.a),
        tuple(_bits(z) for z in orbit.r),
        orbit.epsilon,
        orbit.horizon,
        orbit.policy,
        orbit.truncated,
    )


def _orbit_outcome(generate, *args):
    try:
        return _orbit_bits(generate(*args))
    except Exception as exc:  # the same error must surface
        return type(exc), str(exc)


orbit_systems = st.one_of(
    st.lists(st.one_of(real, st.builds(complex, finite, finite)), min_size=1, max_size=4)
    .filter(lambda cs: all(0 < abs(complex(c)) < math.inf for c in cs if not isinstance(c, int)))
    .map(lambda cs: MapSystem(Family.PERIODIC_LINEAR, tuple(cs))),
    st.builds(lambda *scales: MapSystem(Family.INDEX_SCALED_LINEAR, scales), real, real),
    st.builds(
        power_two_parity,
        st.one_of(
            st.integers(1, 4),
            st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5).filter(bool),
            st.floats(0.25, 4.0),
        ),
        st.integers(-6, 6),
    ),
    st.builds(affine_sinusoid, st.floats(1.01, 4.0)),
)
start_points = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    # near the truncation limit: the first steps already leave the range
    st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    st.floats(9e299, 1e300).map(complex),
)
residual_policies = st.builds(
    ResidualPolicy, st.sampled_from(list(PolicyKind)), st.floats(-10.0, 10.0)
)


class TestLeanOrbitLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        sys=orbit_systems,
        a1=start_points,
        eps=st.one_of(st.floats(0, 1e-2), st.floats(0, 1e3)),
        policy=residual_policies,
        horizon=st.one_of(st.integers(1, 80), st.integers(1000, 1100)),
    )
    def test_bit_identical_to_per_call_loop(self, sys, a1, eps, policy, horizon):
        assert _orbit_outcome(generate_pseudo_orbit, sys, a1, eps, policy, horizon) == (
            _orbit_outcome(_per_call_generate_pseudo_orbit, sys, a1, eps, policy, horizon)
        )

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize(
        "sys, a1",
        [
            (power_two_parity(), 1.0),  # truncates past n = 1024
            (power_two_parity(2.0, 3), 1.0 - 0.5j),
            (index_scaled_linear(), 1e300),
            (periodic_linear((2, 1.5 - 0.5j)), 1e299 + 1e299j),
            (affine_sinusoid(), 1.0),  # truncates at n = 629
        ],
        ids=["parity", "parity_float", "index_near_limit", "periodic_complex", "sinusoid"],
    )
    def test_truncating_orbits(self, sys, a1, kind):
        policy = ResidualPolicy(kind=kind, theta=0.7)
        new = generate_pseudo_orbit(sys, a1, 1e-3, policy, 1200)
        assert _orbit_bits(new) == _orbit_bits(
            _per_call_generate_pseudo_orbit(sys, a1, 1e-3, policy, 1200)
        )
        assert new.truncated

    def test_low_discrepancy_residual_is_read_per_step(self):
        policy = ResidualPolicy(kind=PolicyKind.LOW_DISCREPANCY_PHASE)
        pseudo = generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, policy, 6)
        assert pseudo.r == tuple(policy.residual(n, 1e-3) for n in range(1, 6))
        assert len(set(pseudo.r)) == 5

    def test_constant_residual_is_read_once(self, monkeypatch):
        calls = []
        original = ResidualPolicy.residual
        monkeypatch.setattr(
            ResidualPolicy, "residual", lambda self, n, eps: calls.append(n) or original(self, n, eps)
        )
        generate_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), 500)
        assert calls == [1]


class TestNonFiniteInputs:
    def test_periodic_nan_coefficient_rejected(self):
        # accepted before: the profile was all NaN and classify said undetermined
        with pytest.raises(ValueError, match="parameters must be finite"):
            periodic_linear((float("nan"), 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_factories_reject_non_finite_parameters(self, bad):
        for build in (
            lambda: periodic_linear((2, bad)),
            lambda: index_scaled_linear(bad, 2),
            lambda: index_scaled_linear(3, bad),
            lambda: power_two_parity(bad, 3),
            lambda: affine_sinusoid(bad),
        ):
            with pytest.raises(ValueError, match="parameters must be finite"):
                build()

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        # returned a horizon-1 orbit before
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            generate_pseudo_orbit(periodic_linear(), 1.0, eps, ResidualPolicy(), 10)

    @pytest.mark.parametrize(
        "a1",
        [1e301, math.inf, math.nan, complex(1.7e308, 1.7e308), pytest.param(10**400, id="10**400")],
    )
    @pytest.mark.parametrize(
        "build", [periodic_linear, index_scaled_linear, power_two_parity, affine_sinusoid]
    )
    def test_a1_out_of_range_rejected(self, monkeypatch, build, a1):
        # kept before as a one-value truncated orbit: shadow_expanding then raised a
        # bare OverflowError and shadow_contracting returned a NaN sup_diff
        sys = build()
        calls = []
        for name in ("_classes", "_rates"):
            monkeypatch.setattr(MapSystem, name, lambda self, ns, _n=name: calls.append(_n))
        message = f"a1 must have finite parts of at most 1e+300, got {a1!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_pseudo_orbit(sys, a1, 1e-3, ResidualPolicy(), 10)
        assert calls == []

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: power_two_parity(1j), "base must be real, got 1j"),
            (lambda: power_two_parity(complex(2.0, 0.0)), "base must be real, got (2+0j)"),
            (lambda: affine_sinusoid(1j), "slope must be real, got 1j"),
            (lambda: affine_sinusoid(3.0 + 0.5j), "slope must be real, got (3+0.5j)"),
        ],
    )
    def test_complex_base_or_slope_rejected(self, build, message):
        # ended in a bare TypeError from the order comparison before
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def _fraction_log_growth_rate(sys: MapSystem, n: int) -> float:
    """ln p_n of a rational parity system by the reduced Fraction rule."""
    c = reference_rational_coefficient(sys, n)
    return math.log(abs(c.numerator)) - math.log(c.denominator)


class TestIntegerBaseLogRate:
    @pytest.mark.parametrize(
        "base, even_shift",
        [(2, 3), (3, -5), (1, 0), (7, 2), (2, -2000), (Fraction(3, 2), -101), (Fraction(2, 3), -7)],
    )
    def test_equals_reduced_fraction_rule(self, base, even_shift):
        sys = power_two_parity(base, even_shift)
        log_rates = sys.log_rates(4000)
        pairs = sys.coefficient_pairs(4000)
        for n in [*range(1, 1200), *range(1200, 4000, 37)]:
            got = log_rates[n - 1].hex()
            assert got == _fraction_log_growth_rate(sys, n).hex(), n
            assert got == reference_log_growth_rate(sys, n).hex(), n
            c = reference_rational_coefficient(sys, n)
            assert pairs[n - 1] == (c.numerator, c.denominator), n


#: rational scales whose table switches from float64 to ``_quotient`` inside
#: n <= 2001: |p| * n reaches 2**53 near n = 1000, or q is at 2**53
SWITCH_SCALES = [
    2**53 // 1000 + 1,
    Fraction(2**53 // 999 + 2, 7),
    Fraction(5, 2**53 - 1),
    Fraction(5, 2**53 + 1),
    Fraction(2**52 + 1, 2**53 - 3),
]


class TestRationalTableSwitch:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("scale", SWITCH_SCALES)
    def test_every_entry_equals_the_scalar_rule(self, scale, sign):
        for sys in (
            index_scaled_linear(sign * scale, 2),
            index_scaled_linear(3, sign * scale),
        ):
            _assert_tables_match_scalar_rule(sys, 2001)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(1, 2**60),
        q=st.integers(1, 2**60),
        sign=st.sampled_from([1, -1]),
        horizon=st.integers(0, 40),
    )
    def test_random_scales_equal_the_scalar_rule(self, p, q, sign, horizon):
        scale = Fraction(sign * p, q)
        _assert_tables_match_scalar_rule(index_scaled_linear(scale, scale), horizon)


def _definitions(node, prefix=""):
    """(qualified name, node) of a module statement, a class by member."""
    if isinstance(node, ast.ClassDef):
        return [d for member in node.body for d in _definitions(member, f"{node.name}.")]
    if isinstance(node, ast.FunctionDef):
        return [(prefix + node.name, node)]
    target = getattr(node, "target", None) or getattr(node, "targets", [node])[0]
    return [(prefix + ast.unparse(target).splitlines()[0], node)]


def _naming_a_family(members):
    """The definitions of systems.py that name one of the Family ``members``."""
    tree = ast.parse((Path(hu_shadow.__file__).parent / "systems.py").read_text())
    return {
        name
        for statement in tree.body
        for name, definition in _definitions(statement)
        for x in ast.walk(definition)
        if isinstance(x, ast.Attribute) and x.attr in members
        and isinstance(x.value, ast.Name) and x.value.id == "Family"
    }


class TestOneRulePerFamily:
    def test_only_systems_branches_on_a_family(self):
        # c_n is stated in systems.py alone; the other modules read its
        # tables and may only build a family from its value
        package = Path(hu_shadow.__file__).parent
        member = re.compile(r"\bFamily\.[A-Z][A-Z_]*\b")
        found = {
            path.name: member.findall(path.read_text())
            for path in sorted(package.glob("*.py"))
            if path.name != "systems.py"
        }
        assert {name: hits for name, hits in found.items() if hits} == {}
        assert len(found) >= 8  # every module was read

    def test_systems_dispatches_the_linear_families_in_one_place(self):
        # the law builder states each linear family's rule per residue class;
        # the tables loop over its laws, and only the factories and FACTORIES
        # name a linear family besides it
        linear = {"PERIODIC_LINEAR", "INDEX_SCALED_LINEAR", "POWER_TWO_PARITY"}
        assert _naming_a_family(linear) == {
            "_laws", "periodic_linear", "index_scaled_linear", "power_two_parity", "FACTORIES"
        }

    def test_every_law_field_is_set_by_a_factory(self):
        # a field that no factory sets would be a route that no family takes
        laws = [
            law
            for sys in (periodic_linear(), index_scaled_linear(), power_two_parity())
            for law in hu_shadow.systems._laws(sys.family, sys.params)
        ]
        for field, default in hu_shadow.systems._Law._field_defaults.items():
            assert any(getattr(law, field) != default for law in laws), field


class TestOneHomePerRule:
    def test_linearity_is_decided_in_one_function(self):
        # eval_map and eval_q once tested the sinusoid's member themselves; every
        # reader now asks _is_linear, through the is_linear property or directly
        naming = _naming_a_family({"AFFINE_SINUSOID"})
        assert naming == {"_is_linear", "affine_sinusoid", "FACTORIES"}

    def test_the_linear_family_refusal_is_raised_in_one_method(self):
        # shadow_contracting and witness_divergence each wrote this refusal out
        phrase = "needs a linear family"
        package = Path(hu_shadow.__file__).parent
        owners = [
            (path.name, name)
            for path in sorted(package.glob("*.py"))
            for statement in ast.parse(path.read_text()).body
            for name, definition in _definitions(statement)
            if any(
                isinstance(x, ast.Constant) and isinstance(x.value, str) and phrase in x.value
                for x in ast.walk(definition)
            )
        ]
        assert owners == [("systems.py", "MapSystem.require_linear")]

    @pytest.mark.parametrize(
        "module", ["systems", "growth", "shadowing", "instability", "oracle"]
    )
    def test_no_library_module_imports_the_config_or_cli_layer(self, module):
        # MAX_HORIZON lives in systems; instability read it from scenario before
        tree = ast.parse((Path(hu_shadow.__file__).parent / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert imported  # the module was read
        assert {name for name in imported if {"scenario", "cli"} & set(name.split("."))} == set()

    def test_no_module_reads_the_environment(self):
        # the CLI once took its output directory from HU_SHADOW_OUT, over --out;
        # every setting is now a flag or a scenario key
        modules = sorted(Path(hu_shadow.__file__).parent.glob("*.py"))
        readers = {"environ", "getenv", "environb", "getenvb"}
        found = {
            (path.name, node.lineno)
            for path in modules
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr in readers)
            or (isinstance(node, ast.Name) and node.id in readers)
            or (isinstance(node, ast.alias) and node.name in readers)
        }
        assert len(modules) >= 8  # every module was read
        assert found == set()


class TestOneRateRule:
    @pytest.mark.parametrize(
        "bad", [math.nan, 0.0, -0.0, -1.0], ids=["nan", "zero", "negative_zero", "negative"]
    )
    def test_every_reader_names_the_same_rate_and_step(self, bad, monkeypatch):
        # p_14 lies past the horizon 10, in the window the tail estimate reads
        sys = periodic_linear((3, Fraction(1, 2)))
        horizon, n = 10, 14
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), horizon)
        coeffs, rates = sys.tables(horizon + TAIL_CAP_MARGIN)
        rates[n - 1] = bad
        monkeypatch.setattr(MapSystem, "tables", lambda self, h: (coeffs[:h], rates[:h]))
        message = f"^growth rate must be positive: p_n = {re.escape(repr(bad))} at n = {n}$"
        readers = [
            lambda: build_profile(rates),
            lambda: accumulated_rate_bound(rates, n + 1, 1e-3, 0.0),
            lambda: shadow_expanding(sys, pseudo, math.sqrt(1.5)),  # the tail estimate
        ]
        for read in readers:
            with pytest.raises(RateRangeError, match=message):
                read()

    def test_the_rate_message_is_formatted_in_one_function(self):
        # the positive-rate rule is stated by systems.check_rates alone; every
        # other reader of the rates calls it
        phrase = "growth rate must be positive: p_n"
        package = Path(hu_shadow.__file__).parent
        owners = [
            (path.name, node.name)
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(x, ast.Constant) and isinstance(x.value, str) and phrase in x.value
                for x in ast.walk(node)
            )
        ]
        assert owners == [("systems.py", "check_rates")]

    def test_p_n_is_stated_in_one_method(self):
        # the sinusoid's rate is read by MapSystem._rates alone, and the moduli of
        # a float table by _rates and by tables, which also keeps its coefficients
        package = Path(hu_shadow.__file__).parent
        callers = {"_expanding_rate": [], "_moduli": []}
        for path in sorted(package.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                        callers[node.func.id].append((path.name, func.name))
        assert callers == {
            "_expanding_rate": [("systems.py", "_rates")],
            "_moduli": [("systems.py", "_rates"), ("systems.py", "tables")],
        }
