"""Map families, residual policies and pseudo-orbit generation."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hu_shadow import (
    Family,
    PolicyKind,
    PseudoOrbit,
    ResidualPolicy,
    UnsupportedFamily,
    affine_sinusoid,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
)


class TestCoefficients:
    def test_periodic_cycle(self):
        sys = periodic_linear((2, Fraction(1, 3)))
        assert sys.rational_coefficient(1) == 2
        assert sys.rational_coefficient(2) == Fraction(1, 3)
        assert sys.rational_coefficient(3) == 2
        assert sys.rational_coefficient(101) == 2
        assert sys.rational_coefficient(102) == Fraction(1, 3)

    def test_index_scaled(self):
        sys = index_scaled_linear()
        assert sys.rational_coefficient(1) == 3
        assert sys.rational_coefficient(2) == Fraction(1, 4)
        assert sys.rational_coefficient(5) == 15
        assert sys.rational_coefficient(6) == Fraction(1, 12)

    def test_power_parity(self):
        sys = power_two_parity()
        assert sys.rational_coefficient(1) == 2
        assert sys.rational_coefficient(2) == Fraction(1, 32)
        assert sys.rational_coefficient(3) == 8
        assert sys.rational_coefficient(4) == Fraction(1, 128)

    def test_scaled_products_alternate(self):
        # the products decay along both parity classes, but at different
        # per-period factors (4 on the odd class, 16 on the even one)
        sys = power_two_parity()
        prod = Fraction(1)
        values = []
        for n in range(1, 9):
            prod *= sys.rational_coefficient(n)
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
        with pytest.raises(UnsupportedFamily):
            sys.rational_coefficient(2)
        assert sys.coefficient(2) == pytest.approx(1 / 3)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            periodic_linear().coefficient(0)


class TestFactories:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="growth rate must be positive"):
            periodic_linear((2, 0))

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            periodic_linear(())

    def test_sinusoid_slope_must_expand(self):
        with pytest.raises(ValueError):
            affine_sinusoid(slope=0.5)

    def test_kinds(self):
        assert power_two_parity().family is Family.POWER_TWO_PARITY


class TestEvaluation:
    def test_linear_map(self):
        sys = periodic_linear()
        assert sys.eval_map(1, 1 + 1j) == 2 + 2j
        assert sys.eval_map(2, 3.0) == pytest.approx(1.0)

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


class TestResidualPolicies:
    @given(
        kind=st.sampled_from(list(PolicyKind)),
        theta=st.floats(0, 2 * math.pi),
        n=st.integers(1, 10**6),
        eps=st.floats(0, 10),
    )
    def test_magnitude_within_epsilon(self, kind, theta, n, eps):
        policy = ResidualPolicy(kind=kind, theta=theta)
        assert abs(policy.residual(n, eps)) <= eps * (1 + 1e-12)

    @given(
        kind=st.sampled_from(list(PolicyKind)),
        n=st.integers(1, 10**4),
    )
    def test_deterministic(self, kind, n):
        policy = ResidualPolicy(kind=kind, theta=0.25)
        assert policy.residual(n, 1e-3) == policy.residual(n, 1e-3)

    def test_constant_real(self):
        assert ResidualPolicy().residual(17, 1e-3) == 1e-3 + 0j

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
