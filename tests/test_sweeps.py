"""The comprehension sweeps over a linear family's table, bit for bit against
the per-step loops they replaced, which are kept here verbatim as references.

Each sweep makes the same float operations in the same order as its loop;
only the per-step checks moved out of the step (one array test per block of
orbit steps, one sign scan of the rates).  So every value, every error and
the index it names must agree with the loop's, NaN and the sign of zero
included.
"""

import cmath
import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hu_shadow import shadowing, systems
from hu_shadow import (
    DegenerateQuotient,
    Family,
    HypothesisViolation,
    MapSystem,
    NonContraction,
    PolicyKind,
    PseudoOrbit,
    RateRangeError,
    ResidualPolicy,
    ShadowMeta,
    ShadowMethod,
    ShadowOptions,
    ShadowResult,
    affine_sinusoid,
    divergence_lower_bound_log10,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
    shadow_contracting,
    shadow_expanding,
    witness_divergence,
)
from hu_shadow import instability
from hu_shadow.shadowing import (
    TAIL_CAP_MARGIN,
    _check_finite_steps,
    _check_linear_quotients,
    _pick_truncation,
    _update_nonlinear_quotients,
)
from hu_shadow.systems import OVERFLOW_LIMIT, _moduli
from test_instability import parity_classification
from test_shadowing import _per_call_accumulated_rate_bounds, _per_call_shadow_contracting

BLOCK = systems._ORBIT_BLOCK


# -- the per-step loops, verbatim but for the names of the loops they call ---


def _loop_pseudo_orbit(sys, a1, epsilon, policy, horizon, coeffs, head=None):
    systems._check_orbit_request(epsilon, horizon, a1 if head is None else None)
    start = 1 if head is None else head.horizon
    steps = range(start, horizon)
    if policy.kind is PolicyKind.LOW_DISCREPANCY_PHASE:
        residuals = (policy.residual(n, epsilon) for n in steps)
    else:
        residuals = [policy.residual(1, epsilon)] * len(steps) if steps else []
    if head is None:
        z = complex(a1)
        a, r = [z], []
    else:
        a, r, z = list(head.a), list(head.r), head.a[-1]
    linear = sys.is_linear
    if coeffs is None and linear:
        coeffs = sys.coefficients(horizon - 1)
    operands = islice(coeffs, start - 1, None) if linear else steps
    eval_map = sys.eval_map
    truncated = False
    for x, r_n in zip(operands, residuals):
        try:
            z = (x * z if linear else eval_map(x, z)) + r_n
        except OverflowError:
            z = complex(math.nan, math.nan)
        if not (abs(z.real) <= OVERFLOW_LIMIT and abs(z.imag) <= OVERFLOW_LIMIT):  # _within_limit
            truncated = True
            break
        a.append(z)
        r.append(r_n)
    return PseudoOrbit(
        a=tuple(a),
        r=tuple(r),
        epsilon=epsilon,
        horizon=len(a),
        policy=policy,
        truncated=truncated,
    )


def _loop_accumulated_rate_bounds(rates, horizon, eps, gap):
    log, exp, inf = math.log, math.exp, math.inf
    log_prod = 0.0
    S = 0.0
    out = [1.0 * gap + S * eps]  # n = 1: the empty product exp(0.0) = 1.0
    for n, p in enumerate(rates[: horizon - 1], 1):
        if not p > 0:
            raise RateRangeError(f"growth rate must be positive: p_n = {p!r} at n = {n}")
        S = S * p + 1.0
        if gap:
            log_prod += log(p)
            out.append((exp(log_prod) if log_prod < 700 else inf) * gap + S * eps)
        else:
            out.append(0.0 * gap + S * eps)
    return out


def _loop_relative_residual_sup(sys, coeffs, b):
    eval_map = sys.eval_map
    worst = 0.0
    steps = coeffs if coeffs is not None else [None] * len(b)
    for n, c, z, nxt in zip(range(1, len(b)), steps, b, b[1:]):
        res = abs(nxt - (c * z if c is not None else eval_map(n, z)))
        m = abs(z)
        x = res / (m if m > 1.0 else 1.0)  # max(1.0, m), NaN included
        if x > worst:  # max(worst, x), NaN included
            worst = x
    return worst


def _loop_shadow_contracting(sys, pseudo, K):
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    if not sys.is_linear:
        raise HypothesisViolation(
            f"the contracting construction needs a linear family, got {sys.family.value}"
        )
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    coeffs, rates = sys.tables(horizon)
    _check_finite_steps(coeffs, rates, horizon - 1)
    z = pseudo.value(1)
    b = [z]
    for c in coeffs[: horizon - 1]:
        z = c * z
        b.append(z)
    d = tuple([x - y for x, y in zip(b, pseudo.a)])
    sup = max([abs(x) for x in d])
    sound = max(_loop_accumulated_rate_bounds(rates, horizon, eps, 0.0))
    if sup > sound * 1.05 + 1e-15:
        raise HypothesisViolation(
            f"measured sup-difference {sup:.3e} exceeds the sound rate bound "
            f"{sound:.3e}; the system is not contracting as classified"
        )
    bound = K * eps / (K - 1.0)
    meta = ShadowMeta(truncation=0, iterations=1, residual_sup=0.0, sound_bound=sound)
    return ShadowResult(
        b=tuple(b), d=d, bound=bound, method=ShadowMethod.CONTRACTING_DIRECT, meta=meta
    )


def _loop_shadow_expanding(sys, pseudo, K, opts=ShadowOptions()):
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    bound = 2.0 * eps / math.log(K)
    coeffs, rates = sys.tables(horizon + TAIL_CAP_MARGIN)
    J, capped = _pick_truncation(rates, horizon, eps, bound, opts.tail_fraction, K)
    _check_finite_steps(coeffs, rates, horizon - 1)
    ext = _loop_pseudo_orbit(sys, pseudo.value(1), eps, pseudo.policy, J + 1, coeffs, pseudo)
    J = min(J, ext.horizon - 1)
    n_ext = ext.horizon
    a = ext.a
    r = ext.r[:J]
    if coeffs is not None:
        _check_linear_quotients(rates, J)
        quotients = coeffs[J - 1 :: -1] if J else []  # q_J .. q_1
    else:
        quotients, points = [0j] * J, [None] * J
    d = [0j] * (n_ext + 1)
    scale = max(1.0, abs(a[0]))
    iterations = 0
    prev_change = math.inf
    increasing = 0
    while True:
        iterations += 1
        if coeffs is None:
            _update_nonlinear_quotients(sys, a, d, quotients, points)
        backward = []  # d_J .. d_1
        nxt = 0j
        for n, r_n, q in zip(range(J, 0, -1), reversed(r), quotients):
            nxt = (r_n + nxt) / q
            if not cmath.isfinite(nxt):  # the refusal, checked in the step
                raise DegenerateQuotient(f"d_{n} = (r_{n} + d_{n + 1})/q_{n} left the float range")
            backward.append(nxt)
        new_d = backward[::-1] + [0j] * (n_ext + 1 - J)
        if sys.is_linear or eps == 0.0:
            d = new_d
            break
        change = max([abs(x - y) for x, y in zip(new_d[:horizon], d)])
        d = new_d
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
            raise NonContraction(f"no fixed point within {opts.max_iter} iterations")
    b = tuple([x + y for x, y in zip(a[:horizon], d)])
    d_out = tuple(d[:horizon])
    sound = max(_loop_accumulated_rate_bounds(rates, horizon, eps, abs(d[0])))
    meta = ShadowMeta(
        truncation=J,
        iterations=iterations,
        residual_sup=_loop_relative_residual_sup(sys, coeffs, b),
        sound_bound=sound,
        truncation_capped=capped,
    )
    return ShadowResult(
        b=b, d=d_out, bound=bound, method=ShadowMethod.EXPANDING_TAIL_SERIES, meta=meta
    )


def _loop_pick_truncation(rates, horizon, eps, bound, tail_fraction, K):
    """The tail estimate's per-step loop, its check in the step, but for one
    change: a term whose ``math.exp`` overflowed, where the loop raised
    OverflowError, is ``inf``."""
    cap = horizon + TAIL_CAP_MARGIN
    if eps == 0.0:
        return horizon, False
    target = tail_fraction * bound if bound > 0 else 0.0
    log_c = 0.0
    tail_terms = []
    for n, p in enumerate(rates[horizon - 1 : cap], horizon):
        if not p > 0:
            raise RateRangeError(f"growth rate must be positive: p_n = {p!r} at n = {n}")
        log_c -= math.log(p)
        try:
            tail_terms.append(math.exp(log_c))
        except OverflowError:
            tail_terms.append(math.inf)
    remainder = tail_terms[-1] / (K - 1.0)
    suffix = remainder
    best = cap
    for i in range(len(tail_terms) - 1, -1, -1):
        if eps * suffix < target:
            best = horizon + i
        else:
            break
        suffix += tail_terms[i]
    if best < cap:
        return best, False
    return cap, True


def _loop_default_witness_horizon(K_p, K_q, p_idx, q_idx, m, C_p):
    """The default witness horizon's walk of k one step at a time."""
    bound = instability._lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p)
    k = 0
    while bound(k + 1) < instability.LOG10_LIMIT:
        k += 1
    return k * m + p_idx + 1


def _loop_lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p, k):
    if not K_q > K_p >= 1.0:
        raise HypothesisViolation(
            f"no divergence witness: need K_q > K_p >= 1, got K_p={K_p}, K_q={K_q}"
        )
    if m < 2 or k < 0 or C_p <= 0:
        raise ValueError("need m >= 2, k >= 0, C_p > 0")
    ln = (
        k * m * (math.log(K_q) - math.log(K_p))
        + q_idx * math.log(K_q)
        - math.log(C_p)
        - (p_idx + m) * math.log(K_p)
    )
    return ln / math.log(10.0)


# -- comparison ---------------------------------------------------------------


def _bits(x) -> tuple:
    """The exact bits of a float or complex, NaN and the sign of zero included."""
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def _outcome(fn, *args):
    """The bits of what fn(*args) returns, or the error's type and message.

    ``abs`` of a complex with a NaN part leaves errno alone in CPython 3.11,
    so a stale ERANGE would raise: it is cleared before each side."""
    abs(1j)
    try:
        return _deep_bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _deep_bits(x):
    if isinstance(x, (float, complex)):
        return _bits(x)
    if isinstance(x, (list, tuple)):
        return type(x), tuple(_deep_bits(y) for y in x)
    if isinstance(x, PseudoOrbit):
        return _deep_bits((x.a, x.r)), x.epsilon, x.horizon, x.policy, x.truncated
    if isinstance(x, ShadowResult):
        meta = x.meta
        return (
            _deep_bits((x.b, x.d, x.bound, meta.residual_sup, meta.sound_bound)),
            x.method, meta.truncation, meta.iterations, meta.truncation_capped,
        )
    return x


# -- strategies ---------------------------------------------------------------

policies = st.builds(ResidualPolicy, st.sampled_from(list(PolicyKind)), st.floats(-7.0, 7.0))
#: coefficients of every kind a table holds: real and complex, tiny and huge,
#: and the inf and NaN parts of a value past the float range
coefficient_values = st.one_of(
    st.floats(-4.0, 4.0),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.sampled_from([1e-300, -1e200, 1e300, math.inf, -math.inf, math.nan]),
    st.builds(
        complex,
        st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan]),
        st.sampled_from([0.0, -1.0, math.inf, math.nan]),
    ),
).map(complex)
#: horizons around the orbit's block edges, and short ones
horizons = st.one_of(
    st.sampled_from([1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1]),
    st.integers(1, 60),
)


@st.composite
def coefficient_tables(draw, length):
    """A table of ``length`` entries cycling a drawn list, with an optional
    drawn value put at a drawn index: the first step, inside a block or at
    a block edge."""
    cycle = draw(st.lists(st.one_of(st.floats(0.25, 2.0), coefficient_values), min_size=1, max_size=3))
    table = (cycle * (length // len(cycle) + 1))[:length]
    if length and draw(st.booleans()):
        edges = [0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, length - 1]
        at = draw(st.one_of(st.sampled_from(edges), st.integers(0, length - 1)))
        if at < length:
            table[at] = draw(coefficient_values)
    return [complex(c) for c in table]


start_points = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    # the first step already leaves the range
    st.floats(5e299, 1e300).map(complex),
    st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
)


class TestOrbitBlocks:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        a1=start_points,
        eps=st.one_of(st.floats(0, 1e-2), st.floats(0, 1e3)),
        policy=policies,
        horizon=horizons,
    )
    def test_linear_steps_equal_the_loop(self, data, a1, eps, policy, horizon):
        coeffs = data.draw(coefficient_tables(max(horizon - 1, 0)))
        sys = periodic_linear()
        assert _outcome(systems._pseudo_orbit, sys, a1, eps, policy, horizon, coeffs) == (
            _outcome(_loop_pseudo_orbit, sys, a1, eps, policy, horizon, coeffs)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        eps=st.floats(0, 1e-2),
        policy=policies,
        head_horizon=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1]),
        extra=st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1]),
    )
    def test_stepping_on_from_a_head_equals_the_loop(self, data, eps, policy, head_horizon, extra):
        horizon = head_horizon + extra
        coeffs = data.draw(coefficient_tables(horizon))
        sys = periodic_linear()
        head = _loop_pseudo_orbit(sys, 1.0, eps, policy, head_horizon, [1.0 + 0j] * horizon)
        assert _outcome(systems._pseudo_orbit, sys, None, eps, policy, horizon, coeffs, head) == (
            _outcome(_loop_pseudo_orbit, sys, None, eps, policy, horizon, coeffs, head)
        )

    @pytest.mark.parametrize("policy", [ResidualPolicy(kind, 0.7) for kind in PolicyKind])
    @pytest.mark.parametrize(
        "at", [0, 1, BLOCK // 2, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan, complex(0.0, math.inf), 1e300, -1e301])
    def test_truncation_at_every_block_position(self, value, at, policy):
        # c_n is 1 but at step at + 1, where the value leaves the range
        coeffs = [1.0 + 0j] * (2 * BLOCK + 5)
        coeffs[at] = complex(value)
        sys = periodic_linear()
        new = systems._pseudo_orbit(sys, 2.0, 1e-3, policy, len(coeffs) + 1, coeffs)
        assert _deep_bits(new) == _deep_bits(
            _loop_pseudo_orbit(sys, 2.0, 1e-3, policy, len(coeffs) + 1, coeffs)
        )
        assert new.truncated and new.horizon == at + 1

    def test_a_residual_past_the_orbit_end_takes_no_coefficient(self):
        # the table is longer than the steps: the orbit stops at its horizon
        coeffs = [0.5 + 0j] * (BLOCK + 10)
        orbit = systems._pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), BLOCK, coeffs)
        assert orbit.horizon == BLOCK and not orbit.truncated
        assert _deep_bits(orbit) == _deep_bits(
            _loop_pseudo_orbit(periodic_linear(), 1.0, 1e-3, ResidualPolicy(), BLOCK, coeffs)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        slope=st.floats(1.5, 4.0),
        a1=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2, allow_nan=False)),
        eps=st.floats(0, 1e-2),
        policy=policies,
        horizon=st.one_of(st.integers(1, 40), st.integers(600, 700)),
    )
    def test_nonlinear_steps_equal_the_loop_call_for_call(self, slope, a1, eps, policy, horizon):
        sys = affine_sinusoid(slope)
        calls = {}
        for name, generate in (("new", systems._pseudo_orbit), ("loop", _loop_pseudo_orbit)):
            seen = calls[name] = []
            original = MapSystem.eval_map
            MapSystem.eval_map = lambda self, n, z: seen.append(n) or original(self, n, z)
            try:
                calls[name + "_outcome"] = _outcome(generate, sys, a1, eps, policy, horizon, None)
            finally:
                MapSystem.eval_map = original
        assert calls["new_outcome"] == calls["loop_outcome"]
        assert calls["new"] == calls["loop"]


#: rates of every sign, NaN and inf included, and products past exp(700)
rate_values = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, 1e300, 5e-324]),
)


class TestRateSweeps:
    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.lists(rate_values, max_size=40),
        extra=st.sampled_from([-1, 0, 1, 2]),
        eps=st.one_of(st.floats(0, 1e-2), st.sampled_from([0.0, -0.0])),
        gap=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0, 1.0)),
    )
    # a NaN after the first entry, which min(rates) > 0 passes over
    @example(rates=[0.5, math.nan, 0.5], extra=1, eps=1e-3, gap=0.0)
    @example(rates=[0.5, 2.0, math.nan], extra=1, eps=1e-3, gap=0.5)
    @example(rates=[math.inf, 2.0], extra=1, eps=1e-3, gap=0.0)  # S = 0 * inf + 1 is NaN
    def test_forward_sweep_equals_the_loop(self, rates, extra, eps, gap):
        horizon = max(len(rates) + extra, 1)
        assert _outcome(shadowing._accumulated_rate_bounds, rates, horizon, eps, gap) == (
            _outcome(_loop_accumulated_rate_bounds, rates, horizon, eps, gap)
        )

    def test_the_scan_names_the_first_bad_rate(self):
        with pytest.raises(RateRangeError, match=r"^growth rate must be positive: p_n = nan at n = 3$"):
            shadowing._accumulated_rate_bounds([0.5, 2.0, math.nan, -1.0], 5, 1e-3, 0.0)
        with pytest.raises(RateRangeError, match=r"p_n = -0\.0 at n = 1$"):
            shadowing._accumulated_rate_bounds([-0.0, math.nan], 3, 1e-3, 1.0)


class TestTailEstimate:
    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.lists(
            st.one_of(rate_values, st.sampled_from([1e-300, 1e300])), min_size=1, max_size=60
        ),
        horizon=st.integers(1, 20),
        eps=st.sampled_from([0.0, 1e-3, 1.0]),
        K=st.sampled_from([1.01, 2.0, 100.0]),
    )
    # the loop raised OverflowError at the first term, before the 0.0
    @example(rates=[5e-324, 0.0], horizon=1, eps=1e-3, K=2.0)
    @example(rates=[1e-300, 1e-300, 1e300, 1e300, 1e10] * 41, horizon=1, eps=1e-3, K=2.0)
    # the window ends before the cap: J counts back from its last term, not from the cap
    @example(rates=[1e300], horizon=1, eps=1e-3, K=1.01)
    # only the remainder is under the target, past a full window: J is the cap, capped
    @example(rates=[1.0] * 200 + [500.0], horizon=1, eps=1e-3, K=2.0)
    def test_tail_estimate_equals_the_loop(self, rates, horizon, eps, K):
        args = (rates, horizon, eps, 2.0 * eps / math.log(K), 1e-3, K)
        assert _outcome(_pick_truncation, *args) == _outcome(_loop_pick_truncation, *args)

    def test_a_term_saturates_only_past_the_overflow_of_exp(self):
        # so every term that math.exp makes finite is the loop's, bit for bit
        assert math.isfinite(math.exp(shadowing._LOG_FLOAT_MAX))
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(shadowing._LOG_FLOAT_MAX, math.inf))


class TestResidualSup:
    @settings(max_examples=200, deadline=None)
    @given(
        b=st.lists(
            st.one_of(
                st.complex_numbers(max_magnitude=1e3),
                st.complex_numbers(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=30,
        ),
        coeffs=st.lists(coefficient_values, min_size=1, max_size=35),
    )
    @example(b=[complex(math.nan, 0.0), 1j, 2j], coeffs=[1j, 1j])  # a NaN first ratio
    @example(b=[1j, 1j, 2j], coeffs=[complex(math.nan, 0.0), 1j])
    def test_linear_equals_the_loop(self, b, coeffs):
        sys = periodic_linear()
        if len(coeffs) < len(b) - 1:
            coeffs = (coeffs * len(b))[: len(b) - 1]
        assert _outcome(shadowing._relative_residual_sup, sys, coeffs, b) == (
            _outcome(_loop_relative_residual_sup, sys, coeffs, b)
        )

    @pytest.mark.parametrize(
        "b, coeffs",
        [
            ([complex(1.5e308, 1.5e308), 0j], [1 + 0j]),  # |b_1| overflows
            ([1 + 0j, complex(1.5e308, 1.5e308)], [1 + 0j]),  # |b_2 - c_1 b_1| alone overflows
            ([2 + 0j, complex(1.5e308, 1.5e308), complex(math.nan, 1.0)], [1 + 0j, 1j]),
        ],
        ids=["modulus", "difference", "difference_before_nan"],
    )
    def test_a_finite_modulus_overflow_raises_on_both_sides(self, b, coeffs):
        # abs raises OverflowError where finite parts overflow; hypot gives inf
        sys = periodic_linear()
        expected = (OverflowError, "absolute value too large")
        assert _outcome(shadowing._relative_residual_sup, sys, coeffs, b) == expected
        assert _outcome(_loop_relative_residual_sup, sys, coeffs, b) == expected

    @pytest.mark.parametrize(
        "b, coeffs",
        [
            ([complex(math.nan, 1.0), 1j, 2.0 + 0j], [2 + 0j, 1j]),  # a NaN modulus, denominator 1.0
            ([complex(math.inf, math.nan), 1j, 2j], [1 + 0j, 1j]),  # |inf + NaN j| is inf
            ([1j, complex(1.0, math.inf), 1e300 + 0j], [1 + 0j, 1 + 0j]),  # an inf residual
            ([1e300 + 0j, 1e300 + 0j, 1.0 + 0j], [complex(math.inf, 0.0), 1 + 0j]),  # inf - inf
            ([-0.0 + 0j, complex(0.0, -0.0)], [complex(-1.0, 0.0)]),  # zeros of both signs
        ],
        ids=["nan_part", "inf_and_nan", "inf_residual", "inf_image", "signed_zeros"],
    )
    def test_nan_and_inf_parts_equal_the_loop(self, b, coeffs):
        sys = periodic_linear()
        assert _outcome(shadowing._relative_residual_sup, sys, coeffs, b) == (
            _outcome(_loop_relative_residual_sup, sys, coeffs, b)
        )

    @settings(max_examples=50, deadline=None)
    @given(b=st.lists(st.floats(-1e3, 1e3).map(complex), min_size=1, max_size=30), slope=st.floats(1.5, 4.0))
    def test_nonlinear_equals_the_loop(self, b, slope):
        sys = affine_sinusoid(slope)
        assert _outcome(shadowing._relative_residual_sup, sys, None, b) == (
            _outcome(_loop_relative_residual_sup, sys, None, b)
        )


#: hand-built periodic systems with every coefficient kind, past the factories' checks
linear_systems = st.lists(coefficient_values, min_size=1, max_size=4).map(
    lambda cs: MapSystem(Family.PERIODIC_LINEAR, tuple(cs))
) | st.builds(power_two_parity, st.integers(1, 3), st.integers(-4, 4))


class TestConstructions:
    @settings(max_examples=150, deadline=None)
    @given(
        sys=linear_systems,
        a1=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        eps=st.floats(0, 1e-2),
        policy=policies,
        horizon=horizons,
        scale=st.sampled_from([None, 2.0, 1j, -0.5]),
        K=st.floats(1.01, 8.0),
    )
    def test_linear_constructions_equal_the_loops(self, sys, a1, eps, policy, horizon, scale, K):
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        if scale is not None:  # an orbit generation does not reproduce
            pseudo = PseudoOrbit(tuple(scale * z for z in pseudo.a), pseudo.r, eps, pseudo.horizon, policy)
        for new, loop in ((shadow_contracting, _loop_shadow_contracting), (shadow_expanding, _loop_shadow_expanding)):
            assert _outcome(new, sys, pseudo, K) == _outcome(loop, sys, pseudo, K), new.__name__

    @settings(max_examples=20, deadline=None)
    @given(
        slope=st.floats(1.5, 4.0),
        a1=st.floats(-2.0, 2.0),
        eps=st.floats(0, 1e-2),
        policy=policies,
        horizon=st.integers(1, 60),
    )
    def test_nonlinear_expanding_equals_the_loop(self, slope, a1, eps, policy, horizon):
        sys = affine_sinusoid(slope)
        pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
        assert _outcome(shadow_expanding, sys, pseudo, slope - 0.25) == (
            _outcome(_loop_shadow_expanding, sys, pseudo, slope - 0.25)
        )

    @pytest.mark.parametrize("sys, K", [(periodic_linear(), 1.2247), (power_two_parity(), 2.0)])
    def test_benchmark_horizon(self, sys, K):
        pseudo = generate_pseudo_orbit(sys, 1.0, 1e-3, ResidualPolicy(), 10**4)
        for new, loop in ((shadow_contracting, _loop_shadow_contracting), (shadow_expanding, _loop_shadow_expanding)):
            assert _outcome(new, sys, pseudo, K) == _outcome(loop, sys, pseudo, K), new.__name__


class TestLowerBound:
    @settings(max_examples=300)
    @given(
        K_p=st.floats(1.0, 1e6),
        ratio=st.floats(1.0, 1e6, exclude_min=True),
        p_idx=st.integers(1, 6),
        q_idx=st.integers(1, 6),
        m=st.integers(0, 6),
        C_p=st.one_of(st.floats(-1.0, 1e6), st.floats(1e-300, 1e-200)),
        k=st.integers(-2, 10**6),
    )
    def test_values_and_refusals_equal_the_expression(self, K_p, ratio, p_idx, q_idx, m, C_p, k):
        args = (K_p, K_p * ratio, p_idx, q_idx, m, C_p, k)
        assert _outcome(divergence_lower_bound_log10, *args) == _outcome(_loop_lower_bound_log10, *args)

    @settings(max_examples=300, deadline=None)
    @given(
        K_p=st.floats(0.5, 1e6),
        ratio=st.floats(1.05, 1e6),
        p_idx=st.integers(1, 6),
        q_idx=st.integers(1, 6),
        m=st.integers(1, 6),
        C_p=st.one_of(st.floats(1e-6, 1e6), st.floats(1e-300, 1e-200)),
    )
    @example(K_p=2.0, ratio=2.0, p_idx=1, q_idx=2, m=2, C_p=4.0)  # the parity family's fit
    def test_default_horizon_equals_the_walk(self, K_p, ratio, p_idx, q_idx, m, C_p):
        args = (K_p, K_p * ratio, p_idx, q_idx, m, C_p)
        assert _outcome(instability.default_witness_horizon, *args) == _outcome(
            _loop_default_witness_horizon, *args
        )

    def test_witness_bounds_equal_the_expression(self, monkeypatch):
        calls = []
        original = instability._lower_bound_log10
        monkeypatch.setattr(
            instability, "_lower_bound_log10", lambda *args: calls.append(args) or original(*args)
        )
        w = witness_divergence(power_two_parity(), 1e-3, 1200, parity_classification())
        # the logs are read once for the call, not once per sample
        assert len(calls) == 1 and len(w.samples) > 500
        for s in w.samples:
            want = _loop_lower_bound_log10(w.K_p, w.K_q, w.p_idx, w.q_idx, w.m, w.C_p, s.k)
            assert s.log10_lower_bound.hex() == want.hex()


#: tables whose every law is one constant: values of every kind, cycles of 1 to 5
constant_laws = st.lists(
    st.one_of(
        st.integers(-9, 9).filter(bool),
        st.integers(10**300, 10**320),
        st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
        coefficient_values.filter(lambda c: c != 0),
    ),
    min_size=1,
    max_size=5,
).map(lambda cs: MapSystem(Family.PERIODIC_LINEAR, tuple(cs)))


class TestTiledTables:
    @settings(max_examples=150, deadline=None)
    @given(sys=constant_laws, start=st.integers(1, 12), count=st.integers(0, 40))
    @example(sys=periodic_linear((2, Fraction(1, 3), 0.75)), start=2, count=10)
    def test_tiled_reads_equal_the_whole_table(self, sys, start, count):
        ns = range(start, start + count)
        table = sys._float_table(ns)
        assert [_bits(sys.coefficient(n)) for n in ns] == [_bits(c) for c in table.tolist()]
        coefficients, rates = (whole[start - 1:] for whole in sys.tables(start + count - 1))
        assert [_bits(c) for c in coefficients] == [_bits(c) for c in table.tolist()]
        assert [_bits(p) for p in rates] == [_bits(p) for p in _moduli(table)]
        if start == 1:
            assert [_bits(p) for p in sys.rates(count)] == [_bits(p) for p in rates]

    def test_rates_make_no_coefficient_list(self, monkeypatch):
        tables, moduli, lists = [], [], []

        class Table(np.ndarray):
            def tolist(self):
                lists.append(self.dtype.kind)  # "c" for a list of coefficients
                return super().tolist()

        def float_table(self, ns):
            tables.append(table := original(self, ns).view(Table))
            return table

        original, read_moduli = MapSystem._float_table, systems._moduli
        monkeypatch.setattr(MapSystem, "_float_table", float_table)
        monkeypatch.setattr(systems, "_moduli", lambda table: moduli.append(table) or read_moduli(table))
        floats = periodic_linear((0.75, 2.5))  # its log rates read the float table
        reads = [(sys, name) for sys in (periodic_linear(), power_two_parity(), floats)
                 for name in ("rates", "growth_rate")] + [(floats, "log_rates")]
        for sys, name in reads:
            del tables[:], moduli[:], lists[:]
            getattr(sys, name)(50)
            # one table, read by _moduli alone: the only list made is the rates'
            assert len(tables) == 1 and len(moduli) == 1 and moduli[0] is tables[0], name
            assert lists == ["f"], name
            assert sys.rates(50) == sys.tables(50)[1]


# -- the cycle rule -------------------------------------------------------------

#: constants of modulus 1e-3 to 0.9: rational, float, negative and complex
contracting_constants = st.one_of(
    st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=40).filter(
        lambda x: abs(x) >= Fraction(1, 1000)
    ),
    st.floats(-0.9, 0.9).filter(lambda x: abs(x) >= 1e-3),
    st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)).filter(lambda z: abs(z) >= 1e-3),
)
signed_zeros = st.sampled_from([0.0, -0.0])
#: start points with zero parts of both signs among them
cycle_starts = st.one_of(
    st.builds(complex, signed_zeros, signed_zeros),
    st.builds(complex, st.floats(-10.0, 10.0), signed_zeros),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
constant_policies = st.builds(
    ResidualPolicy,
    st.sampled_from([k for k in PolicyKind if k is not PolicyKind.LOW_DISCREPANCY_PHASE]),
    st.floats(-7.0, 7.0),
)


@contextmanager
def _tiling_spy():
    """The number of entries each repeat of the cycle rule adds, in order of
    the repeats, while the block is open; ``shadowing`` reads its own name."""
    added = []
    original = systems._repeat_tail

    def spy(values, period, total):
        added.append(total - len(values))
        original(values, period, total)

    with mock.patch.object(systems, "_repeat_tail", spy), mock.patch.object(shadowing, "_repeat_tail", spy):
        yield added


def _rule_sweeps(sys, a1, eps, policy, horizon, K):
    """(new, reference) outcomes of the three sweeps the cycle rule may tile."""
    rates = sys.rates(horizon)
    pseudo = generate_pseudo_orbit(sys, a1, eps, policy, horizon)
    return [
        (_deep_bits(pseudo), _outcome(_loop_pseudo_orbit, sys, a1, eps, policy, horizon, None)),
        (
            _outcome(shadow_contracting, sys, pseudo, K),
            _outcome(_per_call_shadow_contracting, sys, pseudo, K),
        ),
        (
            _outcome(shadowing._accumulated_rate_bounds, rates, horizon, eps, 0.0, sys._period()),
            _outcome(lambda: list(_per_call_accumulated_rate_bounds(rates, horizon, eps, 0.0))),
        ),
    ]


class TestCycleRule:
    def test_tiled_sweeps_equal_the_per_step_references(self):
        fired, extended = [], []

        @settings(max_examples=60, deadline=None, database=None)
        @given(
            coeffs=st.lists(contracting_constants, min_size=1, max_size=4),
            a1=cycle_starts,
            eps=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
            policy=constant_policies,
            horizon=st.integers(BLOCK + 1, 5000),
            K=st.floats(1.01, 8.0),
        )
        def check(coeffs, a1, eps, policy, horizon, K):
            with _tiling_spy() as added:
                for new, reference in _rule_sweeps(periodic_linear(coeffs), a1, eps, policy, horizon, K):
                    assert new == reference
            fired.append(bool(added))
            extended.append(any(added))  # at H = BLOCK + 1 the rule fires at the end

        check()
        # the tiled path is the one under test: a sweep closed its cycle in most
        # examples, and in many it repeated it in place of steps
        assert sum(fired) > len(fired) / 2, fired
        assert sum(extended) > len(extended) / 4, extended

    @pytest.mark.parametrize("kind", [PolicyKind.ZERO, PolicyKind.CONSTANT_REAL])
    def test_zeros_of_alternating_signs_are_stepped(self, kind):
        # b <- -b/2 from 0 runs (+0, +0), (-0, +0), (+0, -0): equal by ==, but a
        # cycle of 3 steps, not of the law's 1
        sys = periodic_linear((Fraction(-1, 2),))
        result = shadow_contracting(sys, generate_pseudo_orbit(sys, 0.0, 0.0, ResidualPolicy(kind), 3000), 2.0)
        assert [_bits(z) for z in result.b[:4]] == [
            _bits(complex(0.0, 0.0)), _bits(complex(-0.0, 0.0)),
            _bits(complex(0.0, -0.0)), _bits(complex(0.0, 0.0)),
        ]
        assert not systems._cycle_closed([0j, complex(-0.0, 0.0)], 1, 0)
        for new, reference in _rule_sweeps(sys, 0.0, 0.0, ResidualPolicy(kind), 3000, 2.0):
            assert new == reference

    def test_a_state_cycle_longer_than_the_period_is_stepped(self):
        # a <- -a + 1e-3 from 0.75 runs -0.749, 0.75, ...: a cycle of 2m, m = 1;
        # b alternates its sign and the sums S_n = n never repeat
        sys = periodic_linear((-1,))
        with _tiling_spy() as added:
            for new, reference in _rule_sweeps(sys, 0.75, 1e-3, ResidualPolicy(), 3000, 2.0):
                assert new == reference
        assert added == []

    def test_a_head_made_by_another_policy_is_not_compared(self):
        # m = BLOCK + 1 constants 1/2: after the first block a_H = 1/2 equals
        # a_1 = 1/2, m steps back, but a_2 = 1/4 was made with a zero residual;
        # repeating from there would be wrong, so the rule waits for two made states
        sys = periodic_linear((0.5,) * (BLOCK + 1))
        head = generate_pseudo_orbit(sys, 0.5, 0.0, ResidualPolicy(PolicyKind.ZERO), 2)
        with _tiling_spy() as added:
            new = systems._pseudo_orbit(sys, None, 0.25, ResidualPolicy(), 3000, None, head)
        assert _deep_bits(new) == _outcome(_loop_pseudo_orbit, sys, None, 0.25, ResidualPolicy(), 3000, None, head)
        assert new.a[1] == 0.25 and new.a[-1] == 0.5
        assert added == [3000 - 2 - 2 * BLOCK] * 2  # a and r, at the second block's end

    def test_a_table_passed_in_keeps_the_full_sweep(self):
        # the system's period is 1, but the table given changes at step 2000
        sys = periodic_linear((0.5,))
        coeffs = [0.5 + 0j] * 2000 + [0.25 + 0j] * 1000
        with _tiling_spy() as added:
            new = systems._pseudo_orbit(sys, 1.0, 0.25, ResidualPolicy(), 3000, coeffs)
        assert _deep_bits(new) == _outcome(_loop_pseudo_orbit, sys, 1.0, 0.25, ResidualPolicy(), 3000, coeffs)
        assert added == []
        assert new.a[1999] == 0.5 and new.a[-1] != 0.5

    def test_a_varying_residual_keeps_the_full_sweep(self):
        # c_n = 1 and |r_n| about half an ulp of the parts: some residuals round
        # away, so a_1024 = a_1025 at the first block's end, and later ones do not
        sys, a1, eps = periodic_linear((1,)), 1 + 1j, 18 * 2.0**-58
        policy = ResidualPolicy(PolicyKind.LOW_DISCREPANCY_PHASE)
        with _tiling_spy() as added:
            new = generate_pseudo_orbit(sys, a1, eps, policy, 3000)
        assert _deep_bits(new) == _outcome(_loop_pseudo_orbit, sys, a1, eps, policy, 3000, None)
        assert added == []
        assert new.a[BLOCK] == new.a[BLOCK - 1] != new.a[-1]

    @pytest.mark.parametrize("gap", [0.0, 0.5])
    def test_the_public_bound_and_a_nonzero_gap_keep_the_full_sweep(self, gap):
        rates = periodic_linear().rates(3000)
        with _tiling_spy() as added:
            public = shadowing.accumulated_rate_bound(rates, 3000, 1e-3, gap)
            sweep = shadowing._accumulated_rate_bounds(rates, 3000, 1e-3, 0.5, 2)
        assert added == []
        assert _bits(public) == _bits(list(_per_call_accumulated_rate_bounds(rates, 3000, 1e-3, gap))[-1])
        assert _deep_bits(sweep) == _outcome(lambda: list(_per_call_accumulated_rate_bounds(rates, 3000, 1e-3, 0.5)))

    def test_the_benchmark_orbit_repeats_from_its_first_block(self):
        # the paper's law (2, 1/3) from a_1 = 1: the orbit repeats from n = 203
        # and the sums from n = 178, so a, r and the bounds are stepped one block;
        # b reaches 0 past n = 3,600 and is stepped four
        sys = periodic_linear()
        with _tiling_spy() as added:
            for new, reference in _rule_sweeps(sys, 1.0, 1e-3, ResidualPolicy(), 10**4, 3.0):
                assert new == reference
        one, four = 10**4 - 1 - BLOCK, 10**4 - 1 - 4 * BLOCK
        assert added == [one, one, four, one, one]  # a, r, b, its bounds, the bounds

    @pytest.mark.parametrize(
        "sys, period",
        [
            (periodic_linear(), 2),
            (periodic_linear((0.5j, Fraction(1, 3), -2.0)), 3),
            (index_scaled_linear(), None),
            (power_two_parity(), None),
            (affine_sinusoid(), None),
        ],
        ids=["periodic", "periodic_mixed", "index_scaled", "parity", "sinusoid"],
    )
    def test_only_a_law_of_constants_has_a_period(self, sys, period):
        assert sys._period() == period
