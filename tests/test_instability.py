"""Divergence witnesses for periodic-below-one systems."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hu_shadow import (
    Classification,
    ClassificationKind,
    DivergenceWitness,
    HypothesisViolation,
    MapSystem,
    PeriodicFit,
    PolicyKind,
    ResidualPolicy,
    WitnessSample,
    accumulated_rate_bound,
    affine_sinusoid,
    classify,
    default_witness_horizon,
    divergence_lower_bound_log10,
    generate_pseudo_orbit,
    periodic_linear,
    power_two_parity,
    profile_of,
    witness_divergence,
)
from hu_shadow.instability import _log10_add
from hu_shadow.systems import OVERFLOW_LIMIT
from test_systems import reference_log_growth_rate  # the per-index rule, verbatim


def parity_classification(horizon=160):
    return classify(profile_of(power_two_parity(), horizon))


class TestLowerBound:
    def test_parity_values(self):
        # K_p = 2, K_q = 4, p = 1, q = 2, m = 2, C_p = 4:
        # bound(k) = 4^k * 4^2 / (4 * 2^3) = 4^k / 2
        for k in range(0, 8):
            val = 10.0 ** divergence_lower_bound_log10(2.0, 4.0, 1, 2, 2, 4.0, k)
            assert val == pytest.approx(4.0**k / 2.0, rel=1e-9)

    def test_log_domain_consistency(self):
        lg = divergence_lower_bound_log10(2.0, 4.0, 1, 2, 2, 4.0, 10)
        assert 10.0**lg == pytest.approx(4.0**10 / 2.0, rel=1e-9)

    @given(k=st.integers(0, 50))
    def test_grows_geometrically(self, k):
        a = divergence_lower_bound_log10(2.0, 4.0, 1, 2, 2, 4.0, k)
        b = divergence_lower_bound_log10(2.0, 4.0, 1, 2, 2, 4.0, k + 1)
        # each period multiplies the bound by (K_q/K_p)^m = 4
        assert b - a == pytest.approx(2 * math.log10(2.0), rel=1e-9)

    def test_requires_distinct_factors(self):
        with pytest.raises(HypothesisViolation):
            divergence_lower_bound_log10(2.0, 2.0, 1, 2, 2, 4.0, 3)
        with pytest.raises(HypothesisViolation):
            divergence_lower_bound_log10(0.5, 2.0, 1, 2, 2, 4.0, 3)


class TestWitness:
    def test_requires_periodic_classification(self):
        stable = classify(profile_of(periodic_linear(), 1000))
        assert stable.kind is ClassificationKind.CONVERGENT_BELOW_ONE
        with pytest.raises(HypothesisViolation, match="no witness"):
            witness_divergence(power_two_parity(), 1e-3, 40, stable)

    def test_structure(self):
        cls = parity_classification()
        w = witness_divergence(power_two_parity(), 1e-3, 40, cls)
        assert w.m == 2
        assert (w.K_p, w.K_q) == (pytest.approx(2.0), pytest.approx(4.0))
        assert w.C_p == pytest.approx(4.0, abs=1e-9)
        assert all(s.n == s.k * w.m + w.p_idx for s in w.samples)

    def test_observed_error_is_epsilon_times_partial_sum(self):
        # with r = eps and b_1 = a_1 the distance after step n is exactly
        # eps * S_n for a linear family
        cls = parity_classification()
        eps = 1e-3
        w = witness_divergence(power_two_parity(), eps, 30, cls)
        rates = power_two_parity().rates(30)
        for s in w.samples:
            expected = eps * accumulated_rate_bound(rates, s.n + 1, 1.0, 0.0)
            assert s.observed_error == pytest.approx(expected, rel=1e-9)

    def test_observed_error_dominates_lower_bound(self):
        cls = parity_classification()
        eps = 1e-3
        w = witness_divergence(power_two_parity(), eps, 40, cls)
        assert w.samples
        for s in w.samples:
            assert s.log10_observed_error >= math.log10(eps) + s.log10_lower_bound - 1e-9

    def test_consecutive_ratio_approaches_four(self):
        cls = parity_classification()
        w = witness_divergence(power_two_parity(), 1e-3, 40, cls)
        by_k = {s.k: s for s in w.samples}
        for k in sorted(by_k):
            if k >= 5 and k + 1 in by_k:
                ratio = 10.0 ** (
                    by_k[k + 1].log10_observed_error - by_k[k].log10_observed_error
                )
                assert ratio == pytest.approx(4.0, rel=0.01)

    def test_log_domain_switch_preserves_growth(self):
        cls = parity_classification(400)
        horizon = default_witness_horizon(2.0, 4.0, 1, 2, 2, 4.0)
        w = witness_divergence(power_two_parity(), 1e-3, max(horizon, 1200), cls)
        overflowed = [s for s in w.samples if s.log_domain]
        assert overflowed, "horizon long enough to leave the float range"
        for s in overflowed:
            assert math.isinf(s.observed_error)
            assert math.isfinite(s.log10_observed_error)
            assert s.log10_observed_error >= math.log10(1e-3) + s.log10_lower_bound - 1e-6

    @settings(max_examples=10, deadline=None)
    @given(eps=st.floats(1e-6, 1e-2))
    def test_scales_linearly_in_epsilon(self, eps):
        cls = parity_classification()
        w = witness_divergence(power_two_parity(), eps, 20, cls)
        w_ref = witness_divergence(power_two_parity(), 1e-3, 20, cls)
        for s, s_ref in zip(w.samples, w_ref.samples):
            assert s.observed_error == pytest.approx(
                s_ref.observed_error * eps / 1e-3, rel=1e-9
            )


def _per_call_witness_divergence(sys, eps, horizon, cls):
    """The witness loop with a call per step, kept verbatim as the reference
    (ln p_n from the per-index rule that the log-rate table replaced)."""
    if cls.kind is not ClassificationKind.PERIODIC_BELOW_ONE or cls.periodic is None:
        raise HypothesisViolation(
            f"classification is {cls.kind.value}, no witness"
        )
    fit = cls.periodic
    ks = fit.rate_factors
    p_pos = min(range(len(ks)), key=lambda i: ks[i])
    q_pos = max(range(len(ks)), key=lambda i: ks[i])
    K_p, K_q = ks[p_pos], ks[q_pos]
    if not K_q > K_p:
        raise HypothesisViolation("rate factors are all equal; no witness")
    p_idx, q_idx = p_pos + 1, q_pos + 1
    C_p = fit.constants[p_pos]
    m = fit.m
    if horizon is None:
        horizon = default_witness_horizon(K_p, K_q, p_idx, q_idx, m, C_p)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")

    policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    pseudo = generate_pseudo_orbit(sys, 1.0, eps, policy, horizon + 1)
    coeffs, rates = sys.tables(horizon)

    samples = []
    log10_eps = math.log10(eps) if eps > 0 else -math.inf
    d = 0j
    log10_d = -math.inf
    d_overflowed = False
    T = 0.0
    log10_T = -math.inf
    T_overflowed = False
    log10_limit = math.log10(OVERFLOW_LIMIT)
    for n in range(1, horizon + 1):
        p_n = rates[n - 1]
        lp10 = reference_log_growth_rate(sys, n) / math.log(10.0)
        if not T_overflowed and T > 0.0 and (
            not math.isfinite(p_n) or math.log10(T) + lp10 > log10_limit
        ):
            T_overflowed = True
            log10_T = math.log10(T)
        if T_overflowed:
            log10_T = _log10_add(log10_T + lp10, 0.0)
        else:
            T = T * p_n + 1.0
        ad = abs(d)
        if not d_overflowed and ad > 0.0 and (
            not math.isfinite(p_n)
            or n > pseudo.horizon - 1
            or math.log10(ad) + lp10 > log10_limit
        ):
            d_overflowed = True
            log10_d = math.log10(ad)
        if d_overflowed:
            log10_d = _log10_add(log10_d + lp10, log10_eps)
        elif n <= pseudo.horizon - 1:
            if coeffs is None:
                q = sys.eval_q(n, pseudo.value(n) + d, pseudo.value(n))
            else:
                q = coeffs[n - 1]
            d = q * d - pseudo.residual(n)
        if n % m == p_idx % m and n > fit.prefix:
            k = (n - p_idx) // m
            if k < 1:
                continue
            lb_log10 = divergence_lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p, k)
            obs_log10 = log10_d if d_overflowed else (
                math.log10(abs(d)) if abs(d) > 0 else -math.inf
            )
            samples.append(
                WitnessSample(
                    k=k,
                    n=n,
                    lower_bound=10.0**lb_log10 if lb_log10 < 300 else math.inf,
                    S_n=T if not T_overflowed else math.inf,
                    observed_error=abs(d) if not d_overflowed else math.inf,
                    log10_lower_bound=lb_log10,
                    log10_S_n=math.log10(T) if not T_overflowed else log10_T,
                    log10_observed_error=obs_log10,
                    log_domain=d_overflowed,
                )
            )
    return DivergenceWitness(
        m=m,
        prefix=fit.prefix,
        p_idx=p_idx,
        q_idx=q_idx,
        K_p=K_p,
        K_q=K_q,
        C_p=C_p,
        epsilon=eps,
        horizon=horizon,
        samples=tuple(samples),
        pseudo=pseudo,
    )


def _witness_bits(w) -> tuple:
    """Every field, floats by their bits (NaN and the sign of zero included)."""
    def bits(x):
        return x.hex() if isinstance(x, float) else x

    samples = tuple(tuple(bits(getattr(s, f)) for f in s.__dataclass_fields__) for s in w.samples)
    head = tuple(bits(getattr(w, f)) for f in w.__dataclass_fields__ if f not in ("samples", "pseudo"))
    return head, samples, w.pseudo


def _witness_outcome(build, *args):
    try:
        return _witness_bits(build(*args))
    except Exception as exc:
        return type(exc), str(exc)


class TestLeanWitnessLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.one_of(
            st.integers(2, 5),
            st.floats(1.5, 5.0),
            st.fractions(min_value=Fraction(3, 2), max_value=5, max_denominator=7),
        ),
        even_shift=st.integers(-6, 8),
        eps=st.one_of(st.just(0.0), st.floats(0, 1e-2)),
        horizon=st.one_of(st.integers(1, 80), st.integers(600, 1300)),
    )
    def test_bit_identical_to_per_call_loop(self, base, even_shift, eps, horizon):
        sys = power_two_parity(base, even_shift)
        cls = classify(profile_of(sys, 160))
        assert _witness_outcome(witness_divergence, sys, eps, horizon, cls) == (
            _witness_outcome(_per_call_witness_divergence, sys, eps, horizon, cls)
        )

    @pytest.mark.parametrize("horizon", [1000, 1200, None])
    def test_benchmark_setting_past_the_float_range(self, horizon):
        sys = power_two_parity()
        cls = parity_classification(400)
        new = witness_divergence(sys, 1e-3, horizon, cls)
        assert any(s.log_domain for s in new.samples) == (horizon == 1200)
        assert _witness_bits(new) == _witness_bits(
            _per_call_witness_divergence(sys, 1e-3, horizon, cls)
        )

    @pytest.mark.parametrize("horizon", [1, 2, 3, 40, 1030])
    @pytest.mark.parametrize(
        "m, rate_factors, constants",
        [
            (2, (0.5, 4.0), (4.0, 1.0)),  # K_p < 1
            (2, (2.0, 4.0), (-1.0, 1.0)),  # C_p < 0
            (2, (2.0, 4.0), (0.0, 1.0)),
            (2, (2.0, 4.0), (math.nan, 1.0)),
            (2, (2.0, 4.0), (math.inf, 1.0)),
            (1, (2.0, 4.0), (4.0, 1.0)),  # m < 2
            (3, (2.0, 4.0, 3.0), (4.0, 1.0, 2.0)),
        ],
        ids=["K_p_below_one", "C_p_negative", "C_p_zero", "C_p_nan", "C_p_inf", "m_one", "m_three"],
    )
    def test_lower_bound_checks_raise_at_the_first_sample(self, m, rate_factors, constants, horizon):
        fit = PeriodicFit(m=m, prefix=0, rate_factors=rate_factors, constants=constants, max_residual=0.0)
        cls = Classification(kind=ClassificationKind.PERIODIC_BELOW_ONE, periodic=fit)
        sys = power_two_parity()
        assert _witness_outcome(witness_divergence, sys, 1e-3, horizon, cls) == (
            _witness_outcome(_per_call_witness_divergence, sys, 1e-3, horizon, cls)
        )

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    @pytest.mark.parametrize("horizon", [2.5, -3, 40])
    def test_orbit_checks_come_before_the_table(self, eps, horizon):
        # a non-integer horizon fails in the table; a bad epsilon must be named first
        cls = parity_classification()
        outcome = _witness_outcome(witness_divergence, power_two_parity(), eps, horizon, cls)
        assert outcome == _witness_outcome(_per_call_witness_divergence, power_two_parity(), eps, horizon, cls)
        assert outcome[0] is ValueError

    @pytest.mark.parametrize("horizon", [2, 40, 628, 629, 700, None])
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-3, -1e-3, -math.inf])
    def test_nonlinear_family_is_refused_before_any_table(self, eps, horizon, monkeypatch):
        # its p_n only bound its quotients from below: past the orbit's truncation
        # (n = 629 from 1.0) a distance carried by them would not be observed
        fit = PeriodicFit(m=2, prefix=0, rate_factors=(2.0, 4.0), constants=(4.0, 1.0), max_residual=0.0)
        cls = Classification(kind=ClassificationKind.PERIODIC_BELOW_ONE, periodic=fit)
        calls = []
        monkeypatch.setattr(MapSystem, "tables", lambda self, *args: calls.append(args))
        monkeypatch.setattr(MapSystem, "eval_q", lambda self, *args: calls.append(args))
        with pytest.raises(
            HypothesisViolation,
            match="^the divergence witness needs a linear family, got affine_sinusoid$",
        ):
            witness_divergence(affine_sinusoid(), eps, horizon, cls)
        assert calls == []

    @pytest.mark.parametrize("sys", [power_two_parity()], ids=["parity"])
    @pytest.mark.parametrize("eps", [-1e-3, -math.inf])
    def test_negative_epsilon_is_refused(self, sys, eps):
        # the orbit layer's check refuses it, with that layer's message
        with pytest.raises(ValueError):
            witness_divergence(sys, eps, 40, parity_classification())

    def test_one_coefficient_table_per_witness(self, monkeypatch):
        cls = parity_classification()
        calls = []
        original = MapSystem._float_table
        monkeypatch.setattr(
            MapSystem, "_float_table", lambda self, ns: calls.append(ns) or original(self, ns)
        )
        witness_divergence(power_two_parity(), 1e-3, 1000, cls)
        assert calls == [range(1, 1001)]
