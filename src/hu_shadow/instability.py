"""Constructive witnesses of stability failure for periodic averaged rates.

When the scaled rate products are (pre)periodic with at least two
distinct values, all below one, no uniform shadowing bound exists: along
the resonant subsequence n = k*m + p (p the residue class realizing the
largest value) the accumulated perturbation sum S_n grows like
(K_q/K_p)^(k*m), so the distance between the constant-residual
pseudo-orbit and *any* true orbit is unbounded.

The witness generates that pseudo-orbit (r_n = epsilon for every n),
propagates the true orbit from b_1 = a_1, and records at every resonant
index the analytic lower bound, the partial sum S_n, and the distance
observed immediately after the resonant step is applied (the expanding
step at n is what makes |b_{n+1} - a_{n+1}| large).  Values beyond the
floating-point range are carried in the log domain.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import HypothesisViolation
from .growth import Classification, ClassificationKind, PeriodicFit
# perfbench/tracer.py wraps generate_pseudo_orbit here, so the import stays though unused.
from .systems import MapSystem, PolicyKind, PseudoOrbit, ResidualPolicy, generate_pseudo_orbit
from .systems import MAX_HORIZON, OVERFLOW_LIMIT, _check_orbit_request, _pseudo_orbit

#: log10 of the orbit layer's margin; a value past it is carried as its log10 only.
LOG10_LIMIT = math.log10(OVERFLOW_LIMIT)


def _log10_add(x: float, y: float) -> float:
    """log10(10^x + 10^y) without leaving the log domain; x is finite."""
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + math.log10(1.0 + 10.0 ** (lo - hi))


def divergence_lower_bound_log10(
    K_p: float,
    K_q: float,
    p_idx: int,
    q_idx: int,
    m: int,
    C_p: float,
    k: int,
) -> float:
    """log10 of (K_q/K_p)^(k*m) * K_q^q / (C_p * K_p^(p+m)).

    Lower bound for the partial sum S_n at n = k*m + p, evaluated in the
    log domain, so it stays finite where the bound itself is past the
    float range.  Raises ``ValueError`` for a NaN or infinite K_p, K_q or
    C_p, then :class:`HypothesisViolation` unless K_q > K_p >= 1, and
    ``ValueError`` for m < 2, k < 0 or C_p <= 0.
    """
    bound = _lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p)
    if k < 0:
        raise ValueError("need m >= 2, k >= 0, C_p > 0")
    return bound(k)


def _lower_bound_log10(
    K_p: float, K_q: float, p_idx: int, q_idx: int, m: int, C_p: float
) -> Callable[[int], float]:
    """:func:`divergence_lower_bound_log10` as a function of k >= 0, after
    its checks of the other arguments: each log is read once, and every
    value keeps the association of the one expression, bit for bit."""
    if not (math.isfinite(K_p) and math.isfinite(K_q) and math.isfinite(C_p)):
        raise ValueError(f"need finite K_p, K_q and C_p, got {K_p}, {K_q} and {C_p}")
    if not K_q > K_p >= 1.0:
        raise HypothesisViolation(
            f"no divergence witness: need K_q > K_p >= 1, got K_p={K_p}, K_q={K_q}"
        )
    if m < 2 or C_p <= 0:
        raise ValueError("need m >= 2, k >= 0, C_p > 0")
    ln_p, ln_q, ln_c = math.log(K_p), math.log(K_q), math.log(C_p)
    rise, head, tail = ln_q - ln_p, q_idx * ln_q, (p_idx + m) * ln_p
    ln10 = math.log(10.0)
    # k*m*(ln K_q - ln K_p) + q*ln K_q - ln C_p - (p + m)*ln K_p, left to right
    return lambda k: (k * m * rise + head - ln_c - tail) / ln10


class WitnessSample(NamedTuple):
    """One resonant step of the witness; a row of ``witness.csv``, in field order."""
    k: int
    n: int  # resonant index k*m + p
    lower_bound: float  # analytic lower bound for S_n (may be inf)
    S_n: float  # accumulated perturbation sum (may be inf)
    observed_error: float  # |b_{n+1} - a_{n+1}| after the resonant step
    log10_lower_bound: float
    log10_S_n: float
    log10_observed_error: float
    log_domain: bool  # observed value exceeded the float range


@dataclass(frozen=True)
class DivergenceWitness:
    m: int
    prefix: int
    p_idx: int
    q_idx: int
    K_p: float
    K_q: float
    C_p: float
    epsilon: float
    horizon: int
    samples: tuple
    pseudo: PseudoOrbit


def default_witness_horizon(
    K_p: float, K_q: float, p_idx: int, q_idx: int, m: int, C_p: float
) -> int:
    """Largest resonant index whose lower bound stays below ``OVERFLOW_LIMIT``:
    k*m + p_idx + 1 for the k before the first k >= 1 whose bound reaches it.

    The bound is non-decreasing in k (a product by ln K_q - ln K_p >= 0, then
    monotone adds and a division), so that k is found by bisection over
    1..2**53.  :class:`HypothesisViolation` where none of them reaches it.
    """
    bound = _lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p)
    k = bisect_left(range(1, 2**53 + 1), True, key=lambda j: bound(j) >= LOG10_LIMIT)
    if k == 2**53:  # a rise that rounds to 0.0, say
        raise HypothesisViolation(
            f"no witness horizon: the lower bound stays below {OVERFLOW_LIMIT:g} up to k = 2**53"
        )
    return k * m + p_idx + 1


def witness_divergence(
    sys: MapSystem,
    eps: float,
    horizon: Optional[int],
    cls: Classification,
) -> DivergenceWitness:
    """Build the constant-residual divergence witness for ``sys``.

    ``cls`` must be a periodic-below-one classification with at least
    two distinct rate factors.  Among the residue classes, the witness
    pairs the class of the largest value (smallest K_l) with the class
    maximizing K_q/K_p, which gives the fastest-growing lower bound.
    A nonlinear system raises :class:`HypothesisViolation` before any
    table: its p_n only bound its quotients from below.  So does a default
    horizon (``horizon=None``) above ``MAX_HORIZON``.
    """
    if cls.kind is not ClassificationKind.PERIODIC_BELOW_ONE or cls.periodic is None:
        raise HypothesisViolation(
            f"classification is {cls.kind.value}, no witness"
        )
    fit: PeriodicFit = cls.periodic
    ks = fit.rate_factors
    p_pos = min(range(len(ks)), key=lambda i: ks[i])
    q_pos = max(range(len(ks)), key=lambda i: ks[i])
    K_p, K_q = ks[p_pos], ks[q_pos]
    if not K_q > K_p:
        raise HypothesisViolation("rate factors are all equal; no witness")
    sys.require_linear("the divergence witness")
    p_idx, q_idx = p_pos + 1, q_pos + 1
    C_p = fit.constants[p_pos]
    m = fit.m
    if horizon is None:
        horizon = default_witness_horizon(K_p, K_q, p_idx, q_idx, m, C_p)
        if horizon > MAX_HORIZON:
            raise HypothesisViolation(
                f"default witness horizon {horizon} is above {MAX_HORIZON}; give a horizon"
            )

    # the orbit steps through the table the loop reads, c_1 .. c_horizon; its
    # checks come first, so a bad epsilon is named where the table would fail
    policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    _check_orbit_request(eps, horizon + 1)
    coeffs, rates = sys.tables(horizon)
    pseudo = _pseudo_orbit(sys, 1.0, eps, policy, horizon + 1, coeffs)

    samples = []
    # propagate d_{n+1} = q_n d_n - r_n (b_1 = a_1) and the partial sum
    # T_n = T_{n-1} p_n + 1.  Once a value would exceed the float range
    # it is carried as its log10 (log10_T, log10_d; None while in range);
    # the recurrences become log-domain adds (the +1 and +eps terms stay
    # significant after contracting steps, so they cannot be dropped).
    # The log-domain distance update is exact for positive real
    # coefficients with constant-real residuals, the case every built-in
    # periodic-below-one family falls into.  log10_eps is -inf only at
    # eps = 0, where d stays 0 and never leaves the float range.
    log10_eps = math.log10(eps) if eps > 0 else -math.inf
    r_n = policy.residual(1, eps)  # the residual generation writes into every r_n
    d = 0j
    log10_d = None
    T = 0.0
    log10_T = None
    ln10 = math.log(10.0)
    log10, isfinite = math.log10, math.isfinite
    steps = len(pseudo.r)  # the pseudo-orbit's last step index
    resonant = p_idx % m
    bound = None  # the lower bound in k, checked at the first sample, as each sample's call was
    for n, c, p_n, log_p in zip(range(1, horizon + 1), coeffs, rates, sys.log_rates(horizon)):
        lp10 = log_p / ln10
        if log10_T is None and T > 0.0 and (
            not isfinite(p_n) or log10(T) + lp10 > LOG10_LIMIT
        ):
            log10_T = log10(T)
        if log10_T is not None:
            log10_T = _log10_add(log10_T + lp10, 0.0)
        else:
            T = T * p_n + 1.0
        ad = abs(d)
        if log10_d is None and ad > 0.0 and (
            not isfinite(p_n) or n > steps or log10(ad) + lp10 > LOG10_LIMIT
        ):
            log10_d = log10(ad)
        if log10_d is not None:
            log10_d = _log10_add(log10_d + lp10, log10_eps)
        elif n <= steps:
            # c_n is finite here: the pseudo-orbit stops at the first that is not
            d = c * d - r_n
        if n % m == resonant and n > fit.prefix:
            k = (n - p_idx) // m
            if k < 1:
                continue
            if bound is None:
                bound = _lower_bound_log10(K_p, K_q, p_idx, q_idx, m, C_p)
            lb_log10 = bound(k)
            ad = abs(d)
            obs_log10 = log10_d if log10_d is not None else (log10(ad) if ad > 0 else -math.inf)
            samples.append(
                WitnessSample(
                    k=k,
                    n=n,
                    lower_bound=10.0**lb_log10 if lb_log10 < LOG10_LIMIT else math.inf,
                    S_n=T if log10_T is None else math.inf,
                    observed_error=ad if log10_d is None else math.inf,
                    log10_lower_bound=lb_log10,
                    log10_S_n=log10(T) if log10_T is None else log10_T,
                    log10_observed_error=obs_log10,
                    log_domain=log10_d is not None,
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
