"""Construction of true orbits shadowing a pseudo-orbit, with error bounds.

Two constructions are provided:

* ``shadow_contracting`` -- for systems whose averaged rates converge to
  1/K < 1: the true orbit starts at b_1 = a_1 and is propagated forward;
  the asymptotic error bound is K*eps/(K-1).
* ``shadow_expanding`` -- for systems whose averaged rates converge to
  K > 1: the differences d_n = b_n - a_n are evaluated directly from the
  truncated tail series d_n = sum_{j>=n} r_j prod_{i=n..j} 1/q_i
  (equivalently the backward recurrence d_n = (r_n + d_{n+1})/q_n) and
  the orbit is recomposed as b = a + d.  Forward-propagating b instead
  would amplify rounding by the product of the rates and destroy the
  shadowing numerically.  The reported asymptotic bound is 2*eps/ln K.
  The residuals past the horizon come from stepping the pseudo-orbit on
  (see ``shadow_expanding`` for when it is generated again instead).

Both constructions also evaluate the always-sound finite-horizon bound
``accumulated_rate_bound`` built from the measured rates; the asymptotic
bounds can be exceeded by finite data whenever the partial sums
oscillate above their limiting value.  They report its maximum over
n = 1..horizon, taken in one sweep: ``_accumulated_rate_bounds`` runs
the recurrence of ``accumulated_rate_bound`` once, in one loop over the
rates, and returns the list of its values at every n.  Each value is
produced by the same floating-point operations, in the same order, as a
fresh per-index evaluation, so the maximum is bit-identical to the
per-index one at O(horizon) instead of O(horizon^2) cost.

The per-step loops read the coefficient table of ``MapSystem.tables``
and make no call where the step is a table multiply: a finite rate
|c_n| proves c_n finite, and only the other steps (and the nonlinear
family) go through ``eval_map`` or ``eval_q``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import (
    DegenerateQuotient,
    HypothesisViolation,
    NonContraction,
    RateRangeError,
    TruncatedOrbit,
)
# perfbench/tracer.py wraps generate_pseudo_orbit here, so the import stays though unused.
from .systems import MapSystem, PseudoOrbit, _pseudo_orbit, generate_pseudo_orbit

#: |q| below this is treated as a degenerate quotient.
DEGENERATE_QUOTIENT_LIMIT = 1e-300

#: Extra steps past the horizon the tail series may use before capping.
TAIL_CAP_MARGIN = 200


class ShadowMethod(str, Enum):
    CONTRACTING_DIRECT = "contracting_direct"
    EXPANDING_TAIL_SERIES = "expanding_tail_series"


@dataclass(frozen=True)
class ShadowMeta:
    truncation: int
    iterations: int
    residual_sup: float
    #: Finite-horizon bound from the measured rates (always sound).
    sound_bound: float
    #: True when the tail-series truncation hit its hard cap.
    truncation_capped: bool = False


@dataclass(frozen=True)
class ShadowResult:
    b: tuple
    d: tuple
    bound: float
    method: ShadowMethod
    meta: ShadowMeta

    @property
    def sup_diff(self) -> float:
        return max(abs(x) for x in self.d)

    @property
    def bound_ok(self) -> bool:
        return self.sup_diff <= self.bound * (1.0 + 1e-6)


# -- closed-form bounds ---------------------------------------------------


def uniform_contraction_bound(p: float, n: int, eps: float, gap: float) -> float:
    """p^(n-1)*gap + (1 - p^(n-1))/(1 - p) * eps for a uniform rate p < 1."""
    if not 0.0 < p < 1.0:
        raise HypothesisViolation(f"uniform rate must be in (0,1), got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eps < 0 or gap < 0:
        raise ValueError("eps and gap must be nonnegative")
    pw = p ** (n - 1)
    return pw * gap + (1.0 - pw) / (1.0 - p) * eps


def accumulated_rate_bound(
    rates: Sequence[float], n: int, eps: float, gap: float
) -> float:
    """(prod_{j<n} p_j)*gap + (sum_{j<n} prod_{j<i<n} p_i)*eps.

    The sum is evaluated by the stable recurrence S <- S*p + 1 and the
    product in the log domain, saturating to ``inf`` past exp(700).  This
    bound holds for every true orbit whose start is within ``gap`` of
    the pseudo-orbit's start, with no assumption on the rates beyond
    positivity.  The value is the n-th one of :func:`_accumulated_rate_bounds`,
    so it is bit-identical to what the constructions maximise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(rates) < n - 1:
        raise ValueError(f"need rates p_1..p_{n - 1}, got {len(rates)}")
    return _accumulated_rate_bounds(rates, n, eps, gap)[-1]


def _accumulated_rate_bounds(
    rates: Sequence[float], horizon: int, eps: float, gap: float
) -> list[float]:
    """accumulated_rate_bound(rates, n, eps, gap) for n = 1..horizon.

    One running recurrence: the n-th value extends the (n-1)-th by the
    single rate p_{n-1}, with exactly the arithmetic of a fresh
    evaluation, so every value (and hence the built-in ``max`` over them,
    NaN from 0*inf included) is bit-identical at O(horizon) total cost.
    ``math.log`` and ``math.exp`` are kept: numpy's are not bit-equal.  A
    zero gap skips the exp: below 700, exp(log_prod) * gap is 0.0 * gap.
    A rate that is not positive (NaN included) raises
    :class:`RateRangeError`; ``inf`` is allowed.
    """
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
        out.append(((exp(log_prod) if gap else 0.0) if log_prod < 700 else inf) * gap + S * eps)
    return out


def perturbation_partial_sum(rates: Sequence[float], n: int) -> float:
    """S_n = sum_{j=1..n} prod_{i=j+1..n} p_i via S <- S*p + 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(rates) < n:
        raise ValueError(f"need rates p_1..p_{n}, got {len(rates)}")
    S = 0.0
    for i in range(1, n + 1):
        S = S * rates[i - 1] + 1.0
    return S


def bounded_factor_expanding_bound(
    m_low: float, M_high: float, K: float, eps: float
) -> float:
    """M*eps/(m*(K-1)): expanding-case bound when the scale factors t_n
    of the rate products stay within [m, M]."""
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    if not 0.0 < m_low <= M_high:
        raise ValueError("need 0 < m_low <= M_high")
    return M_high * eps / (m_low * (K - 1.0))


def early_index_bound(
    rates: Sequence[float], N: int, n_star: int, K: float, eps: float
) -> float:
    """Error bound at an early index N of the expanding construction.

    eps * [ sum_{j=N..n*} prod_{i=N..j} 1/p_i
            + (prod_{i=N..n*} 1/p_i) * 2/ln K ].
    """
    if not 1 <= N < n_star:
        raise ValueError(f"need 1 <= N < n_star, got N={N}, n_star={n_star}")
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    if len(rates) < n_star:
        raise ValueError(f"need rates p_1..p_{n_star}, got {len(rates)}")
    total = 0.0
    prod_inv = 1.0
    for j in range(N, n_star + 1):
        prod_inv /= rates[j - 1]
        total += prod_inv
    return eps * (total + prod_inv * 2.0 / math.log(K))


# -- telescoping identity -------------------------------------------------


def telescope_difference(
    sys: MapSystem, pseudo: PseudoOrbit, b1: complex, n: int
) -> complex:
    """b_n - a_n via the telescoped products of difference quotients.

    Evaluates (prod_{j<n} q_j)(b_1 - a_1) - sum_{j<n} r_j prod_{j<i<n} q_i
    with q_j = q_j(b_j, a_j), the true orbit b propagated alongside the
    pseudo-orbit.  The result is an identity: it must agree with direct
    propagation of b_n - a_n.  A linear family reads q_j = c_j from its
    coefficient table, and steps as the constructions do (see ``_apply``).
    """
    if not 1 <= n <= pseudo.horizon:
        raise ValueError(f"n must be in 1..{pseudo.horizon}, got {n}")
    b = complex(b1)
    a1 = pseudo.value(1)
    prod_q = 1.0 + 0j
    acc = 0j  # sum_{k<=j} r_k prod_{k<i<=j} q_i
    coeffs = sys.coefficients(n - 1) if sys.is_linear else [None] * (n - 1)
    for j, c in enumerate(coeffs, 1):
        q = c if c is not None and cmath.isfinite(c) else sys.eval_q(j, b, pseudo.value(j))
        prod_q *= q
        acc = acc * q + pseudo.residual(j)
        b = _apply(sys, c, j, b)
    out = prod_q * (complex(b1) - a1) - acc
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(
            f"telescoped products overflow at n={n} for an expanding system"
        )
    return out


# -- contracting construction --------------------------------------------


def shadow_contracting(sys: MapSystem, pseudo: PseudoOrbit, K: float) -> ShadowResult:
    """True orbit from b_1 = a_1 by forward propagation.

    ``K`` > 1 is the reciprocal of the limiting averaged rate.  The
    reported bound K*eps/(K-1) is asymptotic; the measured differences
    are additionally checked against the always-sound finite-horizon
    ``accumulated_rate_bound``, and exceeding *that* by more than 5%
    signals a misclassified system.
    """
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    coeffs, rates = sys.tables(horizon)
    cs, ps = _step_table(coeffs, rates)
    inf = math.inf
    z = pseudo.value(1)
    b = [z]
    for n, c, p in zip(range(1, horizon), cs, ps):
        z = c * z if p < inf else _apply(sys, c, n, z)
        b.append(z)
    d = tuple([x - y for x, y in zip(b, pseudo.a)])
    sup = max([abs(x) for x in d])
    sound = max(_accumulated_rate_bounds(rates, horizon, eps, 0.0))
    if sup > sound * 1.05 + 1e-15:
        raise HypothesisViolation(
            f"measured sup-difference {sup:.3e} exceeds the sound rate bound "
            f"{sound:.3e}; the system is not contracting as classified"
        )
    bound = K * eps / (K - 1.0)
    meta = ShadowMeta(
        truncation=0,
        iterations=1,
        residual_sup=_relative_residual_sup(sys, cs, ps, b),
        sound_bound=sound,
    )
    return ShadowResult(
        b=tuple(b), d=d, bound=bound, method=ShadowMethod.CONTRACTING_DIRECT, meta=meta
    )


# -- expanding construction ----------------------------------------------


@dataclass(frozen=True)
class ShadowOptions:
    tol: float = 1e-12
    max_iter: int = 100
    tail_fraction: float = 1e-3


def shadow_expanding(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    K: float,
    opts: ShadowOptions = ShadowOptions(),
) -> ShadowResult:
    """Differences from the truncated tail series, orbit recomposed.

    ``K`` > 1 is the limiting averaged rate.  The truncation index J is
    the smallest one whose analytic tail estimate (from the measured
    rates) is below ``opts.tail_fraction`` of the asymptotic bound
    2*eps/ln K, capped at horizon + 200.

    The residuals up to J come from stepping the orbit on through the table
    built for the tail estimate: from its last value if ``generate_pseudo_orbit``
    made it from this very ``sys`` object, else (built by hand, by
    ``dataclasses.replace`` or from an equal system) again from a_1.

    For nonlinear families the quotients q_i depend on the still-unknown
    true orbit, so the series is iterated to a fixed point: start from
    b = a, evaluate q_i(b_i, a_i), recompute every d_n, set b = a + d,
    repeat until the sup-change falls below ``opts.tol``.  A q_i is
    evaluated again only where its argument b_i moved.  Contraction
    is measured, not assumed: a sup-change increasing over three
    consecutive iterations aborts with :class:`NonContraction`.

    A rate in the tail estimate that is not positive (NaN included)
    raises :class:`RateRangeError`,
    and an extension orbit that leaves the representable range before the
    pseudo-orbit's horizon raises :class:`TruncatedOrbit`.
    """
    if K <= 1.0:
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    bound = 2.0 * eps / math.log(K)

    # one table serves the tail past the horizon, the quotients and the sound bound
    coeffs, rates = sys.tables(horizon + TAIL_CAP_MARGIN)
    J, capped = _pick_truncation(rates, horizon, eps, bound, opts.tail_fraction, K)
    head = pseudo if pseudo._source is sys else None  # a generated orbit is only stepped on
    ext = _pseudo_orbit(sys, pseudo.value(1), eps, pseudo.policy, max(J + 1, horizon), coeffs, head)
    if ext.horizon < horizon:
        raise TruncatedOrbit(
            f"the extension orbit reaches only n = {ext.horizon} of the "
            f"pseudo-orbit's horizon {horizon}: its next value leaves the representable range"
        )
    J = min(J, ext.horizon - 1)

    n_ext = ext.horizon
    a = ext.a
    r = ext.r[:J]  # r_1 .. r_J: every n <= J has a residual, as J < ext.horizon
    if coeffs is not None:
        _check_linear_quotients(coeffs, rates, J)
        quotients = coeffs[J - 1 :: -1] if J else []  # q_J .. q_1
    else:  # q_n = q_n(a_n + d_n, a_n), kept with the argument it was made at
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
        # d_{J+1} = 0; backward recurrence d_n = (r_n + d_{n+1}) / q_n
        backward = []  # d_J .. d_1
        nxt = 0j
        for r_n, q in zip(reversed(r), quotients):
            nxt = (r_n + nxt) / q
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
            raise NonContraction(
                f"no fixed point within {opts.max_iter} iterations"
            )
    b = tuple([x + y for x, y in zip(a[:horizon], d)])
    d_out = tuple(d[:horizon])
    sound = max(_accumulated_rate_bounds(rates, horizon, eps, abs(d[0])))
    cs, ps = _step_table(coeffs, rates)
    meta = ShadowMeta(
        truncation=J,
        iterations=iterations,
        residual_sup=_relative_residual_sup(sys, cs, ps, b),
        sound_bound=sound,
        truncation_capped=capped,
    )
    return ShadowResult(
        b=b, d=d_out, bound=bound, method=ShadowMethod.EXPANDING_TAIL_SERIES, meta=meta
    )


def _check_linear_quotients(coeffs: list, rates: Sequence[float], J: int) -> None:
    """The degenerate-quotient check of q_J .. q_1 = c_J .. c_1, in that order.

    Every such c_n is finite (the extension orbit stops at the first that
    is not), so its rate is |c_n| by C ``hypot``, or ``inf`` exactly where
    ``abs(c_n)`` overflows.  When every rate lies in [limit, inf) no check
    can fail; otherwise the scan meets the first failure, a
    :class:`DegenerateQuotient` or ``abs``'s OverflowError, where the
    recurrence would.
    """
    head = rates[:J]
    if not head or (min(head) >= DEGENERATE_QUOTIENT_LIMIT and max(head) < math.inf):
        return
    for n in range(J, 0, -1):
        if abs(coeffs[n - 1]) < DEGENERATE_QUOTIENT_LIMIT:
            raise DegenerateQuotient(f"|q_{n}| ~ 0; error dynamics singular")


def _update_nonlinear_quotients(
    sys: MapSystem, a: Sequence[complex], d: Sequence[complex], quotients: list, points: list
) -> None:
    """q_J .. q_1 brought up to date with d: ``quotients[J - n]`` holds q_n and
    ``points[J - n]`` the a_n + d_n it was made at.  Only a q_n whose argument
    moved is made again, in the order J .. 1, and checked as it is made."""
    eval_q = sys.eval_q
    J = len(quotients)
    for i, n in enumerate(range(J, 0, -1)):
        v = a[n - 1]
        u = v + d[n - 1]
        if u != points[i]:
            q = eval_q(n, u, v)
            if abs(q) < DEGENERATE_QUOTIENT_LIMIT:
                raise DegenerateQuotient(f"|q_{n}| ~ 0; error dynamics singular")
            quotients[i] = q
            points[i] = u


def _pick_truncation(
    rates: Sequence[float],
    horizon: int,
    eps: float,
    bound: float,
    tail_fraction: float,
    K: float,
) -> tuple[int, bool]:
    """Smallest J with the measured-rate tail estimate under the target.

    The tail of the series for d_horizon beyond J is bounded by
    eps * sum_{j>J} prod_{i=horizon..j} 1/p_i; the unmeasured remainder
    past the cap is closed geometrically with ratio 1/K.  ``rates`` holds
    p_1 .. p_cap; one among those read that is not positive (NaN
    included) raises :class:`RateRangeError`.
    """
    cap = horizon + TAIL_CAP_MARGIN
    if eps == 0.0:
        return horizon, False
    target = tail_fraction * bound if bound > 0 else 0.0
    log_c = 0.0  # log of prod_{i=horizon..j} 1/p_i
    tail_terms = []  # c_j for j = horizon..cap
    for n, p in enumerate(rates[horizon - 1 : cap], horizon):
        if not p > 0:
            raise RateRangeError(f"growth rate must be positive: p_n = {p!r} at n = {n}")
        log_c -= math.log(p)
        tail_terms.append(math.exp(log_c))
    remainder = tail_terms[-1] / (K - 1.0)
    # suffix[i] = sum of terms past index i, plus the geometric remainder
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


def _relative_residual_sup(
    sys: MapSystem, cs: list, ps: list, b: Sequence[complex]
) -> float:
    """sup_n |b_{n+1} - F(n, b_n)| / max(1, |b_n|), from ``_step_table`` rows."""
    inf = math.inf
    worst = 0.0
    for n, c, p, z, nxt in zip(range(1, len(b)), cs, ps, b, b[1:]):
        res = abs(nxt - (c * z if p < inf else _apply(sys, c, n, z)))
        m = abs(z)
        x = res / (m if m > 1.0 else 1.0)  # max(1.0, m), NaN included
        if x > worst:  # max(worst, x), NaN included
            worst = x
    return worst


def _step_table(coeffs: Optional[list], rates: list) -> tuple[list, list]:
    """Rows (c_n, p_n) for the step ``c * z if p < inf else _apply(...)``.

    A finite rate |c_n| proves c_n finite, so those steps are a plain
    multiply.  The nonlinear family has no table: its rows are
    (None, inf), and every step goes through ``eval_map``.
    """
    if coeffs is None:
        return [None] * len(rates), [math.inf] * len(rates)
    return coeffs, rates


def _apply(sys: MapSystem, c: Optional[complex], n: int, z: complex) -> complex:
    """F(n, z) for a table entry c_n whose rate is not finite.

    A non-finite entry (an overflowing c_n) and the nonlinear family
    (``None``) go through ``eval_map``, so a step fails exactly where it
    would; a finite c_n with an overflowing modulus is a plain multiply.
    """
    if c is not None and cmath.isfinite(c):
        return c * z
    return sys.eval_map(n, z)
