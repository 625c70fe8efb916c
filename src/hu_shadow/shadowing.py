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
  The pseudo-orbit is used as it is handed in, as in ``shadow_contracting``,
  and stepped on from its last value for the residuals past its horizon.

Both constructions also evaluate the finite-horizon bound
``accumulated_rate_bound`` built from the measured rates, sound where
p_n bounds |F(n,u) - F(n,v)|/|u - v| from above (every linear family;
not the affine sinusoid, whose p_n bounds its expansion from below);
the asymptotic bounds can be exceeded by finite data whenever the
partial sums oscillate above their limiting value.  They report its
maximum over n = 1..horizon, taken in one sweep:
``_accumulated_rate_bounds`` runs the recurrence of
``accumulated_rate_bound`` once, in one comprehension over the rates
after one sign scan of them, and returns the list of its values at every
n.  Each value is produced by the same floating-point operations, in the
same order, as a fresh per-index evaluation, so the maximum is
bit-identical to the per-index one at O(horizon) instead of O(horizon^2)
cost.

Every sweep whose step is one multiply-add on a linear family's
coefficient table (``MapSystem.tables``) is one comprehension that makes
no call: the forward propagation and its differences, the backward
recurrence and the recomposition b = a + d and the rate sums; the
residual sup is one pass of numpy ufuncs over the parts.  Its checks run
before or after it, never per step, and it does the float operations of
the per-step loop in the same order, so every value is the loop's, bit
for bit.  On a table of constants (``MapSystem._period``)
``shadow_contracting``'s forward propagation and its zero-gap rate sums
step in blocks and stop at the first bit-exact cycle
(``systems._cycle_closed``), repeating it to the horizon; the differences
and their sup, which read a given orbit, are swept in full.  Only the
nonlinear family goes through ``eval_map`` or ``eval_q``, and only in
``shadow_expanding``: ``shadow_contracting`` refuses it.  Both
constructions refuse, up front, a given orbit whose own steps pass
through a c_n past the float range (the table's infinity) with
:class:`RateRangeError`; a generated orbit never does, as generation
truncates at such a step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice, takewhile
from operator import add, sub
from sys import float_info
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateQuotient,
    HypothesisViolation,
    NonContraction,
    RateRangeError,
)
# perfbench/tracer.py wraps generate_pseudo_orbit here, so the import stays though unused.
from .systems import MapSystem, PseudoOrbit, _pseudo_orbit, check_rates, generate_pseudo_orbit
from .systems import _ORBIT_BLOCK, _cycle_closed, _repeat_tail

#: |q| below this is treated as a degenerate quotient.
DEGENERATE_QUOTIENT_LIMIT = 1e-300

#: Extra steps past the horizon the tail series may use before capping.
TAIL_CAP_MARGIN = 200

#: ln of the largest float: ``math.exp`` is finite up to it and overflows past it.
_LOG_FLOAT_MAX = math.log(float_info.max)


class ShadowMethod(str, Enum):
    CONTRACTING_DIRECT = "contracting_direct"
    EXPANDING_TAIL_SERIES = "expanding_tail_series"


@dataclass(frozen=True)
class ShadowMeta:
    truncation: int
    iterations: int
    residual_sup: float
    #: Finite-horizon bound from the measured rates (sound for every linear family).
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


# -- rate-sum bounds ------------------------------------------------------


def accumulated_rate_bound(
    rates: Sequence[float], n: int, eps: float, gap: float
) -> float:
    """(prod_{j<n} p_j)*gap + (sum_{j<n} prod_{j<i<n} p_i)*eps.

    The sum is evaluated by the stable recurrence S <- S*p + 1 and the
    product in the log domain, saturating to ``inf`` past exp(700).  This
    bound holds for every true orbit whose start is within ``gap`` of
    the pseudo-orbit's start where each p_j bounds
    |F(j,u) - F(j,v)|/|u - v| from above: for every linear family, where
    p_j = |c_j|.  The affine sinusoid's rates bound its expansion from
    below, so there it is no bound: F'(1, 0) = 4 > p_1 = 2.  The value
    is the n-th one of :func:`_accumulated_rate_bounds`, so it is
    bit-identical to what the constructions maximise.  With eps = 1 and
    a zero gap, the value at n + 1 is the perturbation partial sum S_n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(rates) < n - 1:
        raise ValueError(f"need rates p_1..p_{n - 1}, got {len(rates)}")
    return _accumulated_rate_bounds(rates, n, eps, gap)[-1]


def _accumulated_rate_bounds(
    rates: Sequence[float], horizon: int, eps: float, gap: float, period: Optional[int] = None
) -> list[float]:
    """accumulated_rate_bound(rates, n, eps, gap) for n = 1..horizon, horizon >= 1.

    One running recurrence, one comprehension: the n-th value extends the
    (n-1)-th by the single rate p_{n-1}, with exactly the arithmetic of a
    fresh evaluation, so every value (and hence the built-in ``max`` over
    them) is bit-identical at O(horizon) total cost.  ``math.log`` and
    ``math.exp`` are kept: numpy's are not bit-equal.  A zero gap takes
    no product, and so no log: 0.0 * gap, where inf * 0.0 past 700 would
    be NaN.  A rate that is not positive (NaN included) raises
    :class:`RateRangeError`, from one scan before the sweep, at the n the
    per-step check would name (``check_rates``); ``inf`` is allowed.

    ``period`` is the period of a table the caller built itself
    (``MapSystem._period``).  With a zero gap each value is zero + S_n*eps, a
    function of S_n alone, so the sums S_n step in blocks of
    ``systems._ORBIT_BLOCK`` and the list repeats its last ``period`` values
    once the sums close a cycle (``systems._cycle_closed``).  A nonzero gap
    sweeps in full: e^{L_n} does not repeat.
    """
    head = rates[: horizon - 1]
    check_rates(head)
    log, exp, inf = math.log, math.exp, math.inf
    S = 0.0
    first = 1.0 * gap + S * eps  # n = 1: the empty product exp(0.0) = 1.0
    if gap:
        log_prod = 0.0
        return [first] + [
            (exp(log_prod) if (log_prod := log_prod + log(p)) < 700 else inf) * gap
            + (S := S * p + 1.0) * eps
            for p in head
        ]
    zero = 0.0 * gap
    if period is None:
        return [first] + [zero + (S := S * p + 1.0) * eps for p in head]
    out, sums, steps = [first], [], iter(head)
    while block := [S := S * p + 1.0 for p in islice(steps, _ORBIT_BLOCK)]:
        sums += block
        out += [zero + s * eps for s in block]
        if _cycle_closed(sums, period, 0):  # each value is a function of S_n
            _repeat_tail(out, period, horizon)
            break
    return out


def bounded_factor_expanding_bound(
    m_low: float, M_high: float, K: float, eps: float
) -> float:
    """M*eps/(m*(K-1)): expanding-case bound when the scale factors t_n
    of the rate products stay within [m, M]."""
    if not K > 1.0:  # NaN too
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    if not 0.0 < m_low <= M_high:
        raise ValueError("need 0 < m_low <= M_high")
    return M_high * eps / (m_low * (K - 1.0))


# -- telescoping identity -------------------------------------------------


def telescope_difference(
    sys: MapSystem, pseudo: PseudoOrbit, b1: complex, n: int
) -> complex:
    """b_n - a_n via the telescoped products of difference quotients.

    Evaluates (prod_{j<n} q_j)(b_1 - a_1) - sum_{j<n} r_j prod_{j<i<n} q_i
    with q_j = q_j(b_j, a_j), the true orbit b propagated alongside the
    pseudo-orbit.  The result is an identity: it must agree with direct
    propagation of b_n - a_n.  A linear family reads q_j = c_j from its
    coefficient table and steps b_{j+1} = c_j b_j, as the constructions do;
    like them, it first refuses a c_j (j < n) past the float range.
    """
    if not 1 <= n <= pseudo.horizon:
        raise ValueError(f"n must be in 1..{pseudo.horizon}, got {n}")
    b = complex(b1)
    a1 = pseudo.value(1)
    prod_q = 1.0 + 0j
    acc = 0j  # sum_{k<=j} r_k prod_{k<i<=j} q_i
    coeffs, rates = sys.tables(n - 1)
    _check_finite_steps(coeffs, rates, n - 1)
    for j, c in enumerate(coeffs if coeffs is not None else [None] * (n - 1), 1):
        q = c if c is not None else sys.eval_q(j, b, pseudo.value(j))
        prod_q *= q
        acc = acc * q + pseudo.residual(j)
        b = c * b if c is not None else sys.eval_map(j, b)
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
    reported bound K*eps/(K-1), its limit eps where K is ``inf``, is
    asymptotic; the measured differences
    are additionally checked against the finite-horizon
    ``accumulated_rate_bound``, sound for every linear family, and
    exceeding *that* by more than 5% signals a misclassified system.
    A c_n past the float range at a step n < horizon raises
    :class:`RateRangeError` before any step.  A nonlinear system raises
    :class:`HypothesisViolation`: its rates bound its expansion from
    below, so no contracting construction is sound for it.
    """
    if not K > 1.0:  # NaN too
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    sys.require_linear("the contracting construction")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    coeffs, rates = sys.tables(horizon)
    _check_finite_steps(coeffs, rates, horizon - 1)
    period = sys._period()  # the table is built here: the cycle rule may tile b and the sums
    z = pseudo.value(1)
    b = [z]
    steps = iter(coeffs[: horizon - 1])
    while block := [z := c * z for c in islice(steps, _ORBIT_BLOCK)]:
        b += block
        if _cycle_closed(b, period, 1):  # b_1 is read from the orbit
            _repeat_tail(b, period, horizon)
            break
    d = tuple(map(sub, b, pseudo.a))
    sup = max(map(abs, d))
    sound = max(_accumulated_rate_bounds(rates, horizon, eps, 0.0, period))
    if sup > sound * 1.05 + 1e-15:
        raise HypothesisViolation(
            f"measured sup-difference {sup:.3e} exceeds the sound rate bound "
            f"{sound:.3e}; the system is not contracting as classified"
        )
    bound = K * eps / (K - 1.0) if K < math.inf else eps  # its limit, where inf/inf is NaN
    meta = ShadowMeta(
        truncation=0,
        iterations=1,
        # b_{n+1} - F(n, b_n) repeats the step that made b_{n+1}: it is 0, or NaN
        # where the step overflows, which the sup skips, so the sup is 0.0 by construction
        residual_sup=0.0,
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

    The orbit is used as given up to its horizon H, however it was made.
    The residuals from H to J come from stepping it on from a_H with its
    own epsilon and policy, through the table built for the tail estimate;
    J falls to the last index before the extension leaves the
    representable range.

    For nonlinear families the quotients q_i depend on the still-unknown
    true orbit, so the series is iterated to a fixed point: start from
    b = a, evaluate q_i(b_i, a_i), recompute every d_n, set b = a + d,
    repeat until the sup-change falls below ``opts.tol``.  A q_i is
    evaluated again only where its argument b_i moved.  Contraction
    is measured, not assumed: a sup-change increasing over three
    consecutive iterations aborts with :class:`NonContraction`.

    A rate in the tail estimate that is not positive (NaN included)
    raises :class:`RateRangeError`, and then a c_n past the float range
    at a step n < horizon of the given orbit.  A sweep whose d_n leaves
    the float range, where q_n is tiny but not below
    ``DEGENERATE_QUOTIENT_LIMIT``, raises :class:`DegenerateQuotient`
    naming the largest such n.
    """
    if not K > 1.0:  # NaN too
        raise HypothesisViolation(f"K must exceed 1, got {K}")
    horizon = pseudo.horizon
    eps = pseudo.epsilon
    bound = 2.0 * eps / math.log(K)

    # one table serves the tail past the horizon, the quotients and the sound bound
    coeffs, rates = sys.tables(horizon + TAIL_CAP_MARGIN)
    J, capped = _pick_truncation(rates, horizon, eps, bound, opts.tail_fraction, K)
    _check_finite_steps(coeffs, rates, horizon - 1)
    ext = _pseudo_orbit(sys, pseudo.value(1), eps, pseudo.policy, J + 1, coeffs, pseudo)
    J = min(J, ext.horizon - 1)

    a = ext.a
    r = ext.r[:J]  # r_1 .. r_J: every n <= J has a residual, as J < ext.horizon
    if coeffs is not None:
        _check_linear_quotients(rates, J)
        quotients = coeffs[J - 1 :: -1] if J else []  # q_J .. q_1
    else:  # q_n = q_n(a_n + d_n, a_n), kept with the argument it was made at
        quotients, points = [0j] * J, [None] * J
    d = [0j] * (J + 1)  # d_1 .. d_{J+1}
    scale = max(1.0, abs(a[0]))
    iterations = 0
    prev_change = math.inf
    increasing = 0
    while True:
        iterations += 1
        if coeffs is None:
            _update_nonlinear_quotients(sys, a, d, quotients, points)
        # d_{J+1} = 0; backward recurrence d_n = (r_n + d_{n+1}) / q_n
        nxt = 0j
        backward = [nxt := (r_n + nxt) / q for r_n, q in zip(reversed(r), quotients)]  # d_J .. d_1
        # nxt is d_1: each q is finite and nonzero, so a d_n that is not finite carries down to it
        if not cmath.isfinite(nxt):
            n = J - next(i for i, x in enumerate(backward) if not cmath.isfinite(x))
            raise DegenerateQuotient(f"d_{n} = (r_{n} + d_{n + 1})/q_{n} left the float range")
        new_d = backward[::-1] + [0j]
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
    b = tuple(map(add, a[:horizon], d))
    d_out = tuple(d[:horizon])
    sound = max(_accumulated_rate_bounds(rates, horizon, eps, abs(d[0])))
    meta = ShadowMeta(
        truncation=J,
        iterations=iterations,
        residual_sup=_relative_residual_sup(sys, coeffs, b),
        sound_bound=sound,
        truncation_capped=capped,
    )
    return ShadowResult(
        b=b, d=d_out, bound=bound, method=ShadowMethod.EXPANDING_TAIL_SERIES, meta=meta
    )


def _check_finite_steps(coeffs: Optional[list], rates: Sequence[float], steps: int) -> None:
    """:class:`RateRangeError` at the first n <= ``steps`` whose c_n is past
    the float range: a given orbit's own step there leaves it.  A finite
    c_n whose modulus overflows has the rate ``inf`` too, and passes."""
    if coeffs is None or math.inf not in rates[:steps]:
        return
    for n, c in enumerate(coeffs[:steps], 1):
        if not cmath.isfinite(c):
            raise RateRangeError(f"coefficient past the float range: c_n = {c!r} at n = {n}")


def _check_linear_quotients(rates: Sequence[float], J: int) -> None:
    """The degenerate-quotient check of q_J .. q_1 = c_J .. c_1, in that order,
    on the rates |c_n| (C ``hypot``, as ``abs`` computes it): the first
    failure is met where the recurrence would meet it."""
    head = rates[:J]
    if not head or min(head) >= DEGENERATE_QUOTIENT_LIMIT:
        return
    for n in range(J, 0, -1):
        if rates[n - 1] < DEGENERATE_QUOTIENT_LIMIT:
            raise DegenerateQuotient(f"|q_{n}| ~ 0; error dynamics singular")


def _update_nonlinear_quotients(
    sys: MapSystem, a: Sequence[complex], d: Sequence[complex], quotients: list, points: list
) -> None:
    """q_J .. q_1 brought up to date with d: ``quotients[J - n]`` holds q_n and
    ``points[J - n]`` the a_n + d_n it was made at.  Only a q_n whose argument
    moved is made again, in the order J .. 1, and checked as it is made: one
    that is not finite, or whose sine overflows, is a :class:`NonContraction`."""
    eval_q = sys.eval_q
    J = len(quotients)
    for i, n in enumerate(range(J, 0, -1)):
        v = a[n - 1]
        u = v + d[n - 1]
        if u != points[i]:
            try:
                q = eval_q(n, u, v)
            except OverflowError:
                q = complex(math.inf, 0.0)
            if not cmath.isfinite(q):
                raise NonContraction(f"q_{n} left the float range at b_{n} = {u!r}")
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
    p_1 .. p_cap; one among those read, p_horizon .. p_cap, that is not
    positive (NaN included) raises :class:`RateRangeError` from one scan
    before any term.  A term past the float range is ``inf``, so no J
    before it is taken; every finite term is the per-step loop's.
    """
    cap = horizon + TAIL_CAP_MARGIN
    if eps == 0.0:
        return horizon, False
    target = tail_fraction * bound if bound > 0 else 0.0
    window = rates[horizon - 1 : cap]
    check_rates(window, first=horizon)
    log, exp, inf = math.log, math.exp, math.inf
    log_c = 0.0  # log of c_j = prod_{i=horizon..j} 1/p_i, for j = horizon..cap
    tail_terms = [
        exp(log_c) if (log_c := log_c - log(p)) <= _LOG_FLOAT_MAX else inf for p in window
    ]
    # the tail past each J from the last term down: the geometric remainder, then
    # each term added to it in that order; the count-th is past J = horizon + len - count
    suffixes = accumulate(reversed(tail_terms[1:]), initial=tail_terms[-1] / (K - 1.0))
    count = sum(1 for _ in takewhile(lambda tail: eps * tail < target, suffixes))
    J = horizon + len(tail_terms) - count if count else cap
    return J, J == cap


def _relative_residual_sup(
    sys: MapSystem, coeffs: Optional[list], b: Sequence[complex]
) -> float:
    """sup_n |b_{n+1} - F(n, b_n)| / max(1, |b_n|), with F(n, b_n) = c_n b_n
    from the table ``coeffs`` of a linear family, else from ``eval_map``.

    The nonlinear family runs the reference loop over complex b_n: x =
    abs(b_{n+1} - F(n, b_n)) / (m if (m := abs(b_n)) > 1.0 else 1.0), and
    ``max([0.0, *xs])``.  A table runs it in arrays, every value the loop's:

    * the image parts are Python's complex product, c.real*b.real -
      c.imag*b.imag and c.real*b.imag + c.imag*b.real, one ufunc each, as
      ``oracle._step_parts`` takes them (numpy's complex product may fuse
      the multiply-add); complex subtraction is part by part;
    * each modulus is C ``hypot``, as ``abs(complex)`` takes it; where
      finite parts overflow, ``abs`` raises ``OverflowError`` and so does
      this, for either modulus (the loop raises at the first such n, and
      nothing else in it raises);
    * ``np.where(m > 1.0, m, 1.0)`` is 1.0 for a NaN m, as the conditional is;
    * ``max([0.0, *xs])`` skips a NaN, as ``np.fmax.reduce(xs,
      initial=0.0)`` does, and no x is -0.0, so no tie turns on a zero's sign.
    """
    if coeffs is None:
        images = map(sys.eval_map, range(1, len(b)), b)
        # zip takes b_{n+1} first, so no image is made past the last one
        return max([0.0] + [
            abs(nxt - image) / (m if (m := abs(z)) > 1.0 else 1.0)
            for nxt, image, z in zip(b[1:], images, b)
        ])
    steps = min(len(b) - 1, len(coeffs))
    values = np.array(b[: steps + 1], dtype=complex)
    c = np.array(coeffs[:steps], dtype=complex)
    z, nxt = values[:-1], values[1:]
    with np.errstate(all="ignore"):  # inf and NaN are values here, not warnings
        re = np.subtract(np.multiply(c.real, z.real), np.multiply(c.imag, z.imag))
        im = np.add(np.multiply(c.real, z.imag), np.multiply(c.imag, z.real))
        res = _abs_parts(nxt.real - re, nxt.imag - im)
        m = _abs_parts(z.real, z.imag)
        return float(np.fmax.reduce(res / np.where(m > 1.0, m, 1.0), initial=0.0))


def _abs_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``abs`` of each complex re + im*j by C ``hypot``, raising its
    ``OverflowError`` where finite parts overflow."""
    m = np.hypot(re, im)
    if (over := np.isinf(m)).any() and (over & np.isfinite(re) & np.isfinite(im)).any():
        raise OverflowError("absolute value too large")
    return m
