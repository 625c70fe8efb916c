"""Geometric-average growth-rate analysis.

Products of per-step rates are accumulated as sums of logarithms: the
raw products over- or underflow doubles within a few dozen steps for the
built-in parity families.  The profile stores partial log-sums
L_n = sum_{j<=n} ln p_j and the averaged rates s_n = exp(L_n / n).

Classification distinguishes

* averages converging to a limit below one (stable, contracting regime),
* averages converging to a limit above one (stable, expanding regime),
* (pre)periodic scaled products with at least two distinct values below
  one (unstable regime), and
* everything else, reported as undetermined rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import RateRangeError
from .systems import MapSystem, check_rates


@dataclass(frozen=True)
class GrowthProfile:
    """Partial log-products and averaged rates of a rate sequence."""

    log_partial: np.ndarray  # L_n = sum_{j=1..n} ln p_j, n = 1..horizon
    avg: np.ndarray  # s_n = exp(L_n / n)
    horizon: int

    def log_sum(self, n: int) -> float:
        """L_n, with L_0 = 0."""
        return 0.0 if n == 0 else float(self.log_partial[n - 1])


def build_profile(rates: Sequence[float]) -> GrowthProfile:
    """Accumulate a rate sequence into a :class:`GrowthProfile`; a rate that
    is not positive raises :class:`RateRangeError` (``check_rates``)."""
    arr = check_rates(rates)
    if arr.size == 0:
        raise ValueError("rate sequence must be nonempty")
    log_partial = np.cumsum(np.log(arr))
    n = np.arange(1, arr.size + 1, dtype=float)
    avg = np.exp(log_partial / n)
    return GrowthProfile(log_partial=log_partial, avg=avg, horizon=arr.size)


def profile_of(sys: MapSystem, horizon: int) -> GrowthProfile:
    """Profile of a system's growth rates up to ``horizon``, read as the one
    float array that ``MapSystem._rates`` makes, with no list between."""
    return build_profile(sys._rates(range(1, horizon + 1)))


class ClassificationKind(str, Enum):
    CONVERGENT_BELOW_ONE = "convergent_below_one"
    CONVERGENT_ABOVE_ONE = "convergent_above_one"
    PERIODIC_BELOW_ONE = "periodic_below_one"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PeriodicFit:
    """Per-residue-class affine decomposition of the log-products.

    Along each residue class l of the period m (after discarding a
    prefix of length ``prefix``), the partial products factor as
    C_l * (1/K_l)^(n - prefix); equivalently the log-products are affine
    in n with slope -ln K_l and the class constant C_l read off the
    intercept.  ``values`` are the per-class averaged rates 1/K_l.
    """

    m: int
    prefix: int
    rate_factors: tuple  # K_l, l = 1..m
    constants: tuple  # C_l, l = 1..m
    max_residual: float

    @property
    def values(self) -> tuple:
        return tuple(1.0 / k for k in self.rate_factors)


@dataclass(frozen=True)
class AnalysisOptions:
    window: int = 32
    tol: float = 1e-4
    max_period: int = 8


@dataclass(frozen=True)
class Classification:
    kind: ClassificationKind
    K: Optional[float] = None
    periodic: Optional[PeriodicFit] = None


def detect_periodic_scaled(
    profile: GrowthProfile, max_period: int, tol: float
) -> Optional[PeriodicFit]:
    """Search for a (pre)periodic scaled-product structure.

    For each candidate period m (smallest first) and prefix length N
    (0 <= N <= horizon/4, smallest first), the log-products along every
    residue class n = km + l are fitted affinely in n.  A candidate is
    accepted when the worst per-class residual is below ``tol`` and at
    least two classes have genuinely different affine laws (slope or
    intercept differing by more than ``tol``); otherwise the sequence is
    a single geometric law and there is nothing periodic to report.

    The result is exactly that of fitting every candidate in turn, at
    O(max_period * horizon) cost instead of one ``np.polyfit`` per class
    and candidate.  A candidate is skipped only when one of two screens
    proves that the fit would reject it; every other candidate is fitted
    by ``_fit_period`` itself, so an accepted fit is bit-identical to the
    one the exhaustive scan returns.  Past any prefix every residue class
    keeps at least three points (horizon >= 4m), and for each candidate:

    * Three-point Chebyshev bound.  For class points n0 < n1 < n2 and any
      line, the worst deviation is at least |h|/2, with h the distance
      of y1 from the chord through (n0, y0) and (n2, y2): the line's
      residuals e satisfy e1 - ((1-t) e0 + t e2) = h.  With the first,
      middle and last point of a class, |h|/2 >= tol + margin forces the
      fitted maximum residual of that class to ``tol`` or above.
    * Spread screen.  The least-squares slopes and intercepts of every
      class and prefix follow in closed form from suffix sums, taken on
      the class index centred at its midpoint and on the deviation from
      the class chord.  If their spreads over the classes are both at
      most tol - 2*margin, those of ``np.polyfit`` are at most ``tol``,
      and the candidate is a single geometric law whatever its residuals.

    The bend screen runs class by class and stops as soon as it rejects
    every prefix of the period; the spread screen's suffix sums are built
    only when some prefix survives the bend screen of every class.  On
    the default index-scaled system (H = 10^3, 10^4) and sinusoid
    (H = 10^3), the first class alone rejects every prefix at every
    period.

    Cost: a class sees a prefix only through its first index past it, so
    each screen quantity is computed once per such start (about
    horizon/(4m) per class) and gathered to the prefixes; a period is
    then one suffix-sum pass per class, O(horizon).  The default sinusoid
    at H = 10^4, where every period builds the spread screen, takes about
    2 ms for m = 2..8 (0.17 ms at m = 2, 0.41 ms at m = 8; 2-core VM).

    The margin is ``SCREEN_MARGIN`` times the data magnitude: max|L_n|,
    which bounds the rounding of the chord, of ``np.polyfit`` and of its
    residual evaluation, plus the class length times the largest chord
    deviation, which bounds the rounding of the suffix sums.  Measured
    gaps between the closed form and ``np.polyfit`` stay below 1e-3 of
    the margin.  A profile that is not finite is not screened.
    """
    if max_period < 2:
        return None
    horizon = profile.horizon
    for m in range(2, max_period + 1):
        if horizon < 4 * m:
            break
        rejected = _rejected_prefixes(profile.log_partial, m, tol)
        for prefix in np.flatnonzero(~rejected):
            fit = _fit_period(profile, m, int(prefix), tol)
            if fit is not None:
                return fit
    return None


#: Rounding margin of the periodic screens, relative to the magnitude of
#: the data they are computed from (about 4500 units in the last place).
SCREEN_MARGIN = 1e-12


def _rejected_prefixes(L: np.ndarray, m: int, tol: float) -> np.ndarray:
    """Mask over prefixes 0..horizon//4: True where ``_fit_period`` with
    period m provably returns None, by the screens of
    :func:`detect_periodic_scaled`."""
    horizon = L.size
    prefixes = np.arange(horizon // 4 + 1)
    rejected = np.zeros(prefixes.size, dtype=bool)
    if not np.all(np.isfinite(L)):
        return rejected
    scale = float(np.max(np.abs(L)))
    bend_limit = 2.0 * (tol + SCREEN_MARGIN * scale)
    # a class reads a prefix only through its first index past it, start;
    # each quantity is computed once per distinct start, then gathered
    classes = []
    for l in range(1, m + 1):
        ns = np.arange(l, horizon + 1, m)
        ys = L[ns - 1]
        last = ns.size - 1
        start = (prefixes - l) // m + 1  # runs 0, 0, .., 1, .. to start[-1]
        k0 = np.arange(start[-1] + 1)
        k1 = (k0 + last) // 2
        h = ys[k1] - (ys[k0] + (ys[last] - ys[k0]) * ((k1 - k0) / (last - k0)))
        rejected |= (np.abs(h) >= bend_limit)[start]
        if rejected.all():  # the spread screen cannot add a rejection
            return rejected
        classes.append((ns, ys, last, start, k0))
    slopes = np.empty((m, prefixes.size))
    intercepts = np.empty((m, prefixes.size))
    deviation = 0.0
    for l, (ns, ys, last, start, k0) in enumerate(classes, 1):
        k = np.arange(last + 1)
        chord = (ys[last] - ys[0]) / last
        z = ys - (ys[0] + chord * k)
        u = k - last / 2
        sum_z = np.cumsum(z[::-1])[::-1]
        sum_uz = np.cumsum((u * z)[::-1])[::-1]
        count = last + 1.0 - k0
        # the suffix k0..last has mean u of k0/2 and sum of squared
        # centred indices count*(count^2 - 1)/12
        slope_k = (sum_uz[k0] - k0 / 2 * sum_z[k0]) / (count * (count**2 - 1) / 12)
        k_mean = (k0 + last) / 2
        y_mean = ys[0] + chord * k_mean + sum_z[k0] / count
        slope = (chord + slope_k) / m
        slopes[l - 1] = slope[start]
        intercepts[l - 1] = (y_mean - slope * (ns[0] + m * k_mean))[start]
        deviation = max(deviation, ns.size * float(np.max(np.abs(z))))
    same_law = tol - 2.0 * SCREEN_MARGIN * (scale + deviation)
    rejected |= (np.ptp(slopes, axis=0) <= same_law) & (
        np.ptp(intercepts, axis=0) <= same_law
    )
    return rejected


def _fit_period(
    profile: GrowthProfile, m: int, prefix: int, tol: float
) -> Optional[PeriodicFit]:
    horizon = profile.horizon
    L = profile.log_partial
    L_prefix = profile.log_sum(prefix)
    slopes = np.empty(m)
    intercepts = np.empty(m)
    max_residual = 0.0
    for l in range(1, m + 1):
        # absolute residue class: n = km + l, n > prefix, from the first such n
        ns = np.arange(l + m * ((prefix - l) // m + 1), horizon + 1, m, dtype=float)
        ys = L[ns.astype(int) - 1]
        slope, intercept = np.polyfit(ns, ys, 1)
        resid = float(np.max(np.abs(ys - (slope * ns + intercept))))
        max_residual = max(max_residual, resid)
        if resid >= tol:
            return None
        slopes[l - 1] = slope
        intercepts[l - 1] = intercept
    # all classes collapsing onto one affine law is a plain geometric
    # sequence, not a periodic structure
    distinct = (np.ptp(slopes) > tol) or (np.ptp(intercepts) > tol)
    if not distinct:
        return None
    rate_factors = tuple(_class_exp("K", l, -s) for l, s in enumerate(slopes, 1))
    # L_n = L_prefix + ln C_l - (n - prefix) ln K_l along class l
    constants = tuple(
        _class_exp("C", l + 1, intercepts[l] - L_prefix + prefix * slopes[l]) for l in range(m)
    )
    return PeriodicFit(
        m=m,
        prefix=prefix,
        rate_factors=rate_factors,
        constants=constants,
        max_residual=max_residual,
    )


def _class_exp(name: str, l: int, x: float) -> float:
    """e**x, class l's ``name`` in a periodic fit; RateRangeError past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        message = f"periodic fit: {name}_{l} = exp({float(x)!r}) is past the float range"
        raise RateRangeError(message) from None


def classify(
    profile: GrowthProfile,
    sys: Optional[MapSystem] = None,
    opts: AnalysisOptions = AnalysisOptions(),
) -> Classification:
    """Decide which stability regime a growth profile belongs to.

    ``sys`` is accepted for interface symmetry with the shadowing
    constructions; the decision is driven by the profile alone.

    An averaged rate within ``opts.tol`` of one is reported
    :attr:`ClassificationKind.UNDETERMINED`: no stability statement is
    available at exponential growth rate one.
    """
    if profile.horizon < 4 * opts.window:
        raise ValueError(
            f"profile horizon {profile.horizon} is shorter than "
            f"4*window = {4 * opts.window}"
        )
    tol = opts.tol
    fit = detect_periodic_scaled(profile, opts.max_period, tol)
    if fit is not None:
        ks = fit.rate_factors
        spread = (max(ks) - min(ks)) / min(ks)
        if spread > tol:
            if all(v < 1.0 - tol for v in fit.values):
                return Classification(
                    kind=ClassificationKind.PERIODIC_BELOW_ONE, periodic=fit
                )
            # distinct periodic values not all below one: outside every
            # covered regime
            return Classification(kind=ClassificationKind.UNDETERMINED, periodic=fit)
        # equal rate factors: a single geometric law in disguise
        lam = 1.0 / (sum(ks) / len(ks))
        return _from_limit(lam, tol)
    lam = _tail_limit(profile, opts)
    if lam is None:
        return Classification(kind=ClassificationKind.UNDETERMINED)
    return _from_limit(lam, tol)


def _from_limit(lam: float, tol: float) -> Classification:
    if lam < 1.0 - tol:
        return Classification(kind=ClassificationKind.CONVERGENT_BELOW_ONE, K=1.0 / lam)
    if lam > 1.0 + tol:
        return Classification(kind=ClassificationKind.CONVERGENT_ABOVE_ONE, K=lam)
    return Classification(kind=ClassificationKind.UNDETERMINED)


def _tail_limit(profile: GrowthProfile, opts: AnalysisOptions) -> Optional[float]:
    """Estimate lim s_n from the tail slope of the log-products.

    The slope is taken over a span of even length so that parity
    oscillations (ubiquitous in alternating systems) cancel exactly.
    Two consecutive spans must agree within ``opts.tol``; otherwise the
    tail has not stabilized.
    """
    horizon = profile.horizon
    w = 2 * opts.window
    w = min(w, (horizon - 1) // 2)
    w -= w % 2
    if w < 2:
        return None
    s1 = (profile.log_sum(horizon) - profile.log_sum(horizon - w)) / w
    s2 = (profile.log_sum(horizon - w) - profile.log_sum(horizon - 2 * w)) / w
    if abs(s1 - s2) > opts.tol:
        return None
    return math.exp(s1)


# -- ratio characterization ----------------------------------------------


def ratio_check(t: Sequence[float], K: float, n: int) -> float:
    """t_n K^n / sum_{j<n} t_j K^j, evaluated with K^n factored out.

    For positive t with t_n^(1/n) -> 1 and K > 1 this ratio tends to
    K - 1; the check is purely numerical, no limit is assumed.
    """
    if n < 2:
        raise ValueError(f"ratio_check needs n >= 2, got {n}")
    if len(t) < n:
        raise ValueError(f"need t_1..t_{n}, got {len(t)} values")
    if any(x <= 0 for x in t[:n]):
        raise ValueError("t must be positive")
    denom = 0.0
    for j in range(1, n):
        denom += t[j - 1] * K ** (j - n)
    return t[n - 1] / denom


# -- double-factorial envelope -------------------------------------------


#: Steps per block of :func:`double_factorial_envelope_holds`: its arrays
#: stay a few pages long at any k_max.
ENVELOPE_BLOCK = 4096


def double_factorial_envelope_holds(k_max: int) -> bool:
    """Certified check of the envelope for every k <= k_max: a float
    screen with an exact fallback.

    (2k-1)!!/(2k)!! is r = C(2k,k)/4^k, and the bounds 1/sqrt(4k+1) <= r
    <= 1/sqrt(3k+1) say r^2 (4k+1) >= 1 >= r^2 (3k+1).  The running float
    r^_k = r^_{k-1} * ((2k-1)/(2k)) carries 2k roundings at step k, a
    relative error of at most gamma_2k = 2ku/(1 - 2ku), u = 2^-53.  The
    r^_k come in blocks of ``ENVELOPE_BLOCK`` steps, each one
    ``numpy.cumprod`` of the correctly rounded factors, the first times the
    previous block's last r^: cumprod multiplies in sequence, so each entry
    is the running float's, bit for bit.  :func:`_envelope_screen` decides,
    for a whole block at once, each sign this bound allows, and
    :func:`_square_cmp` on C(2k,k) the rest: up to k = 10^4 only k = 1,
    where c^2 * 4 = 16.  So every per-k decision is the exact check's.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r_last = 1.0  # r^_{k-1} before each block
    for start in range(1, k_max + 1, ENVELOPE_BLOCK):
        # floats: k, k - 1/2, 3k + 1 and 4k + 1 are exact
        k = np.arange(float(start), float(min(start + ENVELOPE_BLOCK, k_max + 1)))
        r = (k - 0.5) / k  # (2k-1)/(2k), correctly rounded
        r[0] *= r_last
        np.cumprod(r, out=r)
        r_last = r[-1]
        for m, fails in ((4 * k + 1, -1), (3 * k + 1, 1)):  # r < or > its bound
            signs = _envelope_screen(r, m, k)
            for i in np.flatnonzero(signs == 0):
                j = int(k[i])  # Python ints: 1 << 4j overflows a numpy integer
                signs[i] = _square_cmp(math.comb(2 * j, j), int(m[i]), j)
            if (signs == fails).any():
                return False
    return True


def _envelope_screen(r: np.ndarray, m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The sign of t - 1, t = r_exact^2 m, from the running floats r at
    steps k, elementwise as -1.0, 0.0 or 1.0; 0.0 where floats cannot
    decide it.

    t^ = fl(fl(r*r) * m) adds two roundings (m < 2^53 converts exactly),
    so t^ = t (1 + theta) with |theta| <= gamma_{4k+2} <= tol = (4k+2) 2^-52
    while (4k+2) u <= 1/2.  t^ - 1 is exact for t^ in [1/2, 2] (Sterbenz)
    and at least 1/2 in size outside it, so |t^ - 1| > tol proves the sign.
    """
    d = r * r * m - 1.0
    tol = (4.0 * k + 2.0) * 2.0**-52
    return np.where(np.abs(d) > tol, np.sign(d), 0.0)


def _square_cmp(c: int, m: int, k: int) -> int:
    """The sign of c^2 m - 16^k."""
    diff = c * c * m - (1 << (4 * k))
    return (diff > 0) - (diff < 0)
