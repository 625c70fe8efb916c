"""Independent ground truth: exact rational orbits and brute-force search.

These routines deliberately avoid the analytic constructions they are
used to validate.  ``exact_propagate`` and ``exact_difference`` run the
recurrences in exact rational arithmetic (``exact_propagate`` on reduced
integer pairs, the others in :class:`fractions.Fraction`), so their
output carries no rounding at all; ``best_b1_search`` finds a near-optimal
shadowing start point by refined grid evaluation, an upper bound on the
true optimum by construction.

Exact arithmetic is restricted to the linear families with rational
parameters and real rational data, and reads c_n from the exact pair
table of ``MapSystem.coefficient_pairs``, the family rule stated in
:mod:`hu_shadow.systems`; the sinusoid family has no rational orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .systems import MapSystem, PolicyKind, PseudoOrbit, ResidualPolicy, modulus, _step_index


@dataclass(frozen=True)
class RationalOrbit:
    """Exact pseudo-orbit data: values, rate products and partial sums.

    ``a[i]`` is a_{i+1}; ``coefficient_products[i]`` is prod_{j<=i+1} c_j;
    ``partial_sums[i]`` is S_{i+1} = sum_{j<=i+1} prod_{j<i'<=i+1} p_i'.
    A step index outside 1..horizon raises ``ValueError``.
    """

    a: tuple
    coefficient_products: tuple
    partial_sums: tuple

    def value(self, n: int) -> Fraction:
        return self.a[_step_index(n, len(self.a))]

    def product(self, n: int) -> Fraction:
        return self.coefficient_products[_step_index(n, len(self.a))]

    def partial_sum(self, n: int) -> Fraction:
        return self.partial_sums[_step_index(n, len(self.a))]


def exact_propagate(
    sys: MapSystem,
    a1: Fraction,
    eps: Fraction,
    horizon: int,
    policy: Optional[ResidualPolicy] = None,
) -> RationalOrbit:
    """Exact pseudo-orbit a_{n+1} = c_n a_n + r_n with constant residuals.

    Supported policies are constant-real and zero; others have no exact
    rational form.

    One loop over the pair table of ``MapSystem.coefficient_pairs`` runs
    P*c, S*|c| + 1 and c*a + r on reduced integer pairs, with the cross-gcd
    steps of ``Fraction._mul`` and ``_add``.  Whether a coefficient part
    (|c_n|'s numerator, its denominator, the residual's denominator) is a
    power of two is asked once, of that small part, never of a running
    bigint.  A power-of-two part 2^k cancels by the trailing-zero count of
    the other operand, capped at k, and multiplies by a shift; any other
    part cancels by ``math.gcd`` and ``//``.  No gcd or product against 1
    is taken.  Each entry is stored without a second gcd, so every value
    equals the plain ``Fraction`` loop's.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if policy is None:
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    coeffs = sys.coefficient_pairs(horizon)
    if horizon > 1:  # the residual is the same at every step
        r = policy.rational_residual(1, Fraction(eps))
        rn, rd = r.numerator, r.denominator
        rk = _log2(rd)
    first = Fraction(a1)
    a = [first]
    products, sums = [], []
    an, ad = first.numerator, first.denominator
    pn, pd = 1, 1  # prod_{j<=n} c_j
    sn, sd = 0, 1  # S_n
    for n, (cn, cd) in enumerate(coeffs, 1):
        un = -cn if cn < 0 else cn
        uk, dk = _log2(un), _log2(cd)
        pn, pd = _times(pn, pd, cn, cd, uk, dk)
        sn, sd = _times(sn, sd, un, cd, uk, dk)
        sn += sd  # S*|c| + 1 is reduced: gcd(sn + sd, sd) = gcd(sn, sd) = 1
        an, ad = _times(an, ad, cn, cd, uk, dk)
        products.append(_from_coprime_ints(pn, pd))
        sums.append(_from_coprime_ints(sn, sd))
        if n < horizon:  # a + r, as Fraction._add reduces it
            if rd != 1:  # g = gcd(ad, rd) = rd // rg; t = an*(rd/g) + rn*(ad/g)
                ad, rg = _cancel(ad, rd, rk)
                an = (an * rg if rg != 1 else an) + (ad * rn if rn != 1 else ad)
                if (g := rd // rg) != 1:  # gcd(t, g) cancels too
                    an, g = _cancel(an, g, _log2(g))
                if (h := rg * g) != 1:
                    ad *= h
            elif rn:
                an += ad * rn
            a.append(_from_coprime_ints(an, ad))
    return RationalOrbit(
        a=tuple(a), coefficient_products=tuple(products), partial_sums=tuple(sums)
    )


def _from_coprime_ints(n: int, d: int) -> Fraction:
    """Fraction(n, d) for coprime n and d > 0: sets the two slots, without
    a gcd, as Python 3.12's ``Fraction._from_coprime_ints`` does."""
    value = object.__new__(Fraction)
    value._numerator = n
    value._denominator = d
    return value


def _log2(d: int) -> int:
    """k for d = 2^k > 0, else -1."""
    return d.bit_length() - 1 if not d & (d - 1) else -1


def _cancel(x: int, d: int, k: int) -> tuple[int, int]:
    """(x // g, d // g) for g = gcd(x, d), d > 0 and k = ``_log2(d)``.

    For d = 2^k, g is 2^s with s the trailing-zero count of x capped at k
    (k for x = 0), read from the low bits of x, and both divisions are
    shifts; no gcd is taken.
    """
    if k >= 0:
        low = x & (d - 1)
        s = (low & -low).bit_length() - 1 if low else k
        return (x >> s, d >> s) if s else (x, d)
    g = math.gcd(x, d)
    return (x // g, d // g) if g != 1 else (x, d)


def _times(x: int, y: int, m: int, d: int, uk: int, dk: int) -> tuple[int, int]:
    """x/y * m/d on coprime pairs (y, d > 0) as ``Fraction._mul`` reduces
    it: gcd(x, d) and gcd(|m|, y) cancel first, so the product is reduced.

    ``uk`` and ``dk`` are ``_log2`` of |m| and d.  A power-of-two part
    cancels by a trailing-zero count and multiplies by a shift, any other
    by ``math.gcd``, ``//`` and ``*``; a part that is 1 is skipped.
    """
    if dk < 0:
        if (g := math.gcd(x, d)) != 1:
            x, d = x // g, d // g
    elif dk:  # d = 2^dk: 2^s = gcd(x, d), s = tz(x) capped at dk
        low = x & (d - 1)
        s = (low & -low).bit_length() - 1 if low else dk
        if s:
            x, dk = x >> s, dk - s
    if uk < 0:
        if (g := math.gcd(m, y)) != 1:
            m, y = m // g, y // g
    elif uk:  # |m| = 2^uk
        low = y & ((1 << uk) - 1)
        s = (low & -low).bit_length() - 1 if low else uk
        if s:
            y, uk = y >> s, uk - s
    if uk < 0:
        x *= m
    elif m < 0:
        x = -x << uk if uk else -x
    elif uk:
        x <<= uk
    if dk < 0:
        y *= d
    elif dk:
        y <<= dk
    return x, y


def exact_difference(
    sys: MapSystem,
    a1: Fraction,
    b1: Fraction,
    residuals: Sequence[Fraction],
    horizon: int,
) -> list[Fraction]:
    """d_n = b_n - a_n by exact direct propagation of both orbits."""
    coeffs = [_from_coprime_ints(*c) for c in sys.coefficient_pairs(horizon)]
    a = Fraction(a1)
    b = Fraction(b1)
    out = [b - a]
    for n in range(1, horizon):
        a = coeffs[n - 1] * a + Fraction(residuals[n - 1])
        b = coeffs[n - 1] * b
        out.append(b - a)
    return out


def exact_telescope(
    sys: MapSystem,
    a1: Fraction,
    b1: Fraction,
    residuals: Sequence[Fraction],
    n: int,
) -> Fraction:
    """The telescoped form of d_n, exactly.

    (prod_{j<n} c_j)(b_1 - a_1) - sum_{j<n} r_j prod_{j<i<n} c_i; for a
    linear family the quotients are the coefficients themselves.
    """
    coeffs = [_from_coprime_ints(*c) for c in sys.coefficient_pairs(n)]
    prod = Fraction(1)
    acc = Fraction(0)
    for j in range(1, n):
        c = coeffs[j - 1]
        prod *= c
        acc = acc * c + Fraction(residuals[j - 1])
    return prod * (Fraction(b1) - Fraction(a1)) - acc


# -- brute-force start-point search ---------------------------------------


@dataclass(frozen=True)
class SearchRegion:
    center: complex
    radius: float


def sup_error_for_start(
    sys: MapSystem, pseudo: PseudoOrbit, b1: complex, horizon: int
) -> float:
    """sup_{n<=horizon} |b_n - a_n| for the true orbit started at b1.

    A modulus that overflows from finite parts raises OverflowError; a
    NaN distance is NaN (see :func:`~hu_shadow.systems.modulus`).
    """
    b = complex(b1)
    worst = modulus(b - pseudo.value(1))
    for n in range(1, min(horizon, pseudo.horizon)):
        b = sys.eval_map(n, b)
        worst = max(worst, modulus(b - pseudo.value(n + 1)))
    return worst


def _step_parts(
    re: np.ndarray, im: np.ndarray, c: complex, new_re: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """b = c * b in place on the parts re, im of b, as Python's complex
    product (numpy's may fuse the multiply-add): re' = c.real*re - c.imag*im
    into ``new_re`` and im' = c.real*im + c.imag*re into ``im``, with ``t``
    as a temporary.  Returns (re', the buffer free for the next step)."""
    np.multiply(re, c.real, out=new_re)
    np.multiply(im, c.imag, out=t)
    np.subtract(new_re, t, out=new_re)
    np.multiply(re, c.imag, out=t)
    np.multiply(im, c.real, out=im)
    np.add(im, t, out=im)
    return new_re, re


#: A start whose runner-up squared distance is within this relative gap of
#: its largest goes to the per-step hypot loop: the two might round to the
#: same modulus, or to swapped ones.
TIE_GAP = 1e-12
#: A start whose largest squared distance lies outside [Q_MIN, Q_MAX] goes
#: to the per-step hypot loop: near the ends of the float range a square
#: may lose its relative error bound.
Q_MIN, Q_MAX = 2.0**-900, 2.0**900


def _sup_errors(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    starts: np.ndarray,
    horizon: int,
    coeffs: Optional[Sequence[complex]],
) -> np.ndarray:
    """:func:`sup_error_for_start` for every start point of ``starts``.

    A nonlinear family (``coeffs`` is ``None``) loops over the scalar
    function itself.  A linear family steps every start point at once
    through ``coeffs``, its table ``sys.coefficients`` read once by the
    caller, whose entries are the values ``eval_map`` multiplies by: each
    step repeats the scalar function's float operations in the same order
    (:func:`_step_parts`), in place, through preallocated buffers;
    ``starts`` itself is never written.

    The screen ranks squared distances q = d_re^2 + d_im^2 in place of C
    ``hypot``.  Per start it keeps the largest q with the two parts d where
    it was reached, the runner-up ``fmax(runner_up, minimum(q, best))`` and
    a running sum of q, and takes one ``hypot`` of the kept parts at the
    end.  That is the maximum modulus exactly: q carries at most 3
    roundings and ``hypot`` errs by less than 1 ulp, so a runner-up below
    best * (1 - ``TIE_GAP``) can never give a larger ``hypot``.  The starts
    the screen cannot decide go to :func:`_hypot_sup_errors`, the per-step
    ``hypot`` loop with every NaN, overflow and first-exception rule, on
    that subset only: a sum that is not finite (some step was NaN or inf,
    or some square overflowed), a largest q outside [``Q_MIN``, ``Q_MAX``],
    or a runner-up within ``TIE_GAP`` of the largest.
    """
    if coeffs is None:
        return np.array([sup_error_for_start(sys, pseudo, b1, horizon) for b1 in starts])
    starts = np.asarray(starts, dtype=complex)
    re, im = starts.real.copy(), starts.imag.copy()  # b_n, stepped in place
    new_re, t, d_re, d_im, q = (np.empty_like(re) for _ in range(5))
    better = np.empty(re.shape, dtype=bool)
    a = pseudo.value(1)
    with np.errstate(over="ignore", invalid="ignore"):
        best_re, best_im = np.subtract(re, a.real), np.subtract(im, a.imag)
        best = np.multiply(best_re, best_re)
        best += np.multiply(best_im, best_im, out=t)
        total, runner = best.copy(), np.zeros_like(re)
        for n, c in zip(range(1, min(horizon, pseudo.horizon)), coeffs):
            re, new_re = _step_parts(re, im, c, new_re, t)
            a = pseudo.value(n + 1)
            np.subtract(re, a.real, out=d_re)
            np.subtract(im, a.imag, out=d_im)
            np.multiply(d_re, d_re, out=q)
            q += np.multiply(d_im, d_im, out=t)
            total += q
            np.fmax(runner, np.minimum(q, best, out=t), out=runner)
            np.greater(q, best, out=better)
            np.copyto(best_re, d_re, where=better)
            np.copyto(best_im, d_im, where=better)
            np.maximum(best, q, out=best)
        undecided = ~np.isfinite(total)
        undecided |= best < Q_MIN
        undecided |= best > Q_MAX
        undecided |= runner >= best * (1.0 - TIE_GAP)
        worst = np.hypot(best_re, best_im)
    if undecided.any():
        worst[undecided] = _hypot_sup_errors(pseudo, starts[undecided], horizon, coeffs)
    return worst


def _hypot_sup_errors(
    pseudo: PseudoOrbit, starts: np.ndarray, horizon: int, coeffs: Sequence[complex]
) -> np.ndarray:
    """The linear path of :func:`_sup_errors` with a C ``hypot`` at every step.

    The modulus is C ``hypot`` as in ``modulus``.  The running maximum is
    ``numpy.fmax``: against a later NaN modulus it keeps the running value,
    as ``max`` keeps its first argument.  A NaN first modulus ``max`` keeps
    to the end, so a start whose first modulus is NaN is set to NaN at the
    end.  Every failure is a modulus that overflows from finite parts, which
    ``modulus`` raises as the same :class:`OverflowError`, so the first one
    found is the first failing start's exception.
    """
    re, im = starts.real.copy(), starts.imag.copy()  # b_n, stepped in place
    new_re, t, d_re, d_im, x = (np.empty_like(re) for _ in range(5))

    def moduli(re: np.ndarray, im: np.ndarray, a: complex, out: np.ndarray) -> np.ndarray:
        """|b - a| into out for b = re + i*im; OverflowError where finite
        parts overflow."""
        np.subtract(re, a.real, out=d_re)
        np.subtract(im, a.imag, out=d_im)
        np.hypot(d_re, d_im, out=out)
        if np.isinf(out).any() and (np.isinf(out) & np.isfinite(d_re) & np.isfinite(d_im)).any():
            raise OverflowError("absolute value too large")
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        worst = moduli(re, im, pseudo.value(1), np.empty_like(re))
        first_nan = np.isnan(worst)
        for n, c in zip(range(1, min(horizon, pseudo.horizon)), coeffs):
            re, new_re = _step_parts(re, im, c, new_re, t)
            np.fmax(worst, moduli(re, im, pseudo.value(n + 1), x), out=worst)
    worst[first_nan] = np.nan
    return worst


def best_b1_search(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    horizon: int,
    region: SearchRegion,
    grid: int = 64,
    refinements: int = 6,
) -> tuple[complex, float]:
    """Grid search for the start point minimizing the sup shadowing error.

    A ``grid`` x ``grid`` evaluation over the square enclosing the disk,
    followed by ``refinements`` rounds of 4x zoom around the incumbent.
    The incumbent is carried between rounds, so the reported sup error
    never increases; the result is an upper bound on the true optimum.

    Each round returns exactly what a loop over :func:`sup_error_for_start`
    in row-major order (real part outer) with a strict ``<`` update would
    return: a nonlinear family's grid is that loop, a linear family's is
    evaluated as one array.  A region whose grid span is not finite
    raises ValueError: its grid would hold NaN.
    """
    if grid < 2 or refinements < 0:
        raise ValueError("need grid >= 2 and refinements >= 0")
    center = complex(region.center)
    radius = float(region.radius)
    for part in (center.real, center.imag):
        if not math.isfinite((part + radius) - (part - radius)):
            raise ValueError(
                f"search grid around {center!r} with radius {radius!r} "
                "spans past the float range"
            )
    coeffs = sys.coefficients(max(min(horizon, pseudo.horizon) - 1, 0)) if sys.is_linear else None
    best_b1 = center
    best_err = float(_sup_errors(sys, pseudo, np.array([center]), horizon, coeffs)[0])
    for _ in range(refinements + 1):
        cands = np.empty((grid, grid), dtype=complex)
        cands.real = np.linspace(center.real - radius, center.real + radius, grid)[:, None]
        cands.imag = np.linspace(center.imag - radius, center.imag + radius, grid)
        cands = cands.ravel()
        errs = _sup_errors(sys, pseudo, cands, horizon, coeffs)
        better = errs < best_err  # NaN never qualifies
        if better.any():
            i = int(np.argmin(np.where(better, errs, np.inf)))
            best_err = float(errs[i])
            best_b1 = complex(cands[i])
        center = best_b1
        radius /= 4.0
    return best_b1, best_err


def refined_cell_size(region: SearchRegion, grid: int, refinements: int) -> float:
    """Grid spacing of the final refinement round."""
    return (2.0 * region.radius / (grid - 1)) / 4.0**refinements
