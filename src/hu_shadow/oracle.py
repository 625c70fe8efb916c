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
    P*c, S*|c| + 1 and c*a + r on reduced integer pairs, with the
    cross-cancellation of ``Fraction._mul`` and ``_add`` written out and no
    call per operand.  Each part of |c_n|, numerator and denominator, is
    classed once per step: a part 1 is skipped; a part 2^k cancels by the
    trailing-zero count of the other operand, capped at k, and multiplies by
    a shift; any other part d takes one ``divmod`` of the running bigint x,
    as gcd(x, d) = gcd(d, x mod d), and x / gcd follows from the quotient by
    a product, with no second division.  The residual r = rn/rd is added as
    ``Fraction._add`` adds it, from g = gcd(ad, rd) the same way: where
    g = rd and the sum is coprime to rd, a_n's denominator is kept as it is.
    Each entry is stored without a second gcd, so every value equals the
    plain ``Fraction`` loop's.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if policy is None:
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    coeffs = sys.coefficient_pairs(horizon)
    if horizon > 1:  # the residual is the same at every step
        residual = policy.rational_residual(1, Fraction(eps))
        rn, rd = residual.numerator, residual.denominator
    gcd = math.gcd
    first = Fraction(a1)
    a = [first]
    products, sums = [], []
    an, ad = first.numerator, first.denominator
    pn, pd = 1, 1  # prod_{j<=n} c_j
    sn, sd = 0, 1  # S_n
    for n, (cn, cd) in enumerate(coeffs, 1):
        # |c_n| = m/cd; each part is 1 (k = 0), 2^k (k > 0) or other (k = -1)
        m = -cn if cn < 0 else cn
        mk = m.bit_length() - 1 if not m & (m - 1) else -1
        dk = cd.bit_length() - 1 if not cd & (cd - 1) else -1
        # m against the denominators y: gcd(m, y) = 2^z with z = tz(y) capped
        # at mk, or gcd(m, y mod m) = g with y / g = q * (m / g) + r / g
        if not m:  # c_n = 0: P = a = 0 and S = 1
            pn, pd, sn, sd, an, ad = 0, 1, 0, 1, 0, 1
        elif mk > 0:
            low = pd & (m - 1)
            z = (low & -low).bit_length() - 1 if low else mk
            if z:
                pd >>= z
            if z < mk:
                pn <<= mk - z
            low = sd & (m - 1)
            z = (low & -low).bit_length() - 1 if low else mk
            if z:
                sd >>= z
            if z < mk:
                sn <<= mk - z
            low = ad & (m - 1)
            z = (low & -low).bit_length() - 1 if low else mk
            if z:
                ad >>= z
            if z < mk:
                an <<= mk - z
        elif mk:
            q, r = divmod(pd, m)
            if (g := gcd(m, r)) == 1:
                pn *= m
            elif g == m:
                pd = q
            else:
                e = m // g
                pn, pd = pn * e, q * e + r // g
            q, r = divmod(sd, m)
            if (g := gcd(m, r)) == 1:
                sn *= m
            elif g == m:
                sd = q
            else:
                e = m // g
                sn, sd = sn * e, q * e + r // g
            q, r = divmod(ad, m)
            if (g := gcd(m, r)) == 1:
                an *= m
            elif g == m:
                ad = q
            else:
                e = m // g
                an, ad = an * e, q * e + r // g
        # cd against the numerators, the same way
        if dk > 0:
            low = pn & (cd - 1)
            z = (low & -low).bit_length() - 1 if low else dk
            if z:
                pn >>= z
            if z < dk:
                pd <<= dk - z
            low = sn & (cd - 1)
            z = (low & -low).bit_length() - 1 if low else dk
            if z:
                sn >>= z
            if z < dk:
                sd <<= dk - z
            low = an & (cd - 1)
            z = (low & -low).bit_length() - 1 if low else dk
            if z:
                an >>= z
            if z < dk:
                ad <<= dk - z
        elif dk:
            q, r = divmod(pn, cd)
            if (g := gcd(cd, r)) == 1:
                pd *= cd
            elif g == cd:
                pn = q
            else:
                e = cd // g
                pn, pd = q * e + r // g, pd * e
            q, r = divmod(sn, cd)
            if (g := gcd(cd, r)) == 1:
                sd *= cd
            elif g == cd:
                sn = q
            else:
                e = cd // g
                sn, sd = q * e + r // g, sd * e
            q, r = divmod(an, cd)
            if (g := gcd(cd, r)) == 1:
                ad *= cd
            elif g == cd:
                an = q
            else:
                e = cd // g
                an, ad = q * e + r // g, ad * e
        if cn < 0:
            pn, an = -pn, -an
        sn += sd  # S*|c| + 1 is reduced: gcd(sn + sd, sd) = gcd(sn, sd) = 1
        products.append(_from_coprime_ints(pn, pd))
        sums.append(_from_coprime_ints(sn, sd))
        if n < horizon:  # a + r as Fraction._add, g = gcd(ad, rd) = gcd(rd, ad mod rd)
            if rd == 1:
                if rn:
                    an += rn * ad
            else:
                q, r = divmod(ad, rd)
                if (g := gcd(rd, r)) == 1:  # (an*rd + rn*ad) / (ad*rd) is reduced
                    an, ad = an * rd + (ad if rn == 1 else rn * ad), ad * rd
                else:  # s = ad/g and t = an*(rd/g) + rn*s; gcd(t, rd) = gcd(t, g) = g2
                    s = q
                    if (e := rd // g) != 1:
                        s, an = q * e + r // g, an * e
                    t = an + (s if rn == 1 else rn * s)
                    q, r = divmod(t, g)
                    if (g2 := gcd(g, r)) != 1:
                        e = g // g2
                        an, ad = q * e + r // g2, s * (rd // g2)
                    else:  # where g = rd, a_n's denominator s*rd is ad itself
                        an = t
                        if g != rd:
                            ad = s * rd
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
#: its largest goes to :func:`sup_error_for_start`: the two might round to
#: the same modulus, or to swapped ones.
TIE_GAP = 1e-12
#: A start whose largest squared distance lies outside [Q_MIN, Q_MAX] goes
#: to :func:`sup_error_for_start`: near the ends of the float range a square
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
    it was reached and the runner-up ``fmax(runner_up, minimum(q, best))``,
    and takes one ``hypot`` of the kept parts at the end.  That is the
    maximum modulus exactly: q carries at most 3 roundings and ``hypot``
    errs by less than 1 ulp, so a runner-up below best * (1 - ``TIE_GAP``)
    can never give a larger ``hypot``.  The starts the screen cannot decide
    go, in order, to :func:`sup_error_for_start` itself, so every NaN,
    overflow and first-exception rule is the reference's: a largest q that
    is not in [``Q_MIN``, ``Q_MAX``], or a runner-up within ``TIE_GAP`` of
    the largest.  ``np.maximum`` carries a NaN q into the largest, and an
    infinite or overflowed q is above ``Q_MAX``, so a start with a NaN or
    infinite step is undecided too.
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
        runner = np.zeros_like(re)
        for n, c in zip(range(1, min(horizon, pseudo.horizon)), coeffs):
            re, new_re = _step_parts(re, im, c, new_re, t)
            a = pseudo.value(n + 1)
            np.subtract(re, a.real, out=d_re)
            np.subtract(im, a.imag, out=d_im)
            np.multiply(d_re, d_re, out=q)
            q += np.multiply(d_im, d_im, out=t)
            np.fmax(runner, np.minimum(q, best, out=t), out=runner)
            np.greater(q, best, out=better)
            np.copyto(best_re, d_re, where=better)
            np.copyto(best_im, d_im, where=better)
            np.maximum(best, q, out=best)
        undecided = ~((Q_MIN <= best) & (best <= Q_MAX))  # NaN too
        undecided |= runner >= best * (1.0 - TIE_GAP)
        worst = np.hypot(best_re, best_im)
    if undecided.any():
        worst[undecided] = [
            sup_error_for_start(sys, pseudo, b1, horizon) for b1 in starts[undecided]
        ]
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
