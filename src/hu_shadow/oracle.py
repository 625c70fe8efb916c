"""Independent ground truth: exact rational orbits and brute-force search.

These routines deliberately avoid the analytic constructions they are
used to validate.  The exact ones carry no rounding at all:
``exact_propagate`` runs one affine step z <- c_n z + r on reduced integer
pairs three times, for P_n, S_n and a_n, building each ``Fraction`` in place
from its reduced pair; the references ``exact_difference`` and
``exact_telescope`` read c_n as ``Fraction(num, den)`` and run in ``Fraction``.
``best_b1_search`` finds a near-optimal shadowing start point by refined
grid evaluation, an upper bound on the true optimum by construction.

Exact arithmetic is restricted to the linear families with rational
parameters and real rational data, and reads c_n from the exact pair
table of ``MapSystem.coefficient_pairs``, the family rule stated in
:mod:`hu_shadow.systems`; the sinusoid family has no rational orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

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

    Three runs of :func:`_affine_run` over one pair table of
    ``MapSystem.coefficient_pairs``: P_n from 1 with r = 0, S_n over |c_n|
    from 0 with r = 1, and a_{n+1} from a_1 with r = r_n over c_1..c_{H-1};
    every value equals the plain ``Fraction`` loop's.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if policy is None:
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    coeffs = sys.coefficient_pairs(horizon)
    a = [Fraction(a1)]
    if horizon > 1:  # the residual is the same at every step
        r = policy.rational_residual(1, Fraction(eps))
        a += _affine_run(coeffs[:-1], *a[0].as_integer_ratio(), *r.as_integer_ratio(), signed=True)
    return RationalOrbit(
        a=tuple(a),
        coefficient_products=tuple(_affine_run(coeffs, 1, 1, 0, 1, signed=True)),
        partial_sums=tuple(_affine_run(coeffs, 0, 1, 1, 1, signed=False)),
    )


def _affine_run(
    coeffs: Sequence[tuple[int, int]], zn: int, zd: int, rn: int, rd: int, signed: bool
) -> Iterator[Fraction]:
    """Yields z <- (cn zn)/(cd zd) + rn/rd, reduced, for each pair (cn, cd)
    from z = zn/zd, with |cn| where not ``signed``.

    ``Fraction``'s cross-cancellation is written out, with no call per
    operand.  A part d of |c| cancels against z's other part x: d = 1 is
    skipped; d = 2^k cancels by the trailing-zero count of x, capped at k
    (all of k for x = 0), and multiplies by a shift; any other d takes one
    ``divmod``, as gcd(x, d) = gcd(d, x mod d), and x / g follows from the
    quotient by a product.  r is added as ``Fraction._add`` adds it, from
    g = gcd(zd, rd) the same way; where g = rd and the sum is coprime to
    rd, zd is kept.
    """
    gcd, new = math.gcd, object.__new__
    for cn, cd in coeffs:
        m = -cn if cn < 0 else cn
        if not m:  # c_n = 0
            zn, zd = 0, 1
        elif m & (m - 1):  # m against zd: zd / g = q * (m / g) + t / g
            q, t = divmod(zd, m)
            if (g := gcd(m, t)) == 1:
                zn *= m
            elif g == m:
                zd = q
            else:
                zn, zd = zn * (e := m // g), q * e + t // g
        elif k := m.bit_length() - 1:  # m = 2^k
            low = zd & (m - 1)
            z = (low & -low).bit_length() - 1 if low else k
            if z:
                zd >>= z
            if z < k:
                zn <<= k - z
        if cd & (cd - 1):  # cd against zn, the same way
            q, t = divmod(zn, cd)
            if (g := gcd(cd, t)) == 1:
                zd *= cd
            elif g == cd:
                zn = q
            else:
                zn, zd = q * (e := cd // g) + t // g, zd * e
        elif k := cd.bit_length() - 1:
            low = zn & (cd - 1)
            z = (low & -low).bit_length() - 1 if low else k
            if z:
                zn >>= z
            if z < k:
                zd <<= k - z
        if signed and cn < 0:
            zn = -zn
        if rn and rd == 1:
            zn += zd if rn == 1 else rn * zd
        elif rn:  # g = gcd(zd, rd) = gcd(rd, zd mod rd)
            q, t = divmod(zd, rd)
            if (g := gcd(rd, t)) == 1:  # (zn*rd + rn*zd) / (zd*rd) is reduced
                zn, zd = zn * rd + (zd if rn == 1 else rn * zd), zd * rd
            else:  # s = zd/g and u = zn*(rd/g) + rn*s; gcd(u, rd) = gcd(u, g) = g2
                s = q
                if (e := rd // g) != 1:
                    s, zn = q * e + t // g, zn * e
                u = zn + (s if rn == 1 else rn * s)
                q, t = divmod(u, g)
                if (g2 := gcd(g, t)) != 1:
                    zn, zd = q * (e := g // g2) + t // g2, s * (rd // g2)
                else:  # where g = rd, z's denominator s*rd is zd itself
                    zn = u
                    if g != rd:
                        zd = s * rd
        value = new(Fraction)  # the two slots of a reduced pair, with no gcd and no call
        value._numerator, value._denominator = zn, zd
        yield value


def exact_difference(
    sys: MapSystem,
    a1: Fraction,
    b1: Fraction,
    residuals: Sequence[Fraction],
    horizon: int,
) -> list[Fraction]:
    """d_n = b_n - a_n by exact direct propagation of both orbits."""
    coeffs = [Fraction(num, den) for num, den in sys.coefficient_pairs(horizon)]
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
    coeffs = [Fraction(num, den) for num, den in sys.coefficient_pairs(n)]
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

    The affine sinusoid maps the real line to itself and expands off it,
    so its centre is taken as ``center.real``, before the span check and the
    first evaluation, and its rounds search ``grid`` real points around it.
    Each round returns exactly what a loop over :func:`sup_error_for_start`
    in row-major order (real part outer) with a strict ``<`` update would
    return: a nonlinear family's grid is that loop, a linear family's is
    evaluated as one array.  A region whose grid span is not finite
    raises ValueError: its grid would hold NaN.
    """
    if grid < 2 or refinements < 0:
        raise ValueError("need grid >= 2 and refinements >= 0")
    center = complex(region.center)
    if not sys.is_linear:  # the sinusoid's search stays on the real line
        center = complex(center.real)
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
        ims = (np.linspace(center.imag - radius, center.imag + radius, grid)
               if coeffs is not None else [0.0])
        cands = np.empty((grid, len(ims)), dtype=complex)
        cands.real = np.linspace(center.real - radius, center.real + radius, grid)[:, None]
        cands.imag = ims
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
