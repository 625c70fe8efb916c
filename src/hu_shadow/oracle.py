"""Independent ground truth: exact rational orbits and brute-force search.

These routines deliberately avoid the analytic constructions they are
used to validate.  The exact ones carry no rounding at all:
``exact_propagate`` runs one affine step z <- c_n z + r, r an integer, on
reduced integer pairs three times, for P_n, S_n and w_n = r_d a_n with the
residual eps = r_n / r_d at every step, building each ``Fraction`` in place
from its reduced pair; the references ``exact_difference`` and
``exact_telescope`` read c_n as ``Fraction(num, den)`` and run in
``Fraction``.  ``best_b1_search``
finds a near-optimal shadowing start point by refined grid evaluation, an
upper bound on the true optimum by construction.  Where every c_n is real,
its grid steps the real and the imaginary start parts as two axes, and
ranks only the steps that can hold some start's largest distance; where
one is complex, every start takes each c_n's complex product.

Exact arithmetic is restricted to the linear families with rational
parameters and real rational data, and reads c_n from the exact pair
table of ``MapSystem.coefficient_pairs``, the family rule stated in
:mod:`hu_shadow.systems`; the sinusoid family has no rational orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Complex, Real
from typing import Iterator, Optional, Sequence

import numpy as np

from .systems import MapSystem, PseudoOrbit, check_nonnegative, modulus
from .systems import _ORBIT_BLOCK, _check_orbit_request, _step_index, check_count


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


def exact_propagate(sys: MapSystem, a1: Fraction, eps: Fraction, horizon: int) -> RationalOrbit:
    """Exact pseudo-orbit a_{n+1} = c_n a_n + eps, the residual eps at every
    step; eps = 0 gives the true orbit.

    ``eps`` and ``horizon`` are refused as
    :func:`~hu_shadow.systems.generate_pseudo_orbit` refuses them, before
    any work, and so is an ``a1`` that is complex or a NaN or infinite
    float; an exact a_1 has no range limit.

    Three runs of :func:`_affine_run` over one pair table of
    ``MapSystem.coefficient_pairs``: P_n from 1 with r = 0, S_n over |c_n|
    from 0 with r = 1, and, for eps = r_n / r_d, w_{n+1} = r_d a_{n+1}
    from r_d a_1 with the integer residual r_n over c_1..c_{H-1}, each
    divided by r_d; every value equals the plain ``Fraction`` loop's.
    """
    _check_orbit_request(eps, horizon)
    if isinstance(a1, Complex) and not isinstance(a1, Real) or (
        isinstance(a1, float) and not math.isfinite(a1)
    ):
        raise ValueError(f"a1 must be finite and real, got {a1!r}")
    coeffs = sys.coefficient_pairs(horizon)
    a = [Fraction(a1)]
    if horizon > 1:
        rn, rd = Fraction(eps).as_integer_ratio()
        a += _affine_run(coeffs[:-1], *(a[0] * rd).as_integer_ratio(), rn, signed=True, divisor=rd)
    return RationalOrbit(
        a=tuple(a),
        coefficient_products=tuple(_affine_run(coeffs, 1, 1, 0, signed=True)),
        partial_sums=tuple(_affine_run(coeffs, 0, 1, 1, signed=False)),
    )


def _affine_run(
    coeffs: Sequence[tuple[int, int]], zn: int, zd: int, r: int, signed: bool, divisor: int = 1
) -> Iterator[Fraction]:
    """Yields z / ``divisor``, reduced, for z <- (cn zn)/(cd zd) + r over
    each pair (cn, cd) from z = zn/zd, with |cn| where not ``signed``.

    ``Fraction``'s cross-cancellation is written out, with no call per
    operand.  A part d of |c| cancels against z's other part x: d = 1 is
    skipped; d = 2^k cancels by the trailing-zero count of x, capped at k
    (all of k for x = 0), and multiplies by a shift; any other d takes one
    ``divmod``, as gcd(x, d) = gcd(d, x mod d), and x / g follows from the
    quotient by a product.  The integer r adds r*zd to the numerator, which
    keeps the pair reduced.  As gcd(zn, zd) = 1, z / ``divisor`` cancels by
    g = gcd(divisor, zn mod divisor) alone: (zn / g) / (zd * (divisor / g)).
    """
    gcd, new = math.gcd, object.__new__
    for cn, cd in coeffs:
        m = -cn if cn < 0 else cn  # not 0: no system has a zero c_n
        if m & (m - 1):  # m against zd: zd / g = q * (m / g) + t / g
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
        if r:
            zn += zd if r == 1 else r * zd
        if divisor == 1:
            num, den = zn, zd
        elif (g := gcd(divisor, zn % divisor)) == 1:
            num, den = zn, zd * divisor
        else:
            num, den = zn // g, zd * (divisor // g)
        value = new(Fraction)  # the two slots of a reduced pair, with no gcd and no call
        value._numerator, value._denominator = num, den
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
    """The disk a search covers; a radius that is negative, NaN or
    infinite raises ``ValueError``."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        check_nonnegative(self.radius, "radius")


def sup_error_for_start(
    sys: MapSystem, pseudo: PseudoOrbit, b1: complex, horizon: int
) -> float:
    """sup_{n<=horizon} |b_n - a_n| for the true orbit started at b1.

    ``horizon`` is a count of at least 1, checked before any table.  A
    linear family steps b <- c_n b through its table ``sys.coefficients``,
    read once: entry n is the c_n that ``eval_map`` multiplies by, so each
    b_n is bit for bit ``eval_map``'s.  The nonlinear family calls
    ``eval_map`` per step.  A modulus that overflows from finite parts
    raises OverflowError; a NaN distance is NaN (see
    :func:`~hu_shadow.systems.modulus`).
    """
    check_count(horizon, "horizon", 1)
    b = complex(b1)
    worst = modulus(b - pseudo.value(1))
    steps = range(1, min(horizon, pseudo.horizon))
    coeffs = sys.coefficients(len(steps)) if sys.is_linear else None
    for n in steps:
        b = coeffs[n - 1] * b if coeffs is not None else sys.eval_map(n, b)
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


#: The screen's margin: a step whose squared distance lies more than this
#: relative gap below the largest of its start cannot have the larger
#: modulus, so its ``hypot`` is never taken.
TIE_GAP = 1e-12
#: A start whose largest squared distance lies outside [Q_MIN, Q_MAX] goes
#: to :func:`sup_error_for_start`: near the ends of the float range a square
#: may lose its relative error bound.
Q_MIN, Q_MAX = 2.0**-900, 2.0**900


class _Ranking:
    """Per start of a grid, over the steps added: the largest squared
    distance q (``np.maximum`` carries a NaN q) and the largest modulus
    ``hypot(d)`` of the steps whose q reaches the largest q so far times
    1 - ``TIE_GAP``, whatever the order of the steps."""

    def __init__(self, shape: tuple[int, int]):
        self.best, self.worst = np.full(shape, -np.inf), np.zeros(shape)
        self._t, self._ranked = np.empty(shape), np.empty(shape, dtype=bool)

    def add(self, q: np.ndarray, d_re: np.ndarray, d_im: np.ndarray) -> None:
        """Rank one step's q, its parts d broadcast to the grid."""
        np.maximum(self.best, q, out=self.best)
        np.greater_equal(q, np.multiply(self.best, 1.0 - TIE_GAP, out=self._t), out=self._ranked)
        np.hypot(d_re, d_im, out=self._t, where=self._ranked)
        np.maximum(self.worst, self._t, out=self.worst, where=self._ranked)

    def errors(self) -> tuple[np.ndarray, np.ndarray]:
        """(the largest modulus, the mask of starts it cannot decide: a
        largest q outside [``Q_MIN``, ``Q_MAX``], NaN and inf included)."""
        return self.worst, ~((Q_MIN <= self.best) & (self.best <= Q_MAX))


def _sup_errors(
    sys: MapSystem,
    pseudo: PseudoOrbit,
    res: Sequence[float],
    ims: Sequence[float],
    horizon: int,
    coeffs: Optional[Sequence[complex]],
) -> np.ndarray:
    """:func:`sup_error_for_start` at every start x + iy of the grid ``res``
    x ``ims``, row-major (real part outer), as one flat array.

    A nonlinear family (``coeffs`` is ``None``) loops over the scalar
    function itself.  A linear family reads ``coeffs``, its coefficient
    array of ``sys.tables`` read once by the caller, whose entries are the
    values ``eval_map`` multiplies by.  The grid is never written.

    The screen ranks squared distances q = d_re^2 + d_im^2 (:class:`_Ranking`)
    and takes C ``hypot``, the scalar function's modulus, of a step's parts
    only where q reaches the start's largest q so far times 1 - ``TIE_GAP``.
    That gives the largest modulus exactly where the start's final largest
    q, Q, lies in [``Q_MIN``, ``Q_MAX``]: q carries at most 3 roundings and
    ``hypot`` errs by less than 1 ulp, so a step whose q lies below
    fl(Q * (1 - ``TIE_GAP``)) has a smaller ``hypot`` than Q's step, and the
    step of the largest modulus passes the mask when it is added.  The other
    starts go, in row-major order, to :func:`sup_error_for_start` itself, so
    every NaN, overflow and first-exception rule is the reference's:
    ``np.maximum`` carries a NaN q into Q, and an infinite or overflowed q
    is above ``Q_MAX``.

    A table with a complex entry steps every start at once, step after
    step, each entry by the scalar function's complex product
    (:func:`_step_grid`).  A table of real entries is screened by axes
    (:func:`_screen_axes`), which returns the same floats, sends the same
    starts to the scalar function and so raises its first exception:

    * The axis split.  With a real c_n, ``re *= c`` never reads ``im`` and
      ``im *= c`` never reads ``re``: the real part of b_n at start x + iy
      depends on x alone, and its imaginary part on y alone.  So each axis
      is stepped on its own, a product at a time, in order, and A_n =
      (re_n - a_n.re)^2 and B_n = (im_n - a_n.im)^2 are squared per axis;
      the q of start (x_i, y_j) is fl(A_n,i + B_n,j), the float of the
      per-step loop.
    * The stop rule.  Rounding is monotone, so U_n = fl(max A_n + max B_n)
      bounds every start's q at step n, and ``np.max`` carries a NaN into
      U_n.  Each block of steps is ranked in decreasing U_n, a NaN U_n
      first, and stops at its first U_n below fl(m * (1 - ``TIE_GAP``)), m
      the least largest q then over the starts that are not NaN.  A skipped
      step has no NaN q, and a largest q only grows, so for a start with no
      NaN q among the ranked steps each skipped q lies below fl(Q * (1 -
      ``TIE_GAP``)): it changes neither Q nor, by the bound above, the
      largest modulus.  A start with a NaN q among the ranked steps is
      undecided on both routes.  So neither the skipped steps nor the order
      of the ranked ones change a returned float.
    """
    if coeffs is None:
        return np.array(
            [sup_error_for_start(sys, pseudo, complex(x, y), horizon) for x in res for y in ims]
        )
    res, ims = np.asarray(res, dtype=float), np.asarray(ims, dtype=float)
    table = np.asarray(coeffs, dtype=complex)[: max(min(horizon, pseudo.horizon) - 1, 0)]
    ranking = _Ranking((len(res), len(ims)))
    with np.errstate(over="ignore", invalid="ignore"):
        if table.imag.any():  # NaN too
            _step_grid(res, ims, table, pseudo.a, ranking)
        else:
            a = np.asarray(pseudo.a[: len(table) + 1], dtype=complex)
            _screen_axes(res, ims, table.real, a, ranking)
        worst, undecided = ranking.errors()
    if undecided.any():
        worst[undecided] = [
            sup_error_for_start(sys, pseudo, complex(res[i], ims[j]), horizon)
            for i, j in zip(*np.nonzero(undecided))
        ]
    return worst.ravel()


def _step_grid(
    res: np.ndarray, ims: np.ndarray, table: np.ndarray, a: Sequence[complex], ranking: _Ranking
) -> None:
    """Rank the q of every step of every start of the grid, the starts
    stepped at once, in place, through preallocated buffers: b_1 is the
    start, and each later step is the scalar function's complex product
    c_n * b, its float operations in the same order (:func:`_step_parts`),
    for every entry of the table, a real one too."""
    shape = (len(res), len(ims))
    re, im, new_re, t, d_re, d_im, q = (np.empty(shape) for _ in range(7))
    re[...], im[...] = res[:, None], ims
    for a_n, c in zip(a, [None, *table.tolist()]):
        if c is not None:  # b_1 is the start itself
            re, new_re = _step_parts(re, im, c, new_re, t)
        np.subtract(re, a_n.real, out=d_re)
        np.subtract(im, a_n.imag, out=d_im)
        np.multiply(d_re, d_re, out=q)
        q += np.multiply(d_im, d_im, out=t)
        ranking.add(q, d_re, d_im)


def _screen_axes(
    res: np.ndarray, ims: np.ndarray, c: np.ndarray, a: np.ndarray, ranking: _Ranking
) -> None:
    """Rank the q of a real table's steps by axes, in decreasing bound U_n
    on each block's steps, and stop a block below the least largest q times
    1 - ``TIE_GAP``: the axis split and the stop rule of :func:`_sup_errors`.
    The axis arrays are made a block of ``systems._ORBIT_BLOCK`` steps at a
    time, so memory is O(grid^2 + block * grid) at any horizon."""
    q = np.empty((len(res), len(ims)))
    factors = np.concatenate(([1.0], c))  # b_1 is the start, times 1.0
    last_re, last_im = res, ims
    for start in range(0, len(factors), _ORBIT_BLOCK):
        steps = slice(start, start + _ORBIT_BLOCK)
        d_re, last_re = _axis_distances(last_re, factors[steps], a.real[steps])
        d_im, last_im = _axis_distances(last_im, factors[steps], a.imag[steps])
        sq_re, sq_im = d_re * d_re, d_im * d_im
        bound = sq_re.max(axis=1) + sq_im.max(axis=1)
        for n in np.argsort(-np.where(np.isnan(bound), np.inf, bound)):
            if bound[n] < np.fmin.reduce(ranking.best, axis=None) * (1.0 - TIE_GAP):
                break
            ranking.add(np.add(sq_re[n][:, None], sq_im[n], out=q), d_re[n][:, None], d_im[n])


def _axis_distances(
    last: np.ndarray, c: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(the distances b_n - a_n of one axis over a block of steps, a row per
    step, and b at its last step): b_n = b_{n-1} * c_n, from ``last``, by
    one ``np.multiply.accumulate``."""
    rows = np.empty((len(c) + 1, len(last)))
    rows[0], rows[1:] = last, c[:, None]
    np.multiply.accumulate(rows, axis=0, out=rows)
    last = rows[-1].copy()
    return np.subtract(rows[1:], a[:, None], out=rows[1:]), last


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
    evaluated as arrays by :func:`_sup_errors`, from the coefficient array
    of ``sys.tables`` read once per search.  A table with a complex entry
    steps all ``grid``^2 starts through each entry's complex product.  On a
    table of real c_n the grid separates: the real part of each b_n depends
    on the start's real part alone, and the imaginary part on its imaginary
    part alone, so each round steps 2 * ``grid`` parts instead of
    ``grid``^2 starts, and ranks a step only where fl(max A_n + max B_n),
    which bounds every start's squared distance at that step, reaches the
    grid's least largest one times 1 - ``TIE_GAP`` (see :func:`_sup_errors`
    for the proof that the skipped steps and the order change no value).
    The acceptance-9 search at H = 60 ranks 10 to 13 of 60 steps a round.
    A ``horizon``, ``grid`` or ``refinements`` that is not an int of at
    least 1, 2 or 0, checked before any table, and a region whose grid span
    is not finite (a huge centre; its grid would hold NaN), raise
    ValueError.
    """
    check_count(horizon, "horizon", 1)
    check_count(grid, "grid", 2)
    check_count(refinements, "refinements", 0)
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
    coeffs = sys.tables(min(horizon, pseudo.horizon) - 1)[0]  # None for the sinusoid
    best_b1 = center
    best_err = float(_sup_errors(sys, pseudo, [center.real], [center.imag], horizon, coeffs)[0])
    for _ in range(refinements + 1):
        res = np.linspace(center.real - radius, center.real + radius, grid)
        ims = (np.linspace(center.imag - radius, center.imag + radius, grid)
               if coeffs is not None else [0.0])
        errs = _sup_errors(sys, pseudo, res, ims, horizon, coeffs)
        better = errs < best_err  # NaN never qualifies
        if better.any():
            i = int(np.argmin(np.where(better, errs, np.inf)))
            best_err = float(errs[i])
            best_b1 = complex(res[i // len(ims)], ims[i % len(ims)])
        center = best_b1
        radius /= 4.0
    return best_b1, best_err


def refined_cell_size(region: SearchRegion, grid: int, refinements: int) -> float:
    """Grid spacing of the final refinement round, for counts as :func:`best_b1_search`'s."""
    check_count(grid, "grid", 2)
    check_count(refinements, "refinements", 0)
    return (2.0 * region.radius / (grid - 1)) / 4.0**refinements
