"""Independent ground truth: exact rational orbits and brute-force search.

These routines deliberately avoid the analytic constructions they are
used to validate.  ``exact_propagate`` and ``exact_difference`` run the
recurrences in :class:`fractions.Fraction` arithmetic, so their output
carries no rounding at all; ``best_b1_search`` finds a near-optimal
shadowing start point by refined grid evaluation, an upper bound on the
true optimum by construction.

Exact arithmetic is restricted to the linear families with rational
parameters and real rational data; the sinusoid family is transcendental
and has no rational orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import UnsupportedFamily
from .systems import MapSystem, PolicyKind, PseudoOrbit, ResidualPolicy


@dataclass(frozen=True)
class RationalOrbit:
    """Exact pseudo-orbit data: values, rate products and partial sums.

    ``a[i]`` is a_{i+1}; ``coefficient_products[i]`` is prod_{j<=i+1} c_j;
    ``partial_sums[i]`` is S_{i+1} = sum_{j<=i+1} prod_{j<i'<=i+1} p_i'.
    """

    a: tuple
    coefficient_products: tuple
    partial_sums: tuple

    def value(self, n: int) -> Fraction:
        return self.a[n - 1]

    def product(self, n: int) -> Fraction:
        return self.coefficient_products[n - 1]

    def partial_sum(self, n: int) -> Fraction:
        return self.partial_sums[n - 1]


def _rational_coefficients(sys: MapSystem, horizon: int) -> list[Fraction]:
    if not sys.is_linear:
        raise UnsupportedFamily(
            "exact arithmetic is only available for linear families"
        )
    return [sys.rational_coefficient(n) for n in range(1, horizon + 1)]


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
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if policy is None:
        policy = ResidualPolicy(kind=PolicyKind.CONSTANT_REAL)
    coeffs = _rational_coefficients(sys, horizon)
    a = [Fraction(a1)]
    products = []
    sums = []
    prod = Fraction(1)
    S = Fraction(0)
    for n in range(1, horizon + 1):
        c = coeffs[n - 1]
        prod *= c
        p = abs(c)
        S = S * p + 1
        products.append(prod)
        sums.append(S)
        if n < horizon:
            a.append(c * a[-1] + policy.rational_residual(n, Fraction(eps)))
    return RationalOrbit(
        a=tuple(a), coefficient_products=tuple(products), partial_sums=tuple(sums)
    )


def exact_difference(
    sys: MapSystem,
    a1: Fraction,
    b1: Fraction,
    residuals: Sequence[Fraction],
    horizon: int,
) -> list[Fraction]:
    """d_n = b_n - a_n by exact direct propagation of both orbits."""
    coeffs = _rational_coefficients(sys, horizon)
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
    coeffs = _rational_coefficients(sys, n)
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
    """sup_{n<=horizon} |b_n - a_n| for the true orbit started at b1."""
    b = complex(b1)
    worst = abs(b - pseudo.value(1))
    for n in range(1, min(horizon, pseudo.horizon)):
        b = sys.eval_map(n, b)
        worst = max(worst, abs(b - pseudo.value(n + 1)))
    return worst


def _sup_errors(
    sys: MapSystem, pseudo: PseudoOrbit, starts: np.ndarray, horizon: int
) -> np.ndarray:
    """:func:`sup_error_for_start` for every start point of ``starts`` at once.

    Bit-identical to the scalar function elementwise: each step repeats
    its float operations in the same order.  The product c_n * b is
    written out as Python's complex product (numpy's may fuse the
    multiply-add), the modulus is ``hypot`` as in ``abs(complex)``, and
    the running maximum keeps the first argument unless the second is
    greater, as ``max`` does.

    A start point fails where the scalar function would raise: a modulus
    that overflows from finite parts (``abs`` raises
    :class:`OverflowError`) or a failing map evaluation.  If any fails,
    the exception of the first failing one in ``starts`` is raised, as a
    loop over the scalar function would.
    """
    failures: dict[int, Exception] = {}  # start index -> its first exception

    def modulus(d: np.ndarray) -> np.ndarray:
        x = np.hypot(d.real, d.imag)
        for i in np.flatnonzero(np.isinf(x) & np.isfinite(d.real) & np.isfinite(d.imag)):
            failures.setdefault(int(i), OverflowError("absolute value too large"))
        return x

    def mapped(n: int, i: int, z: complex) -> complex:
        try:
            return sys.eval_map(n, z)
        except (ArithmeticError, ValueError) as exc:
            failures.setdefault(i, exc)
            return complex(math.nan, math.nan)

    b = np.asarray(starts, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        worst = modulus(b - pseudo.value(1))
        for n in range(1, min(horizon, pseudo.horizon)):
            if sys.is_linear:
                try:
                    c = sys.coefficient(n)
                except (ArithmeticError, ValueError) as exc:
                    for i in range(b.size):
                        failures.setdefault(i, exc)
                    break
                step = np.empty_like(b)
                step.real = c.real * b.real - c.imag * b.imag
                step.imag = c.real * b.imag + c.imag * b.real
                b = step
            else:
                b = np.array([mapped(n, i, z) for i, z in enumerate(b)], dtype=complex)
            x = modulus(b - pseudo.value(n + 1))
            worst = np.where(x > worst, x, worst)
    if failures:
        raise failures[min(failures)]
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

    Each round evaluates its whole grid as one array and returns exactly
    what a loop over :func:`sup_error_for_start` in row-major order (real
    part outer) with a strict ``<`` update would return.
    """
    if grid < 2 or refinements < 0:
        raise ValueError("need grid >= 2 and refinements >= 0")
    center = complex(region.center)
    radius = float(region.radius)
    best_b1 = center
    best_err = float(_sup_errors(sys, pseudo, np.array([center]), horizon)[0])
    for _ in range(refinements + 1):
        cands = np.empty((grid, grid), dtype=complex)
        cands.real = np.linspace(center.real - radius, center.real + radius, grid)[:, None]
        cands.imag = np.linspace(center.imag - radius, center.imag + radius, grid)
        cands = cands.ravel()
        errs = _sup_errors(sys, pseudo, cands, horizon)
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
