"""Time-indexed map families and pseudo-orbit generation.

A system is a family of maps F(n, .) on the complex plane (or the real
line), indexed by the step n >= 1, together with a per-step growth rate
p_n that is either an upper Lipschitz bound (contracting rate) or a
lower expansion bound (expanding rate) of F(n, .).

Four parameterized families are built in:

* ``periodic_linear``       -- z -> c_n z with coefficients cycling
  through a fixed tuple (default (2, 1/3)).
* ``index_scaled_linear``   -- z -> 3n z at odd steps, z/(2n) at even
  steps (scales configurable).
* ``power_two_parity``      -- z -> 2^n z at odd steps, 2^-(n+3) z at
  even steps (base and shift configurable).
* ``affine_sinusoid``       -- x -> 3x + sin(x/n)/n on the real line,
  an expanding map with rate 3 - 1/n^2.

Only these parameterized families are supported: their difference
quotients can be evaluated exactly, which the shadowing constructions
rely on.

Each linear family states its multiplier c_n twice, over a range of steps:
as floats and as exact reduced pairs.  The rates and the log rates read
these two, and the scalars ``coefficient(n)`` and ``growth_rate(n)`` are
entry 0 of the float and rate tables of the one step n.
A float table is built over its whole range at once: the periodic cycle
and its moduli are tiled; the index-scaled and parity families fill one
complex array a parity class at a time, by float64 division where the
integers convert exactly, by ``ldexp`` for a parity base 2**s, and by a
running bigint product for any other rational base.  The sinusoid's rates
are one array expression.
"""

from __future__ import annotations

import cmath
import math
from math import gcd
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from sys import float_info
from typing import Optional, Sequence, Union

import numpy as np

from .errors import UnsupportedFamily

Number = Union[int, float, Fraction]

#: Largest magnitude an orbit value may reach before generation truncates.
OVERFLOW_LIMIT = 1e300

#: Fractional part multiplier of the low-discrepancy phase policy.
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class Family(str, Enum):
    PERIODIC_LINEAR = "periodic_linear"
    INDEX_SCALED_LINEAR = "index_scaled_linear"
    POWER_TWO_PARITY = "power_two_parity"
    AFFINE_SINUSOID = "affine_sinusoid"


@dataclass(frozen=True)
class MapSystem:
    """A time-indexed family of maps with known growth rates."""

    family: Family
    params: tuple

    def __post_init__(self) -> None:
        # c_n divides by the index-scaled even scale and by the parity base
        divisor = {Family.INDEX_SCALED_LINEAR: 1, Family.POWER_TWO_PARITY: 0}.get(self.family)
        if divisor is not None and self.params[divisor] == 0:
            raise ValueError("growth rate must be positive")

    # -- linear structure ------------------------------------------------

    @property
    def is_linear(self) -> bool:
        return self.family is not Family.AFFINE_SINUSOID

    def coefficients(self, horizon: int) -> list[complex]:
        """c_1 .. c_horizon of a linear family as floats, in one pass."""
        return self._floats(range(1, horizon + 1))

    def coefficient_pairs(self, horizon: int) -> list[tuple[int, int]]:
        """c_1 .. c_horizon as exact reduced pairs, in one pass;
        :class:`UnsupportedFamily` where a c_n reads a float or complex
        parameter."""
        pairs = self._pairs(range(1, horizon + 1))
        if None in pairs:
            raise UnsupportedFamily(
                f"family {self.family.value} with non-rational parameters has "
                "no exact coefficient"
            )
        return pairs

    def log_rates(self, horizon: int) -> list[float]:
        """ln p_1 .. ln p_horizon; where p_n overflows a float, finite for
        rational parameters and a float parity base, else ``inf``."""
        return self._log_rates(range(1, horizon + 1))

    def _floats(self, ns: range) -> list[complex]:
        """c_n for the consecutive steps ns, correctly rounded to complex, and
        the infinity of its sign past the float range."""
        if self.family is Family.PERIODIC_LINEAR:
            return _cycle(self._cycle_floats(), ns)
        return self._float_table(ns).tolist()

    def _cycle_floats(self) -> list[complex]:
        """The cycle of ``periodic_linear``; rational entries are carried as
        integer pairs."""
        return [_quotient(*x) if (x := _exact(c)) else complex(c) for c in self.params]

    def _float_table(self, ns: range) -> np.ndarray:
        """:meth:`_floats` of an index-scaled or parity family as one complex
        array, filled a parity class at a time over the whole range."""
        table = np.empty(len(ns), dtype=complex)
        if self.family is Family.INDEX_SCALED_LINEAR:
            # scale*n at odd steps, 1/(scale*n) at even ones; see _rational_table
            for steps, scale, invert in zip(_parity_classes(ns), self.params, (False, True)):
                table[steps.start - ns.start::2] = (
                    _rational_table(*_exact(scale), steps, invert) if _rational(scale)
                    else [complex(1.0 / (scale * n) if invert else scale * n) for n in steps]
                )
            return table
        if self.family is Family.POWER_TWO_PARITY:
            base, even_shift = self.params
            power = _power_of_two(base)
            for steps, exponents in _parity_exponents(ns, even_shift):
                if power is not None:  # base = 2**power: c_n = 2**(power*e)
                    table[steps.start - ns.start::2] = _ldexp_table(power, exponents)
                elif not _rational(base):  # float powers round per index
                    table[steps.start - ns.start::2] = [_float_power(base, e) for e in exponents]
                else:  # c_{n+2} = c_n * base**(e_{n+2} - e_n)
                    first, ratio = Fraction(base) ** exponents[0], Fraction(base) ** exponents.step
                    table[steps.start - ns.start::2] = _geometric(first, ratio, len(steps))
            return table
        raise UnsupportedFamily(f"{self.family.value} is not linear")

    def _pairs(self, ns: range) -> list[Optional[tuple[int, int]]]:
        """c_n for the consecutive steps ns as reduced (numerator, denominator)
        pairs, the sign on the numerator; ``None`` where c_n reads a float or
        complex parameter, whose binary value is not the rational meant."""
        if self.family is Family.PERIODIC_LINEAR:
            return _cycle([_exact(c) for c in self.params], ns)
        table: list[Optional[tuple[int, int]]] = [None] * len(ns)
        if self.family is Family.INDEX_SCALED_LINEAR:
            # p*n/q and q/(p*n), with gcd(p, q) = 1 so that gcd(n, q) reduces both
            odd, even = _parity_classes(ns)
            if odd_scale := _exact(self.params[0]):
                p, q = odd_scale
                table[odd.start - ns.start::2] = [(p * n // (g := gcd(n, q)), q // g) for n in odd]
            if even_scale := _exact(self.params[1]):
                u, v = even_scale if even_scale[0] > 0 else (-even_scale[0], -even_scale[1])
                table[even.start - ns.start::2] = [
                    (v // (g := gcd(n, v)), u * n // g) for n in even
                ]
            return table
        if self.family is Family.POWER_TWO_PARITY:
            base, even_shift = self.params
            if not _rational(base):
                return table
            bn, bd = _exact(base)
            for steps, exponents in _parity_exponents(ns, even_shift):
                # base**e from running powers over |e|, least where e crosses zero:
                # a running product of the pairs would not be reduced there (8/1 * 1/4)
                first, last = abs(exponents[0]), abs(exponents[-1])
                low = min(first, last) if (exponents[0] < 0) == (exponents[-1] < 0) else first % 2
                xs, ys = [bn**low], [bd**low]
                for _ in range((max(first, last) - low) // 2):
                    xs.append(xs[-1] * bn * bn)
                    ys.append(ys[-1] * bd * bd)
                table[steps.start - ns.start::2] = [
                    (xs[i], ys[i]) if e >= 0 else (ys[i], xs[i]) if xs[i] > 0 else (-ys[i], -xs[i])
                    for e in exponents
                    for i in [(abs(e) - low) // 2]
                ]
            return table
        raise UnsupportedFamily(f"{self.family.value} is not linear")

    def _log_rates(self, ns: range) -> list[float]:
        """ln p_n for n in ns: ln|num| - ln den from the exact pair, else
        ln of the table's rate, and e*ln(base) for a float parity base
        whose power base**e is past the float range."""
        log = math.log
        pairs = self._pairs(ns) if self.is_linear else [None] * len(ns)
        if None not in pairs:
            return [log(abs(num)) - log(den) for num, den in pairs]
        out = []
        for n, pair, p in zip(ns, pairs, self._tables(ns)[1]):
            if pair is not None:
                out.append(log(abs(pair[0])) - log(pair[1]))
            elif 0.0 < p < math.inf or self.family is not Family.POWER_TWO_PARITY:
                out.append(log(p))  # inf, NaN or a math domain error at zero, as ln p_n
            else:
                out.append(_parity_exponent(n, self.params[1]) * log(float(self.params[0])))
        return out

    def coefficient(self, n: int) -> complex:
        """c_n (F(n,z) = c_n z): entry n of :meth:`coefficients`, the infinity
        of its sign past the float range."""
        return self._floats(_step(n))[0]

    # -- evaluation ------------------------------------------------------

    def eval_map(self, n: int, z: complex) -> complex:
        """Evaluate F(n, z)."""
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        if self.is_linear:
            return self.coefficient(n) * complex(z)
        (slope,) = self.params
        z = complex(z)
        if z.imag == 0.0:
            x = z.real
            return complex(slope * x + math.sin(x / n) / n, 0.0)
        return slope * z + cmath.sin(z / n) / n

    def eval_q(self, n: int, u: complex, v: complex) -> complex:
        """Difference quotient (F(n,u) - F(n,v)) / (u - v).

        For ``u == v`` the analytic derivative of F(n, .) at u is
        returned; every built-in family is differentiable.
        """
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        if self.is_linear:
            return self.coefficient(n)
        (slope,) = self.params
        u = complex(u)
        v = complex(v)
        if u == v:
            if u.imag == 0.0:
                return complex(slope + math.cos(u.real / n) / n**2, 0.0)
            return slope + cmath.cos(u / n) / n**2
        if u.imag == 0.0 and v.imag == 0.0:
            x, y = u.real, v.real
            return complex(
                slope + (math.sin(x / n) - math.sin(y / n)) / (n * (x - y)), 0.0
            )
        return slope + (cmath.sin(u / n) - cmath.sin(v / n)) / (n * (u - v))

    def growth_rate(self, n: int) -> float:
        """Per-step growth rate p_n (always positive): entry n of
        :meth:`rates`, ``inf`` past the float range."""
        return self._tables(_step(n))[1][0]

    def rates(self, horizon: int) -> list[float]:
        """Growth rates p_1 .. p_horizon."""
        return self.tables(horizon)[1]

    def tables(self, horizon: int) -> tuple[Optional[list[complex]], list[float]]:
        """(c_1 .. c_horizon, p_1 .. p_horizon) from one coefficient table.

        The coefficients are ``None`` for the nonlinear family.  Each rate
        is |c_n| by C ``hypot``, as ``abs(complex)`` computes it, and
        ``inf`` past the float range.
        """
        return self._tables(range(1, horizon + 1))

    def _tables(self, ns: range) -> tuple[Optional[list[complex]], list[float]]:
        """:meth:`tables` for the consecutive steps ns."""
        if not self.is_linear:
            steps = np.arange(ns.start, ns.stop, dtype=float)
            return None, _expanding_rate(self.params[0], steps).tolist()
        if self.family is Family.PERIODIC_LINEAR:
            cycle = self._cycle_floats()
            return _cycle(cycle, ns), _cycle(_moduli(np.array(cycle, dtype=complex)), ns)
        table = self._float_table(ns)
        return table.tolist(), _moduli(table)


def _moduli(table: np.ndarray) -> list[float]:
    """|c| of each entry of a complex array by C ``hypot``, as
    ``abs(complex)`` computes it, and ``inf`` where that overflows."""
    with np.errstate(over="ignore"):
        return np.hypot(table.real, table.imag).tolist()


def modulus(z: complex) -> float:
    """|z| by C ``hypot``, as ``abs(complex)`` and ``numpy.hypot`` compute it.

    Raises OverflowError where finite parts overflow, as ``abs`` does.
    With a NaN part the result is NaN (``inf`` if the other part is
    infinite): CPython's ``abs(complex)`` leaves errno alone there, so a
    stale ERANGE from an earlier failed call would raise instead.
    """
    if math.isnan(z.real) or math.isnan(z.imag):
        return math.hypot(z.real, z.imag)
    return abs(z)


def _expanding_rate(slope: float, n: np.ndarray) -> np.ndarray:
    """slope - 1/n^2, the affine sinusoid's expanding rate, at a float array
    of step indices: below 2**53 each is its int exactly, and ``n**2`` the
    int's square correctly rounded."""
    return float(slope) - 1.0 / n**2


def _step(n: int) -> range:
    """The one step n as a range of steps; ValueError below 1."""
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    return range(n, n + 1)


def _parity_exponent(n: int, even_shift: int) -> int:
    """e with c_n = base**e in ``power_two_parity``."""
    return n if n % 2 == 1 else -(n + even_shift)


def _parity_classes(ns: range) -> tuple[range, range]:
    """The odd and the even steps of the consecutive steps ``ns``."""
    return range(ns.start | 1, ns.stop, 2), range(ns.start + ns.start % 2, ns.stop, 2)


def _parity_exponents(ns: range, even_shift: int) -> list[tuple[range, range]]:
    """(steps, exponents) for the odd and the even steps of ``ns`` that hold
    any: the :func:`_parity_exponent` of each step, as a range."""
    odd, even = _parity_classes(ns)
    classes = (odd, odd), (even, range(-(even.start + even_shift), -(even.stop + even_shift), -2))
    return [(steps, exponents) for steps, exponents in classes if steps]


def _cycle(cycle: list, ns: range) -> list:
    """Entries n in ns of the sequence that repeats ``cycle`` from n = 1."""
    shift = (ns.start - 1) % len(cycle)
    return (cycle * (len(ns) // len(cycle) + 2))[shift : shift + len(ns)]


def _quotient(num: int, den: int) -> complex:
    """complex(Fraction(num, den)) without building the Fraction."""
    try:
        return complex(num / den)
    except OverflowError:
        return complex(math.inf if (num > 0) == (den > 0) else -math.inf, 0.0)


#: Integers below this convert to float64 exactly.
EXACT_INT_LIMIT = 2**53


def _rational_table(p: int, q: int, ns: range, invert: bool) -> np.ndarray:
    """complex((p*n)/q) for n in ns, or complex(q/(p*n)) if ``invert``.

    Where q and |p*n| are below 2**53 the quotients are taken in float64
    arrays: both operands convert exactly, so one IEEE division gives the
    correctly rounded quotient, as int true division does.  Larger
    integers, and p = 0, go through ``_quotient``.
    """
    if q >= EXACT_INT_LIMIT or p == 0:
        head = ns[:0]
    else:
        head = range(ns.start, min(ns.stop, (EXACT_INT_LIMIT - 1) // abs(p) + 1), ns.step)
    table = np.empty(len(ns), dtype=complex)
    if head:
        scaled = np.arange(head.start, head.stop, head.step, dtype=float) * p
        table[:len(head)] = q / scaled if invert else scaled / q
    table[len(head):] = [
        _quotient(q, p * n) if invert else _quotient(p * n, q) for n in ns[len(head):]
    ]
    return table


def _power_of_two(base: Number) -> Optional[int]:
    """s with base = 2**s, for a positive rational base whose reduced
    numerator and denominator are powers of two; else None."""
    pair = _exact(base)
    if pair is None or pair[0] <= 0 or pair[0] & (pair[0] - 1) or pair[1] & (pair[1] - 1):
        return None
    return pair[0].bit_length() - pair[1].bit_length()


def _ldexp_table(power: int, exponents: range) -> np.ndarray:
    """2**(power*e) for e in exponents, rounded to float from the exponent
    alone.  ``ldexp`` rounds to nearest even, as ``_quotient``'s int true
    division does: exact in the float range, a subnormal or 0.0 below it,
    and ``inf`` above it, where the division overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, power * np.arange(exponents.start, exponents.stop, exponents.step))


def _float_power(base: float, e: int) -> complex:
    """complex(float(base) ** e) for base > 0, inf where it overflows."""
    try:
        return complex(float(base) ** e)
    except OverflowError:
        return complex(math.inf, 0.0)


def _geometric(value: Fraction, ratio: Fraction, count: int) -> np.ndarray:
    """complex(value * ratio**k) for 0 <= k < count, count >= 1, for
    positive value and ratio.

    A running integer product, not reduced: the correctly rounded
    quotient depends only on its exact value.  Once a value leaves the
    float range (inf or 0.0) in the direction the ratio moves it, every
    later one rounds to the same limit, so the rest are filled in.
    """
    num, den = value.numerator, value.denominator
    rnum, rden = ratio.numerator, ratio.denominator
    values = []
    for _ in range(count):
        values.append(c := _quotient(num, den))
        if (c.real == math.inf and rnum >= rden) or (c.real == 0.0 and rnum <= rden):
            break
        num *= rnum
        den *= rden
    table = np.full(count, values[-1], dtype=complex)
    table[:len(values)] = values
    return table


def _rational(x: Number) -> bool:
    return type(x) is int or type(x) is Fraction  # isinstance on a Fraction is slow


def _exact(x: Number) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an int or a Fraction, else None."""
    if type(x) is int:
        return x, 1
    return (x._numerator, x._denominator) if type(x) is Fraction else None


# -- factories -----------------------------------------------------------


def _require_finite(*params: Number) -> None:
    """ValueError for a NaN or infinite parameter."""
    for x in params:
        if not _rational(x) and not cmath.isfinite(complex(x)):
            raise ValueError(f"parameters must be finite, got {x!r}")


def periodic_linear(coeffs: Sequence[Number] = (2, Fraction(1, 3))) -> MapSystem:
    """Linear maps whose coefficients cycle through ``coeffs``."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("periodic_linear needs at least one coefficient")
    _require_finite(*coeffs)
    if any(c == 0 for c in coeffs):  # no float conversion: an int may pass the float range
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.PERIODIC_LINEAR, params=coeffs)


def index_scaled_linear(odd_scale: Number = 3, even_inverse_scale: Number = 2) -> MapSystem:
    """Linear maps c_n z with c_n = odd_scale*n (odd n), 1/(even_inverse_scale*n) (even n)."""
    _require_finite(odd_scale, even_inverse_scale)
    if odd_scale == 0:
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.INDEX_SCALED_LINEAR, params=(odd_scale, even_inverse_scale))


def power_two_parity(base: int = 2, even_shift: int = 3) -> MapSystem:
    """Linear maps c_n z with c_n = base^n (odd n), base^-(n+even_shift) (even n)."""
    if isinstance(even_shift, bool) or not isinstance(even_shift, int):
        raise ValueError(f"even_shift must be an integer, got {even_shift!r}")
    _require_finite(base)
    if base < 0:
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.POWER_TWO_PARITY, params=(base, even_shift))


def affine_sinusoid(slope: float = 3.0) -> MapSystem:
    """Real maps x -> slope*x + sin(x/n)/n; expanding rate slope - 1/n^2."""
    _require_finite(slope)
    if slope <= 1.0:
        raise ValueError("affine_sinusoid requires slope > 1 for a positive expanding rate")
    return MapSystem(family=Family.AFFINE_SINUSOID, params=(slope,))


#: The factory of each family; its parameter names are the family's keys.
FACTORIES = {
    Family.PERIODIC_LINEAR: periodic_linear,
    Family.INDEX_SCALED_LINEAR: index_scaled_linear,
    Family.POWER_TWO_PARITY: power_two_parity,
    Family.AFFINE_SINUSOID: affine_sinusoid,
}


# -- residual policies ---------------------------------------------------


class PolicyKind(str, Enum):
    CONSTANT_REAL = "constant_real"
    CONSTANT_PHASE = "constant_phase"
    LOW_DISCREPANCY_PHASE = "low_discrepancy_phase"
    ZERO = "zero"


@dataclass(frozen=True)
class ResidualPolicy:
    """Deterministic rule producing residuals with |r_n| <= epsilon.

    All policies are pure functions of (kind, theta, n, epsilon); two
    calls with the same arguments produce bit-identical residuals.
    """

    kind: PolicyKind = PolicyKind.CONSTANT_REAL
    theta: float = 0.0

    def residual(self, n: int, epsilon: float) -> complex:
        if self.kind is PolicyKind.ZERO:
            return 0j
        if self.kind is PolicyKind.CONSTANT_REAL:
            return complex(epsilon, 0.0)
        if self.kind is PolicyKind.CONSTANT_PHASE:
            r = epsilon * cmath.exp(1j * self.theta)
        else:
            r = epsilon * cmath.exp(2j * math.pi * math.fmod(n * GOLDEN_CONJUGATE, 1.0))
        if 0.0 < epsilon < float_info.min:
            # a subnormal product rounds each part to a coarse grid, and |r|
            # can land above epsilon: step both parts toward zero
            while abs(r) > epsilon:
                r = complex(math.nextafter(r.real, 0.0), math.nextafter(r.imag, 0.0))
        return r

    def rational_residual(self, n: int, epsilon: Fraction) -> Fraction:
        if self.kind is PolicyKind.ZERO:
            return Fraction(0)
        if self.kind is PolicyKind.CONSTANT_REAL:
            return Fraction(epsilon)
        raise UnsupportedFamily(
            f"policy {self.kind.value} has no exact rational form"
        )


@dataclass(frozen=True)
class PseudoOrbit:
    """An approximate orbit a_{n+1} = F(n, a_n) + r_n with |r_n| <= epsilon.

    ``a`` holds a_1 .. a_N and ``r`` holds r_1 .. r_{N-1}, with N the
    ``horizon``: any other lengths raise ``ValueError``, as does a step
    index outside 1..N (1..N-1 for a residual).  ``truncated``
    is set when generation stopped early because the orbit left the
    representable range; ``horizon`` is then the last finite index.
    """

    a: tuple
    r: tuple
    epsilon: float
    horizon: int
    policy: ResidualPolicy
    truncated: bool = False

    def __post_init__(self) -> None:
        if not len(self.a) == self.horizon == len(self.r) + 1:
            raise ValueError(
                "a pseudo-orbit needs len(a) == horizon == len(r) + 1, got "
                f"len(a) = {len(self.a)}, horizon = {self.horizon}, len(r) = {len(self.r)}"
            )

    def value(self, n: int) -> complex:
        return self.a[_step_index(n, self.horizon)]

    def residual(self, n: int) -> complex:
        return self.r[_step_index(n, self.horizon - 1)]


def _step_index(n: int, last: int) -> int:
    """The position n - 1 of step n in a table of steps 1..last; ValueError
    outside that range, where the index would wrap or run off the end."""
    if not 1 <= n <= last:
        raise ValueError(f"step index must be in 1..{last}, got {n}")
    return n - 1


def generate_pseudo_orbit(
    sys: MapSystem,
    a1: complex,
    epsilon: float,
    policy: ResidualPolicy,
    horizon: int,
) -> PseudoOrbit:
    """Propagate a_1 forward under F with policy-generated residuals.

    ``epsilon`` must be finite and nonnegative.  The residual of the three
    constant policies is read once; ``low_discrepancy_phase`` reads it per
    step.  A linear family steps through its coefficient table, so a step
    makes no call; the nonlinear family steps through ``eval_map``.
    Generation stops at the first value that is not finite or exceeds
    ``OVERFLOW_LIMIT`` in either part.
    """
    return _pseudo_orbit(sys, a1, epsilon, policy, horizon, None)


def _check_orbit_request(epsilon: float, horizon: int) -> None:
    """The checks :func:`generate_pseudo_orbit` makes before any work."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")


def _pseudo_orbit(
    sys: MapSystem, a1: complex, epsilon: float, policy: ResidualPolicy, horizon: int,
    coeffs: Optional[list], head: Optional[PseudoOrbit] = None,
) -> PseudoOrbit:
    """:func:`generate_pseudo_orbit`, stepping a linear family through
    ``coeffs`` when given: a table the caller already holds, c_1 .. c_M
    with M >= horizon - 1.  ``head``, an orbit up to a shorter horizon, is
    kept as given and stepped on from its last value; ``a1`` is then unused.

    One loop steps both kinds of family: a linear step multiplies by its
    table entry, a nonlinear one calls ``eval_map``."""
    _check_orbit_request(epsilon, horizon)
    start = 1 if head is None else head.horizon
    steps = range(start, horizon)
    if policy.kind is PolicyKind.LOW_DISCREPANCY_PHASE:
        residuals = (policy.residual(n, epsilon) for n in steps)
    else:
        residuals = [policy.residual(1, epsilon)] * len(steps) if steps else []
    if head is None:
        z = complex(a1)
        a, r = [z], []
    else:
        a, r, z = list(head.a), list(head.r), head.a[-1]
    linear = sys.is_linear
    if coeffs is None and linear:
        coeffs = sys.coefficients(horizon - 1)
    # x is c_n for a linear family and n for the nonlinear one: a step index
    # beside c_n would cost a linear orbit about a tenth more.  An overflowing
    # c_n is inf in the table, and cmath.sin past the float range raises:
    # either way the step is not finite and truncates.  Complex * and + give
    # inf or NaN, they do not raise.  zip stops at the residuals.
    operands = islice(coeffs, start - 1, None) if linear else steps
    eval_map = sys.eval_map
    truncated = False
    for x, r_n in zip(operands, residuals):
        try:
            z = (x * z if linear else eval_map(x, z)) + r_n
        except OverflowError:
            z = complex(math.nan, math.nan)
        if not (abs(z.real) <= OVERFLOW_LIMIT and abs(z.imag) <= OVERFLOW_LIMIT):
            truncated = True
            break
        a.append(z)
        r.append(r_n)
    return PseudoOrbit(
        a=tuple(a),
        r=tuple(r),
        epsilon=epsilon,
        horizon=len(a),
        policy=policy,
        truncated=truncated,
    )
