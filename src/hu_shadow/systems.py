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
  even steps (base, an int or Fraction above 0, and shift configurable).
* ``affine_sinusoid``       -- x -> 3x + sin(x/n)/n on the real line,
  an expanding map with rate 3 - 1/n^2.

Only these parameterized families are supported: their difference
quotients can be evaluated exactly, which the shadowing constructions
rely on.  ``MapSystem.__post_init__`` states every rule on a parameter's
value, for a factory and a direct build alike; no c_n is zero.

Each linear family states its multiplier c_n once, as one law per residue
class n = l + 1 (mod m) of the steps (``_laws``): m constants for
``periodic_linear``, odd_scale*n and 1/(even_inverse_scale*n) for
``index_scaled_linear``, base**n and base**-(n + even_shift) for
``power_two_parity``.  Every table fills one residue class at a time, by
the float and the exact route that the law's values choose: float64
division for a rational monomial, ``ldexp`` for a base 2**s, for any other
base one stream of exact powers, held one at a time, and a float
parameter's own expression; a power past the float span is its limit, 0.0
or inf.  Every float read of c_n and p_n makes one float table: the
coefficients are that array and the rates its moduli, and a sweep lists the
entries it steps, one block at a time (``_listed``).
``MapSystem._rates`` alone states p_n, as one float array of those moduli or
the sinusoid's expression, which ``profile_of`` reads with no list between;
the scalars ``coefficient(n)`` and ``growth_rate(n)`` are entry 0 of the
tables of the one step n.

Tables are built whole, but a sweep over one may stop early.  Where every
law is a constant, c_n repeats with period m, the number of classes
(``MapSystem._period``), and a sweep whose inputs repeat with it (orbit
generation under a constant residual, the contracting construction's true
orbit and rate sums) ends each block of steps with one cycle rule,
``_cycle_closed``: once its last state equals, bit for bit, the state m
steps before, every later state repeats the last m, and the sweep repeats
them in place of stepping.  Every value is the one the steps would make.
"""

from __future__ import annotations

import cmath
import math
from math import copysign, gcd
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, islice, repeat
from numbers import Integral, Real
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import HypothesisViolation, RateRangeError, UnsupportedFamily

Number = Union[int, float, Fraction]

#: Largest magnitude an orbit value may reach before generation truncates.
OVERFLOW_LIMIT = 1e300

#: Largest horizon a scenario (directly or as 4 * analysis.window) or a default
#: witness may take: ten times the benchmark's largest.  Every step has its
#: table entries, so a larger one is refused before any table is allocated.
MAX_HORIZON = 10**5

#: Fractional part multiplier of the low-discrepancy phase policy.
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def _within_limit(z: Union[Number, complex]) -> bool:
    """Each part of z is finite and at most ``OVERFLOW_LIMIT`` in magnitude;
    an int or Fraction past the float range is not."""
    try:
        z = complex(z)
    except OverflowError:
        return False
    return abs(z.real) <= OVERFLOW_LIMIT and abs(z.imag) <= OVERFLOW_LIMIT


class Family(str, Enum):
    PERIODIC_LINEAR = "periodic_linear"
    INDEX_SCALED_LINEAR = "index_scaled_linear"
    POWER_TWO_PARITY = "power_two_parity"
    AFFINE_SINUSOID = "affine_sinusoid"


def _is_linear(family: Family) -> bool:
    """The one linearity rule: each family but the sinusoid is z -> c_n z, c_n by ``_laws``."""
    return family is not Family.AFFINE_SINUSOID


@dataclass(frozen=True)
class MapSystem:
    """A time-indexed family of maps with known growth rates."""

    family: Family
    params: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))  # its rules test by identity
        # linearity is read once here, so a step of eval_map or eval_q reads no Enum member
        object.__setattr__(self, "_linear", _is_linear(self.family))
        # the one home of the value rules, for a factory and a direct build alike: a
        # sinusoid's slope is one real, finite number above 1; a linear family has a
        # residue class, a base is an int or Fraction above 0, a shift an int, and no
        # scale is zero.  Only the factories refuse a NaN or infinite parameter.
        if not self._linear:
            if len(self.params) != 1:
                raise ValueError(f"{self.family.value} takes one slope, got {self.params!r}")
            (slope,) = self.params
            _require_finite(slope)
            if not isinstance(slope, Real):
                raise ValueError(f"slope must be real, got {slope!r}")
            if slope <= 1.0:
                raise ValueError(
                    "affine_sinusoid requires slope > 1 for a positive expanding rate"
                )
            return
        if not (laws := _laws(self.family, self.params)):
            raise ValueError(f"{self.family.value} needs at least one coefficient")
        for law in laws:
            if law.base is not None and _exact(law.base) is None:
                raise ValueError(f"base must be an int or Fraction, got {law.base!r}")
            if isinstance(law.shift, bool) or not isinstance(law.shift, int):
                raise ValueError(f"even_shift must be an integer, got {law.shift!r}")
            if law.scale == 0 or law.base is not None and law.base <= 0:
                raise ValueError("growth rate must be positive")

    # -- linear structure ------------------------------------------------

    @property
    def is_linear(self) -> bool:
        """``_is_linear(family)``, stored when the system is built."""
        return self._linear

    def require_linear(self, routine: str) -> None:
        """:class:`HypothesisViolation`, naming ``routine``, for a nonlinear family."""
        if not self.is_linear:
            raise HypothesisViolation(f"{routine} needs a linear family, got {self.family.value}")

    def coefficients(self, horizon: int) -> list[complex]:
        """c_1 .. c_horizon of a linear family as floats, in one pass."""
        return self._float_table(_steps_to(horizon)).tolist()

    def coefficient_pairs(self, horizon: int) -> list[tuple[int, int]]:
        """c_1 .. c_horizon as exact reduced pairs, the sign on the numerator, in
        one pass; :class:`UnsupportedFamily`, before any pair is made, where a c_n
        reads a float or complex parameter, whose binary value is not the rational meant."""
        ns = _steps_to(horizon)
        classes = [(steps, law.pairs(steps)) for steps, law in self._classes(ns)]
        if any(pairs is None for _, pairs in classes):
            raise UnsupportedFamily(
                f"family {self.family.value} with non-rational parameters has "
                "no exact coefficient"
            )
        table: list = [None] * len(ns)
        for steps, pairs in classes:
            table[steps.start - 1::steps.step] = pairs
        return table

    def log_rates(self, horizon: int) -> list[float]:
        """ln p_1 .. ln p_horizon: ln|num| - ln den of each exact pair as it is
        made, with no table of pairs, and from the exponent alone for a base
        2**s; else, for a float or complex parameter, ln of the table's rate."""
        ns = _steps_to(horizon)
        log = math.log
        out: list = [None] * len(ns)
        rates = None
        # the sinusoid's steps are one class with no law
        for steps, law in self._classes(ns) if self.is_linear else [(ns, None)]:
            at = slice(steps.start - 1, None, steps.step)
            base = None if law is None else law.base
            if base is not None and (power := _power_of_two(*_exact(base))):
                out[at] = _power_of_two_logs(power, law.exponents(steps))  # no power made
            elif law is not None and (pairs := law.pairs(steps)) is not None:
                out[at] = [log(abs(num)) - log(den) for num, den in pairs]
            else:
                rates = rates or self._rates(ns).tolist()
                out[at] = [_log_rate(n, p) for n, p in zip(steps, rates[at])]
        return out

    def _period(self) -> Optional[int]:
        """m with c_{n+m} = c_n, bit for bit, at every n: the number of classes
        where each law is a constant (no base and power 0), which the table
        fills with one value per class; None where some law varies with n."""
        laws = _laws(self.family, self.params) if self.is_linear else ()
        if laws and all(law.base is None and not law.power for law in laws):
            return len(laws)
        return None

    def _classes(self, ns: range) -> list[tuple[range, _Law]]:
        """(steps, law) of each residue class of the consecutive steps ns that holds any."""
        laws = _laws(self.family, self.params)
        m = len(laws)
        return [(steps, law) for l, law in enumerate(laws)
                if (steps := range(ns.start + (l + 1 - ns.start) % m, ns.stop, m))]

    def _float_table(self, ns: range) -> np.ndarray:
        """c_n for the consecutive steps ns as one complex array, correctly rounded, and
        the infinity of its sign past the float range; filled a class at a time."""
        table = np.empty(len(ns), dtype=complex)
        for steps, law in self._classes(ns):
            law.fill(table[steps.start - ns.start::steps.step], steps)
        return table

    def coefficient(self, n: int) -> complex:
        """c_n (F(n,z) = c_n z): entry n of :meth:`coefficients`, the infinity
        of its sign past the float range."""
        return self._float_table(_step(n)).tolist()[0]

    # -- evaluation ------------------------------------------------------

    def eval_map(self, n: int, z: complex) -> complex:
        """Evaluate F(n, z); the sinusoid's is one complex formula, NaN at a non-finite z."""
        if self._linear:  # no property read per step; coefficient(n) checks n
            return self.coefficient(n) * complex(z)
        if type(n) is not int or n < 1:  # the sinusoid's one check of n; _step words the refusal
            n = _step(n).start  # a numpy integer steps as its int, with the int's bits
        (slope,) = self.params
        z = complex(z)
        return slope * z + cmath.sin(z / n) / n

    def eval_q(self, n: int, u: complex, v: complex) -> complex:
        """Difference quotient (F(n,u) - F(n,v)) / (u - v).

        For ``u == v`` the analytic derivative of F(n, .) at u is
        returned; every built-in family is differentiable.  Where u - v
        overflows, the sinusoid's halves both differences first; on the
        real line that is its slope, as the real-line formula gives.
        """
        if self._linear:  # no property read per step; coefficient(n) checks n
            return self.coefficient(n)
        if type(n) is not int or n < 1:  # the sinusoid's one check of n; _step words the refusal
            n = _step(n).start  # a numpy integer steps as its int, with the int's bits
        (slope,) = self.params
        u = complex(u)
        v = complex(v)
        if u == v:
            return slope + cmath.cos(u / n) / n**2
        sines = cmath.sin(u / n) - cmath.sin(v / n)
        h = u - v
        if cmath.isinf(h) and cmath.isfinite(u) and cmath.isfinite(v):
            return slope + (sines / 2) / (n * (u / 2 - v / 2))  # not sines / (inf + NaN i)
        return slope + sines / (n * h)

    def growth_rate(self, n: int) -> float:
        """Per-step growth rate p_n (always positive): entry n of
        :meth:`rates`, ``inf`` past the float range."""
        return self._rates(_step(n)).tolist()[0]

    def rates(self, horizon: int) -> list[float]:
        """Growth rates p_1 .. p_horizon: the rates of :meth:`tables`, with no
        list of coefficients made."""
        return self._rates(_steps_to(horizon)).tolist()

    def _rates(self, ns: range) -> np.ndarray:
        """p_n for the consecutive steps ns as one float array, the one place
        p_n is stated: the moduli of a linear family's float table, the
        sinusoid's expanding rate."""
        if self.is_linear:
            return _moduli(self._float_table(ns))
        return _expanding_rate(self.params[0], np.arange(ns.start, ns.stop, dtype=float))

    def tables(self, horizon: int) -> tuple[Optional[np.ndarray], np.ndarray]:
        """(c_1 .. c_horizon, p_1 .. p_horizon) as the two arrays of one float
        coefficient table, with no list made: a sweep lists the entries it
        steps (:func:`_listed`).

        The coefficients are ``None`` for the nonlinear family.  Each rate
        is |c_n| by C ``hypot``, as ``abs(complex)`` computes it, and
        ``inf`` past the float range.
        """
        ns = _steps_to(horizon)
        if not self.is_linear:
            return None, self._rates(ns)
        table = self._float_table(ns)
        return table, _moduli(table)


def _moduli(table: np.ndarray) -> np.ndarray:
    """|c| of each entry of a complex array by C ``hypot``, as
    ``abs(complex)`` computes it, and ``inf`` where that overflows."""
    with np.errstate(over="ignore"):
        return np.hypot(table.real, table.imag)


def _listed(table: Sequence) -> Iterator:
    """The entries of a table (an array, or a list numpy reads as one) as
    Python scalars, in order, one block of ``_ORBIT_BLOCK`` listed
    (:func:`_list_block`) as a sweep first reads into it: a sweep that stops
    early lists no block past the one it stops in."""
    table = np.asarray(table)
    return chain.from_iterable(
        map(_list_block, repeat(table), range(0, len(table), _ORBIT_BLOCK))
    )


def _list_block(table: np.ndarray, start: int) -> list:
    """Entries start .. start + ``_ORBIT_BLOCK`` - 1 of ``table`` as Python scalars."""
    return table[start : start + _ORBIT_BLOCK].tolist()


def check_rates(rates: Sequence[float], first: int = 1) -> np.ndarray:
    """p_first, p_first+1, ... as one float array, after one sign scan that
    names the first rate that is not positive, NaN included, in a
    :class:`RateRangeError`; ``inf`` passes.  Every rate reader checks here."""
    arr = np.asarray(rates, dtype=float)
    bad = ~(arr > 0.0)
    if bad.any():
        i = int(bad.argmax())
        raise RateRangeError(
            f"growth rate must be positive: p_n = {float(arr[i])!r} at n = {first + i}"
        )
    return arr


def check_count(value: int, name: str, least: int) -> None:
    """The one count rule: ``value`` is an integer (``numbers.Integral``, a
    numpy integer too) that is not a bool, and at least ``least``; else a
    ``ValueError`` naming ``name``.  Every count argument checks here."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def check_nonnegative(value: float, name: str) -> None:
    """The one rule of a real that is finite and nonnegative, NaN refused."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def check_positive(value: float, name: str) -> None:
    """The one rule of a real that is finite and above 0, NaN refused."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and above 0, got {value}")


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


def _steps_to(horizon: int) -> range:
    """Steps 1 .. horizon of a table reader, after the count rule
    (:func:`check_count`): ``horizon`` is an int of at least 0."""
    check_count(horizon, "horizon", 0)
    return range(1, horizon + 1)


def _step(n: int) -> range:
    """The one step n as a range of steps, after the count rule
    (:func:`check_count`): ``n`` is an int of at least 1."""
    check_count(n, "step index", 1)
    return range(n, n + 1)


# -- class laws ----------------------------------------------------------


class _Law(NamedTuple):
    """c_n on one residue class of steps: scale * n**power * base**(n + shift),
    or its reciprocal where ``invert``; no base reads as 1.  The factories
    give power 0 or 1, and a base, an int or Fraction above 0, only with the
    default scale and power."""

    scale: Number = 1
    power: int = 0
    base: Optional[Number] = None
    shift: int = 0
    invert: bool = False

    def exponents(self, steps: range) -> range:
        """e with c_n = base**e, for the steps of this class."""
        e = range(steps.start + self.shift, steps.stop + self.shift, steps.step)
        return range(-e.start, -e.stop, -e.step) if self.invert else e

    def fill(self, out: np.ndarray, steps: range) -> None:
        """Write c_n for the steps of this class, correctly rounded to complex,
        into ``out``, a view of the table."""
        exact, scale, invert = _exact(self.scale), self.scale, self.invert
        if self.base is not None:  # a class of powers
            _power_table(out, *_exact(self.base), self.exponents(steps))
        elif not self.power:  # one constant for the class
            out[:] = _quotient(*exact) if exact else complex(scale)
        elif exact:  # a rational monomial, see _rational_table
            _rational_table(out, *exact, steps, invert)
        else:  # the float expressions
            out[:] = [complex(1.0 / (scale * n) if invert else scale * n) for n in steps]

    def pairs(self, steps: range) -> Optional[Iterable[tuple[int, int]]]:
        """c_n for the steps of this class as reduced (numerator, denominator)
        pairs, the sign on the numerator, those of a base made one at a time as
        read; None where c_n reads a float or complex parameter."""
        if (exact := _exact(self.scale if self.base is None else self.base)) is None:
            return None
        if self.base is not None:
            return _class_powers(*exact, self.exponents(steps))
        if not self.power:
            return [exact] * len(steps)
        # p*n/q, with gcd(p, q) = 1 so that gcd(n, q) reduces it, or its reciprocal
        p, q = exact
        pairs = ((p * n // (g := gcd(n, q)), q // g) for n in steps)
        return ((y, x) if x > 0 else (-y, -x) for x, y in pairs) if self.invert else pairs


def _laws(family: Family, params: tuple) -> tuple[_Law, ...]:
    """The law of c_n on each residue class n = l + 1 (mod m) of the steps."""
    if family is Family.PERIODIC_LINEAR:
        return tuple(_Law(c) for c in params)
    if family is Family.INDEX_SCALED_LINEAR:
        odd_scale, even_inverse_scale = params
        return _Law(odd_scale, power=1), _Law(even_inverse_scale, power=1, invert=True)
    if family is Family.POWER_TWO_PARITY:
        base, even_shift = params
        return _Law(base=base), _Law(base=base, shift=even_shift, invert=True)
    raise UnsupportedFamily(f"{family.value} is not linear")


def _log_rate(n: int, p: float) -> float:
    """ln p_n from the table's rate p of a law with no exact pair or of the
    sinusoid: ``inf`` or NaN as p is."""
    if p == 0.0:  # a float parameter's rate that underflowed: check_rates names it
        check_rates((p,), first=n)
    return math.log(p)


def _quotient(num: int, den: int) -> complex:
    """complex(Fraction(num, den)) without building the Fraction."""
    try:
        return complex(num / den)
    except OverflowError:
        return complex(math.inf if (num > 0) == (den > 0) else -math.inf, 0.0)


#: Integers below this convert to float64 exactly.
EXACT_INT_LIMIT = 2**53


def _rational_table(table: np.ndarray, p: int, q: int, ns: range, invert: bool) -> None:
    """complex((p*n)/q), or complex(q/(p*n)) if ``invert``, for n in ns into ``table``.

    Where q and |p*n| are below 2**53 the quotients are taken in float64
    arrays: both operands convert exactly, so one IEEE division gives the
    correctly rounded quotient, as int true division does.  Larger
    integers go through ``_quotient``.  p is not 0: no scale is.
    """
    if q >= EXACT_INT_LIMIT:
        head = ns[:0]
    else:
        head = range(ns.start, min(ns.stop, (EXACT_INT_LIMIT - 1) // abs(p) + 1), ns.step)
    if head:
        scaled = np.arange(head.start, head.stop, head.step, dtype=float) * p
        table[:len(head)] = q / scaled if invert else scaled / q
    table[len(head):] = [
        _quotient(q, p * n) if invert else _quotient(p * n, q) for n in ns[len(head):]
    ]


def _power_of_two(num: int, den: int) -> Optional[int]:
    """s with num/den = 2**s, for a reduced positive num/den whose terms are
    powers of two; else None."""
    if num & (num - 1) or den & (den - 1):
        return None
    return num.bit_length() - den.bit_length()


def _ldexp_table(power: int, exponents: range) -> np.ndarray:
    """2**(power*e) for e in exponents, rounded to float from the exponent
    alone.  ``ldexp`` rounds to nearest even, as ``_quotient``'s int true
    division does: exact in the float range, a subnormal or 0.0 below it,
    and ``inf`` above it, where the division overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, power * np.arange(exponents.start, exponents.stop, exponents.step))


def _power_of_two_logs(power: int, exponents: range) -> list[float]:
    """ln|num| - ln den of the pair of each 2**(power*e), e in exponents, bit
    for bit, from the exponent alone: CPython's ``math.log`` of the int 2**k is
    ln of the float 2**k up to k = 1023 and ln(1/2) + ln(2)*(k + 1) past it,
    negated where the pair is 1/2**k."""
    log, ldexp = math.log, math.ldexp
    ln2, half = log(2.0), log(0.5)
    out = []
    for e in exponents:
        j = power * e
        k = abs(j)
        x = log(ldexp(1.0, k)) if k <= 1023 else half + ln2 * (k + 1)
        out.append(x if j >= 0 else -x)
    return out


#: A power past 2**this, or below its reciprocal, rounds to inf or 0.0:
#: the floats lie between 2**-1075 and 2**1024.
_LOG2_SPAN = 1100


def _power_table(out: np.ndarray, num: int, den: int, exponents: range) -> None:
    """(num/den)**e for e in a parity class's exponents, correctly rounded to
    complex, into ``out``, for a base num/den reduced and above 0.

    Only the span of exponents with |e| * |log2 base| <= ``_LOG2_SPAN`` can
    round to a finite nonzero float.  |e| falls, then rises, along the range,
    so two bisections find that span, and each entry outside it is its limit,
    0.0 or inf, decided from e alone.  Inside it a base 2**s takes ``ldexp``
    and any other base one stream of exact powers.  |log2 base| is taken low
    by a bound on the rounding of its two logs, which cancel for a ratio near
    1, so that no finite power falls outside the span."""
    logs = math.log2(num), math.log2(den)
    low = abs(logs[0] - logs[1]) - 2**-50 * (logs[0] + logs[1])
    bound = _LOG2_SPAN / low if low > 0 else math.inf
    key = (lambda e: -e) if exponents.step < 0 else None
    span = slice(bisect_left(exponents, -bound, key=key), bisect_right(exponents, bound, key=key))
    for outside, e in ((slice(span.start), exponents[0]), (slice(span.stop, None), exponents[-1])):
        out[outside] = math.inf if (e > 0) == (logs[0] > logs[1]) else 0.0
    if not (inside := exponents[span]):  # every entry is a limit
        return
    if power := _power_of_two(num, den):  # a base 1 takes the stream: 1**e for any e
        out[span] = _ldexp_table(power, inside)
    else:
        out[span] = [_quotient(*pair) for pair in _class_powers(num, den, inside)]


def _class_powers(bn: int, bd: int, exponents: range) -> Iterator[tuple[int, int]]:
    """(bn/bd)**e for e in a parity class's exponents, each a reduced pair,
    for coprime positive bn, bd.  One power bn**|e|, bd**|e| is held: it is
    multiplied by bn**2, bd**2 where |e| grows and divided exactly where |e|
    shrinks toward a sign crossing; a running product of the pairs would not
    be reduced there (8/1 * 1/4)."""
    size = abs(exponents[0])
    x, y = bn**size, bd**size
    bn2, bd2 = bn * bn, bd * bd
    for e in exponents:
        if abs(e) > size:
            x, y = x * bn2, y * bd2
        elif abs(e) < size:
            x, y = x // bn2, y // bd2
        size = abs(e)
        yield (x, y) if e >= 0 else (y, x)


def _exact(x: Number) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an int or a Fraction (by type: isinstance
    is slow on a Fraction), else None."""
    if type(x) is int:
        return x, 1
    return (x._numerator, x._denominator) if type(x) is Fraction else None


# -- factories -----------------------------------------------------------


def _require_finite(*params: Number) -> None:
    """ValueError for a NaN or infinite parameter."""
    for x in params:
        if _exact(x) is None and not cmath.isfinite(complex(x)):
            raise ValueError(f"parameters must be finite, got {x!r}")


def periodic_linear(coeffs: Sequence[Number] = (2, Fraction(1, 3))) -> MapSystem:
    """Linear maps whose coefficients cycle through ``coeffs``, none of them zero."""
    coeffs = tuple(coeffs)
    _require_finite(*coeffs)
    return MapSystem(family=Family.PERIODIC_LINEAR, params=coeffs)


def index_scaled_linear(odd_scale: Number = 3, even_inverse_scale: Number = 2) -> MapSystem:
    """Linear maps c_n z with c_n = odd_scale*n (odd n), 1/(even_inverse_scale*n)
    (even n); neither scale is zero."""
    _require_finite(odd_scale, even_inverse_scale)
    return MapSystem(family=Family.INDEX_SCALED_LINEAR, params=(odd_scale, even_inverse_scale))


def power_two_parity(base: Union[int, Fraction] = 2, even_shift: int = 3) -> MapSystem:
    """Linear maps c_n z with c_n = base^n (odd n), base^-(n+even_shift) (even n),
    for an int or Fraction base above 0 and an int shift."""
    return MapSystem(family=Family.POWER_TWO_PARITY, params=(base, even_shift))


def affine_sinusoid(slope: float = 3.0) -> MapSystem:
    """Real maps x -> slope*x + sin(x/n)/n; expanding rate slope - 1/n^2.  The
    system refuses a slope that is not real, finite and above 1."""
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
    calls with the same arguments produce bit-identical residuals.  A kind
    given by its value is read as its :class:`PolicyKind`; an unknown one,
    or a NaN or infinite ``theta``, raises ``ValueError``.
    """

    kind: PolicyKind = PolicyKind.CONSTANT_REAL
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PolicyKind(self.kind))  # the residuals test by identity
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")

    def residual(self, n: int, epsilon: float) -> complex:
        if self.kind is PolicyKind.ZERO:
            return 0j
        if self.kind is PolicyKind.CONSTANT_REAL:
            return complex(epsilon, 0.0)
        if self.kind is PolicyKind.CONSTANT_PHASE:
            r = epsilon * cmath.exp(1j * self.theta)
        else:
            r = epsilon * cmath.exp(2j * math.pi * math.fmod(n * GOLDEN_CONJUGATE, 1.0))
        # the rounded parts can put |r| above epsilon (one ulp for a normal one, more
        # on a subnormal's coarse grid): step both toward zero, to |epsilon| if negative
        while abs(r) > abs(epsilon):
            r = complex(math.nextafter(r.real, 0.0), math.nextafter(r.imag, 0.0))
        return r


@dataclass(frozen=True)
class PseudoOrbit:
    """An approximate orbit a_{n+1} = F(n, a_n) + r_n with |r_n| <= epsilon.

    ``a`` holds a_1 .. a_N and ``r`` holds r_1 .. r_{N-1}, with N the
    ``horizon``: any other lengths raise ``ValueError``, then a horizon or
    an ``epsilon`` that generation refuses (:func:`_check_orbit_request`);
    so does a step index outside 1..N (1..N-1 for a residual).  ``truncated``
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
        _check_orbit_request(self.epsilon, self.horizon)

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

    ``horizon`` is a count of at least 1 (:func:`check_count`), each part of
    ``a1`` must be finite and at most ``OVERFLOW_LIMIT`` in magnitude, and
    ``epsilon`` finite and nonnegative.  The residual of the
    three constant policies is read once; ``low_discrepancy_phase`` reads it
    per step.  A linear family steps through its coefficient table in
    blocks of one comprehension each, so a step makes no call; the
    nonlinear family steps through ``eval_map``.  Generation stops at the
    first value that is not finite or exceeds ``OVERFLOW_LIMIT`` in either
    part.
    """
    return _pseudo_orbit(sys, a1, epsilon, policy, horizon, None)


def _check_orbit_request(epsilon: float, horizon: int, a1: Optional[complex] = None) -> None:
    """The checks :func:`generate_pseudo_orbit` makes before any work, of
    ``a1`` too when the orbit starts from it."""
    check_count(horizon, "horizon", 1)
    check_nonnegative(epsilon, "epsilon")
    if a1 is not None and not _within_limit(a1):
        raise ValueError(f"a1 must have finite parts of at most {OVERFLOW_LIMIT:g}, got {a1!r}")


def _pseudo_orbit(
    sys: MapSystem, a1: complex, epsilon: float, policy: ResidualPolicy, horizon: int,
    coeffs: Optional[Sequence], head: Optional[PseudoOrbit] = None,
) -> PseudoOrbit:
    """:func:`generate_pseudo_orbit`, stepping a linear family through
    ``coeffs`` when given: a table the caller already holds, c_1 .. c_M
    with M >= horizon - 1, listed a block at a time as the steps read it.
    ``head``, an orbit up to a shorter horizon, is kept as given and stepped
    on from its last value; ``a1`` is then unused."""
    _check_orbit_request(epsilon, horizon, a1 if head is None else None)
    start = 1 if head is None else head.horizon
    steps = range(start, horizon)
    if policy.kind is PolicyKind.LOW_DISCREPANCY_PHASE:
        residuals = map(policy.residual, steps, repeat(epsilon))
    else:
        residuals = repeat(policy.residual(1, epsilon), len(steps)) if steps else iter(())
    if head is None:
        a, r = [complex(a1)], []
    else:
        a, r = list(head.a), list(head.r)
    if sys.is_linear:
        period = None  # the cycle rule reads only a table built here, under a constant residual
        if coeffs is None:
            coeffs = sys._float_table(range(1, horizon))
            if policy.kind is not PolicyKind.LOW_DISCREPANCY_PHASE:
                period = sys._period()
        truncated = _step_linear(a, r, _listed(coeffs[start - 1:]), residuals, period, horizon)
    else:
        truncated = _step_nonlinear(a, r, sys.eval_map, steps, residuals)
    return PseudoOrbit(
        a=tuple(a),
        r=tuple(r),
        epsilon=epsilon,
        horizon=len(a),
        policy=policy,
        truncated=truncated,
    )


#: Steps of a linear orbit made between two range tests, and entries of a
#: table listed at a time (:func:`_listed`).
_ORBIT_BLOCK = 1024


def _cycle_closed(states: list, period: Optional[int], first: int) -> bool:
    """The cycle rule of a sweep s_{k+1} = f(s_k, x_k): True where its last
    state equals, bit for bit, the state ``period`` steps before it, both at
    index ``first`` or later of ``states``; never where ``period`` is None.

    Let the inputs repeat with period m, x_{k+m} = x_k bit for bit (the
    coefficients of a table with ``MapSystem._period`` m, a constant
    residual), and let f be a fixed function of the bits of its operands, as
    IEEE float operations are.  If s_j = s_{j-m}, then s_{j+1} = f(s_j, x_j)
    = f(s_{j-m}, x_{j-m}) = s_{j-m+1}, and by induction s_{j+i} = s_{j-m+i}
    for every i >= 0: every later state repeats the last m, so the sweep may
    extend its list by repeating them (:func:`_repeat_tail`) in place of
    stepping, with every value the steps would make.  Bit for bit means both
    parts equal with the same sign: a product carries the sign of a zero on
    (the law (-1/2,) from 0 alternates +0.0 and -0.0), and a NaN equals
    nothing.  A state before ``first`` was read, not made by f (a given head's
    values, the start), so it is never compared."""
    if period is None or len(states) - 1 - period < first:
        return False
    u, v = states[-1], states[-1 - period]
    return u == v and (copysign(1.0, u.real), copysign(1.0, u.imag)) == (
        copysign(1.0, v.real), copysign(1.0, v.imag)
    )


def _repeat_tail(values: list, period: int, total: int) -> None:
    """Extend ``values`` to ``total`` entries by repeating its last ``period``."""
    tail = values[-period:]
    count = total - len(values)
    values += tail * (count // period) + tail[: count % period]


def _step_linear(
    a: list, r: list, coeffs: Iterator[complex], residuals: Iterator[complex],
    period: Optional[int], horizon: int,
) -> bool:
    """Extend ``a`` by z <- c_n z + r_n from its last value and ``r`` by r_n,
    for each c_n of ``coeffs`` and r_n of ``residuals`` until the residuals
    end; True at the first value that is not finite or exceeds
    ``OVERFLOW_LIMIT`` in either part, which is not kept.

    Each block of ``_ORBIT_BLOCK`` steps is one comprehension, then one
    array test of its parts.  Complex * and + give inf or NaN, they do not
    raise, so the block's values past that first one are made and dropped.
    With ``period``, the coefficients' period under a constant residual, each
    block ends with the cycle rule (:func:`_cycle_closed`): once it holds,
    ``a`` and ``r`` repeat their last ``period`` entries up to ``horizon``
    values, each already range-tested."""
    first, z = len(a), a[-1]
    while block := list(islice(residuals, _ORBIT_BLOCK)):
        # zip takes r_n first, so no c_n is taken past the last residual
        zs = [z := c * z + r_n for r_n, c in zip(block, coeffs)]
        inside = np.abs(np.array(zs, dtype=complex).view(float)) <= OVERFLOW_LIMIT  # _within_limit
        if not inside.all():
            k = int(inside.argmin()) // 2  # the two parts of value k are entries 2k and 2k + 1
            a += zs[:k]
            r += block[:k]
            return True
        a += zs
        r += block
        if _cycle_closed(a, period, first):
            _repeat_tail(a, period, horizon)
            _repeat_tail(r, period, horizon - 1)
            break
    return False


def _step_nonlinear(
    a: list, r: list, eval_map, steps: range, residuals: Iterator[complex]
) -> bool:
    """:func:`_step_linear` for the nonlinear family, one ``eval_map`` call a
    step: it stops at the first value out of range, which makes no later
    call, and at a step whose sine overflows (``cmath.sin`` raises there)."""
    z = a[-1]
    for n, r_n in zip(steps, residuals):
        try:
            z = eval_map(n, z) + r_n
        except OverflowError:
            return True
        if not (abs(z.real) <= OVERFLOW_LIMIT and abs(z.imag) <= OVERFLOW_LIMIT):  # _within_limit
            return True
        a.append(z)
        r.append(r_n)
    return False
