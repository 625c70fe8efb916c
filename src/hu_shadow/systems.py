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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

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

    # -- linear structure ------------------------------------------------

    @property
    def is_linear(self) -> bool:
        return self.family is not Family.AFFINE_SINUSOID

    def coefficient(self, n: int) -> complex:
        """Exact multiplier c_n of a linear family (F(n,z) = c_n z)."""
        c = self._raw_coefficient(n)
        return complex(c)

    def rational_coefficient(self, n: int) -> Fraction:
        """The multiplier c_n as an exact rational.

        Only available when the family parameters are rational; float
        parameters raise :class:`UnsupportedFamily` since they would be
        silently promoted to their binary values.
        """
        c = self._raw_coefficient(n)
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise UnsupportedFamily(
            f"family {self.family.value} with non-rational parameters has "
            "no exact coefficient"
        )

    def _raw_coefficient(self, n: int) -> Number:
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        if self.family is Family.PERIODIC_LINEAR:
            coeffs = self.params
            return coeffs[(n - 1) % len(coeffs)]
        if self.family is Family.INDEX_SCALED_LINEAR:
            odd_scale, even_inverse_scale = self.params
            if n % 2 == 1:
                return odd_scale * n
            return Fraction(1, even_inverse_scale * n) if _rational(
                even_inverse_scale
            ) else 1.0 / (even_inverse_scale * n)
        if self.family is Family.POWER_TWO_PARITY:
            base, even_shift = self.params
            if n % 2 == 1:
                return base**n if _rational(base) else float(base) ** n
            if _rational(base):
                return Fraction(1, base ** (n + even_shift))
            return float(base) ** -(n + even_shift)
        raise UnsupportedFamily(f"{self.family.value} is not linear")

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
        """Per-step growth rate p_n (always positive).

        Rates past the floating-point range (the parity family's odd
        coefficients from n = 1024 on) are reported as ``inf``; use
        :meth:`log_growth_rate` for a finite value there.
        """
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        if self.is_linear:
            try:
                return abs(self.coefficient(n))
            except OverflowError:
                return math.inf
        (slope,) = self.params
        return float(slope) - 1.0 / n**2

    def log_growth_rate(self, n: int) -> float:
        """ln p_n, finite even when p_n itself overflows a float."""
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        if not self.is_linear:
            (slope,) = self.params
            return math.log(float(slope) - 1.0 / n**2)
        c = self._raw_coefficient(n)
        if isinstance(c, Fraction):
            return math.log(abs(c.numerator)) - math.log(c.denominator)
        if isinstance(c, int):
            return math.log(abs(c))
        return math.log(abs(complex(c)))

    def rates(self, horizon: int) -> list[float]:
        """Growth rates p_1 .. p_horizon."""
        return [self.growth_rate(n) for n in range(1, horizon + 1)]


def _rational(x: Number) -> bool:
    return isinstance(x, (int, Fraction))


# -- factories -----------------------------------------------------------


def periodic_linear(coeffs: Sequence[Number] = (2, Fraction(1, 3))) -> MapSystem:
    """Linear maps whose coefficients cycle through ``coeffs``."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("periodic_linear needs at least one coefficient")
    if any(abs(complex(c)) == 0 for c in coeffs):
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.PERIODIC_LINEAR, params=coeffs)


def index_scaled_linear(odd_scale: Number = 3, even_inverse_scale: Number = 2) -> MapSystem:
    """Linear maps c_n z with c_n = odd_scale*n (odd n), 1/(even_inverse_scale*n) (even n)."""
    if complex(odd_scale) == 0 or complex(even_inverse_scale) == 0:
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.INDEX_SCALED_LINEAR, params=(odd_scale, even_inverse_scale))


def power_two_parity(base: int = 2, even_shift: int = 3) -> MapSystem:
    """Linear maps c_n z with c_n = base^n (odd n), base^-(n+even_shift) (even n)."""
    if base <= 0:
        raise ValueError("growth rate must be positive")
    return MapSystem(family=Family.POWER_TWO_PARITY, params=(base, even_shift))


def affine_sinusoid(slope: float = 3.0) -> MapSystem:
    """Real maps x -> slope*x + sin(x/n)/n; expanding rate slope - 1/n^2."""
    if slope <= 1.0:
        raise ValueError("affine_sinusoid requires slope > 1 for a positive expanding rate")
    return MapSystem(family=Family.AFFINE_SINUSOID, params=(slope,))


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
            return epsilon * cmath.exp(1j * self.theta)
        frac = math.fmod(n * GOLDEN_CONJUGATE, 1.0)
        return epsilon * cmath.exp(2j * math.pi * frac)

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

    ``a`` holds a_1 .. a_N and ``r`` holds r_1 .. r_{N-1}.  ``truncated``
    is set when generation stopped early because the orbit left the
    representable range; ``horizon`` is then the last finite index.
    """

    a: tuple
    r: tuple
    epsilon: float
    horizon: int
    policy: ResidualPolicy
    truncated: bool = False

    def value(self, n: int) -> complex:
        return self.a[n - 1]

    def residual(self, n: int) -> complex:
        return self.r[n - 1]


def generate_pseudo_orbit(
    sys: MapSystem,
    a1: complex,
    epsilon: float,
    policy: ResidualPolicy,
    horizon: int,
) -> PseudoOrbit:
    """Propagate a_1 forward under F with policy-generated residuals."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    a = [complex(a1)]
    r: list[complex] = []
    truncated = False
    for n in range(1, horizon):
        r_n = policy.residual(n, epsilon)
        try:
            nxt = sys.eval_map(n, a[-1]) + r_n
        except OverflowError:
            truncated = True
            break
        if not _finite(nxt):
            truncated = True
            break
        a.append(nxt)
        r.append(r_n)
    return PseudoOrbit(
        a=tuple(a),
        r=tuple(r),
        epsilon=epsilon,
        horizon=len(a),
        policy=policy,
        truncated=truncated,
    )


def _finite(z: complex) -> bool:
    return (
        math.isfinite(z.real)
        and math.isfinite(z.imag)
        and abs(z.real) <= OVERFLOW_LIMIT
        and abs(z.imag) <= OVERFLOW_LIMIT
    )
