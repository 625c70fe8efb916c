"""Exception types shared across the package."""


class HuShadowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HuShadowError):
    """A scenario file is malformed or violates a domain constraint."""


class HypothesisViolation(HuShadowError):
    """The data handed to a construction does not satisfy its preconditions."""


class DegenerateQuotient(HuShadowError):
    """A difference quotient is numerically zero; the error dynamics are singular."""


class NonContraction(HuShadowError):
    """The fixed-point iteration is not contracting (epsilon too large)."""


class UnsupportedFamily(HuShadowError):
    """The requested operation is not available for this map family."""


class RateRangeError(HuShadowError, ValueError):
    """A growth rate is outside (0, inf): a rate that underflowed to 0, a
    coefficient past the float range at a step of a given orbit, or a
    periodic fit's class value past the float range."""
