"""Shadowing orbits for nonautonomous difference equations.

Construct and verify true orbits that stay uniformly close to
epsilon-approximate orbits of z_{n+1} = F(n, z_n), classify systems by
the limit of the geometric average of their growth rates, and build
explicit divergence witnesses when no uniform closeness bound exists.
"""

from importlib import resources as _resources
from pathlib import Path

from .errors import (
    ConfigError,
    DegenerateQuotient,
    HuShadowError,
    HypothesisViolation,
    NonContraction,
    RateRangeError,
    UnsupportedFamily,
)
from .growth import (
    AnalysisOptions,
    Classification,
    ClassificationKind,
    GrowthProfile,
    PeriodicFit,
    build_profile,
    classify,
    detect_periodic_scaled,
    double_factorial_envelope_holds,
    profile_of,
    ratio_check,
)
from .instability import (
    DivergenceWitness,
    WitnessSample,
    default_witness_horizon,
    divergence_lower_bound_log10,
    witness_divergence,
)
from .oracle import (
    RationalOrbit,
    SearchRegion,
    best_b1_search,
    exact_difference,
    exact_propagate,
    exact_telescope,
    refined_cell_size,
    sup_error_for_start,
)
from .scenario import Scenario, load_scenario, scenario_from_dict, scenario_to_dict
from .shadowing import (
    ShadowMeta,
    ShadowMethod,
    ShadowOptions,
    ShadowResult,
    accumulated_rate_bound,
    bounded_factor_expanding_bound,
    shadow_contracting,
    shadow_expanding,
    telescope_difference,
)
from .systems import (
    Family,
    MapSystem,
    PolicyKind,
    PseudoOrbit,
    ResidualPolicy,
    affine_sinusoid,
    generate_pseudo_orbit,
    index_scaled_linear,
    periodic_linear,
    power_two_parity,
)

__version__ = "0.1.0"

#: Names of the shipped scenario files, one per built-in family.
FIXTURE_NAMES = (
    "contracting_periodic",
    "expanding_alternating",
    "unstable_parity",
    "nonlinear_sinusoid",
)


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped scenario file by short name."""
    if name not in FIXTURE_NAMES:
        raise ConfigError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return Path(str(_resources.files(__name__) / "fixtures" / f"{name}.json"))
