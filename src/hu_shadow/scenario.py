"""Scenario files: JSON ingestion, validation and defaulting.

A scenario fully determines one experiment.  All defaults are made
explicit on load, unknown keys are rejected, and a loaded scenario
round-trips losslessly through :func:`scenario_to_dict`.

Integer fields take JSON integers.  Every other numeric field takes a
finite JSON number or an exact rational string ("1/3"), which keeps the
exact-arithmetic oracle applicable.  ``horizon`` and 4 * ``analysis.window``
are at most :data:`~hu_shadow.systems.MAX_HORIZON`, and each part of ``a1``
is ``OVERFLOW_LIMIT`` in size at most.  Anything else raises ConfigError.
The ``system`` section is written out as it was parsed, so every spelling
of one value writes alike, and is never shared with the caller.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .errors import ConfigError
from .growth import AnalysisOptions
from .shadowing import ShadowOptions
from .systems import FACTORIES, MAX_HORIZON, OVERFLOW_LIMIT, Family, MapSystem, PolicyKind
from .systems import ResidualPolicy, _within_limit


@dataclass(frozen=True)
class Scenario:
    system: MapSystem
    system_config: dict
    a1: complex
    epsilon: float
    residual: ResidualPolicy
    horizon: int
    analysis: AnalysisOptions
    shadow: ShadowOptions


def _real(value: Any, where: str) -> Union[int, float, Fraction]:
    """A finite real: a JSON int or float, or an exact rational string like "1/3"."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where}: cannot parse {value!r} as a number") from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or rational beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where}: expected a finite number")
    return value


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _float(value: Any, where: str) -> float:
    return float(_real(value, where))


def _complex(value: Any, where: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{where}: complex values are [re, im] pairs")
        return complex(float(_real(value[0], where)), float(_real(value[1], where)))
    return complex(float(_real(value, where)))


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _section(raw: dict, key: str, allowed: set) -> dict:
    """The object ``raw[key]`` (empty when absent), with its keys checked."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected an object")
    _reject_unknown(section, allowed, key)
    return section


def _reals(value: Any, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a nonempty list")
    return tuple(_real(c, where) for c in value)


#: How each factory parameter is read; any other is a :func:`_real`.
#: A key left out takes the factory's default through the same reader, so
#: ``coeffs`` (a tuple default, which no JSON value is) stays required.
_READERS = {
    "coeffs": _reals,
    "base": _integer,
    "even_shift": _integer,
    "slope": _float,
}

#: How an option field is read, by the type of its default.
_OPTION_READERS = {int: _integer, float: _float}


def _options(raw: dict, key: str, cls: type):
    """``raw[key]`` as a ``cls``: each field read by its default's type, or the default."""
    options = fields(cls)
    section = _section(raw, key, {f.name for f in options})
    return cls(**{
        f.name: _OPTION_READERS[type(f.default)](section.get(f.name, f.default), f"{key}.{f.name}")
        for f in options
    })


#: The parameters of each family's factory, read once: their names are the keys.
_FACTORY_KEYS = {
    family: tuple(inspect.signature(factory).parameters.values())
    for family, factory in FACTORIES.items()
}


def _as_written(value: Any) -> Any:
    """A parsed ``system`` value as the dict form writes it: an integral
    rational as an int, any other as "p/q" in lowest terms, a float as a
    float, and a parameter list as a list of those."""
    if isinstance(value, tuple):
        return [_as_written(v) for v in value]
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _build_system(cfg: dict) -> tuple[MapSystem, dict]:
    """The family's factory called with its own keys, any other key an error,
    and the section with every key, a missing one the factory's default, each
    value :func:`_as_written` from what its reader parsed."""
    try:
        family = Family(cfg.get("family", ""))
    except ValueError:
        raise ConfigError(
            f"system.family: unknown family {cfg.get('family')!r}; "
            f"expected one of {[f.value for f in Family]}"
        ) from None
    factory = FACTORIES[family]
    keys = _FACTORY_KEYS[family]
    _reject_unknown(cfg, {"family", *(key.name for key in keys)}, "system")
    config = {"family": family.value}
    args = []
    for key in keys:
        value = _READERS.get(key.name, _real)(cfg.get(key.name, key.default), f"system.{key.name}")
        config[key.name] = _as_written(value)
        args.append(value)
    try:
        return factory(*args), config
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _build_policy(cfg: dict) -> ResidualPolicy:
    try:
        kind = PolicyKind(cfg.get("kind", PolicyKind.CONSTANT_REAL.value))
    except ValueError:
        raise ConfigError(
            f"residual.kind: unknown kind {cfg.get('kind')!r}; "
            f"expected one of {[k.value for k in PolicyKind]}"
        ) from None
    return ResidualPolicy(kind=kind, theta=float(_real(cfg.get("theta", 0.0), "residual.theta")))


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("scenario: expected a JSON object")
    _reject_unknown(
        raw, {"system", "a1", "epsilon", "residual", "horizon", "analysis", "shadow"}, "scenario"
    )
    if "system" not in raw:
        raise ConfigError("scenario: missing required key 'system'")
    system_cfg = raw["system"]
    if not isinstance(system_cfg, dict):
        raise ConfigError("system: expected an object")
    system, system_config = _build_system(system_cfg)

    a1 = _complex(raw.get("a1", 1), "a1")
    if not _within_limit(a1):
        raise ConfigError(f"a1: each part must be at most {OVERFLOW_LIMIT:g} in magnitude")
    epsilon = float(_real(raw.get("epsilon", 1e-3), "epsilon"))
    if epsilon < 0:
        raise ConfigError("epsilon: must be nonnegative")
    horizon = _integer(raw.get("horizon", 200), "horizon")
    if horizon < 1:
        raise ConfigError("horizon: must be a positive integer")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon: must be at most {MAX_HORIZON}, got {horizon}")

    analysis = _options(raw, "analysis", AnalysisOptions)
    if analysis.window < 1 or analysis.tol <= 0 or analysis.max_period < 2:
        raise ConfigError("analysis: window >= 1, tol > 0, max_period >= 2 required")
    if analysis.window > MAX_HORIZON // 4:  # the CLI analyses at least 4 * window steps
        raise ConfigError(f"analysis.window: must be at most {MAX_HORIZON // 4}")

    shadow = _options(raw, "shadow", ShadowOptions)
    if shadow.tol <= 0 or shadow.max_iter < 1 or not 0 < shadow.tail_fraction < 1:
        raise ConfigError("shadow: tol > 0, max_iter >= 1, 0 < tail_fraction < 1 required")

    return Scenario(
        system=system,
        system_config=system_config,
        a1=a1,
        epsilon=epsilon,
        residual=_build_policy(_section(raw, "residual", {"kind", "theta"})),
        horizon=horizon,
        analysis=analysis,
        shadow=shadow,
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully-defaulted dictionary form (lossless round trip)."""
    return {
        "system": copy.deepcopy(s.system_config),  # not the scenario's own
        "a1": [s.a1.real, s.a1.imag],
        "epsilon": s.epsilon,
        "residual": {"kind": s.residual.kind.value, "theta": s.residual.theta},
        "horizon": s.horizon,
        "analysis": asdict(s.analysis),
        "shadow": asdict(s.shadow),
    }
