"""The benchmark's workloads: fixed operation lists and their correctness checks.

Each operation computes one verdict.  ``run`` is the timed part and only
calls the library; ``verdict`` runs afterwards, untimed and untraced, and
turns the raw result into a JSON summary plus a list of problems (empty
when the output is correct).  Library functions are always looked up as
module attributes at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hu_shadow
from hu_shadow import cli, growth, instability, oracle, shadowing, systems
from hu_shadow.growth import ClassificationKind as Kind
from hu_shadow.oracle import SearchRegion
from hu_shadow.shadowing import ShadowResult
from hu_shadow.systems import ResidualPolicy

EPSILON = 1e-3
#: Limiting averaged rate of ``index_scaled_linear`` used by acceptance criterion 9.
SQRT_3_2 = math.sqrt(1.5)
#: Relative tolerance for floats compared against recorded references.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Operation:
    name: str
    group: str  # operations of one group differ only in ``size``
    size: int  # requested horizon, or k for the envelope
    run: Callable[[Path], object]
    verdict: Callable[[object, Path], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: tuple  # the same code at small sizes, run once untimed
    seeded: bool  # whether the seed changes the inputs


def start_point(seed: int) -> float:
    """Real start point a1: 1 (the fixtures' value) for seed 0, else a dyadic in [17/32, 63/32].

    Dyadic values keep ``Fraction(a1)`` as small as ``Fraction(1)``, so the
    exact oracle does the same amount of bigint work on every seed.
    """
    return 1.0 if seed == 0 else random.Random(seed).randint(17, 63) / 32


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


# -- fixtures-cli -----------------------------------------------------------

#: (operation, argv, exit code): shadow on the contracting and expanding
#: fixtures and ``reproduce`` exit 1 with a "fail" verdict by design.
CLI_INVOCATIONS = (
    *((f"analyze.{n}", ["analyze", "--config", n], 0) for n in hu_shadow.FIXTURE_NAMES),
    ("shadow.contracting_periodic", ["shadow", "--config", "contracting_periodic"], 1),
    ("shadow.expanding_alternating", ["shadow", "--config", "expanding_alternating"], 1),
    ("shadow.nonlinear_sinusoid", ["shadow", "--config", "nonlinear_sinusoid"], 0),
    ("instability.unstable_parity", ["instability", "--config", "unstable_parity"], 0),
    ("reproduce", ["reproduce"], 1),
)


def _cli_op(name: str, argv: list, expected: int) -> Operation:
    argv = [str(hu_shadow.fixture_path(a)) if a in hu_shadow.FIXTURE_NAMES else a for a in argv]

    def run(out: Path):
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(captured):
            try:
                code = cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        return code, captured.getvalue()

    def verdict(raw, out: Path):
        code, printed = raw
        files = sorted(p for p in out.rglob("*") if p.is_file())
        summary = {
            "exit": code,
            "files": {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files
            },
            "bytes": sum(p.stat().st_size for p in files),
        }
        problems = []
        if code != expected:
            problems.append(f"exit code {code}, expected {expected}")
        if "Traceback" in printed:
            problems.append("printed a traceback")
        want = "pass" if expected == 0 else "fail"
        for p in files:
            if p.suffix == ".json" and json.loads(p.read_text()).get("verdict") != want:
                problems.append(f"{p.name}: verdict is not {want!r}")
        return summary, problems

    return Operation(name, name.split(".")[0], 0, run, verdict)


def fixtures_cli() -> Workload:
    ops = tuple(_cli_op(*inv) for inv in CLI_INVOCATIONS)
    return Workload("fixtures-cli", ops, ops, seeded=False)


# -- long-horizon -----------------------------------------------------------

#: family -> (factory, the analytic classification)
FAMILIES = {
    "periodic_linear": (systems.periodic_linear, Kind.CONVERGENT_BELOW_ONE),
    "index_scaled_linear": (systems.index_scaled_linear, Kind.CONVERGENT_ABOVE_ONE),
    "power_two_parity": (systems.power_two_parity, Kind.PERIODIC_BELOW_ONE),
    "affine_sinusoid": (systems.affine_sinusoid, Kind.CONVERGENT_ABOVE_ONE),
}

#: The periodic fit ``reproduce`` requires of ``power_two_parity``.
PARITY_FIT = {"m": 2, "values": (0.5, 0.25), "constants": (4.0, 1.0), "tol": 1e-9}


def _size_label(size: int) -> str:
    return f"1e{round(math.log10(size))}" if size in (10**3, 10**4) else str(size)


def _pipeline_op(family: str, horizon: int, a1: float) -> Operation:
    factory, expected = FAMILIES[family]
    sys = factory()

    def run(out: Path):
        profile = growth.profile_of(sys, horizon)
        cls = growth.classify(profile, sys)
        pseudo = systems.generate_pseudo_orbit(sys, a1, EPSILON, ResidualPolicy(), horizon)
        if cls.kind is Kind.CONVERGENT_BELOW_ONE:
            result = shadowing.shadow_contracting(sys, pseudo, cls.K)
        elif cls.kind is Kind.CONVERGENT_ABOVE_ONE:
            result = shadowing.shadow_expanding(sys, pseudo, cls.K)
        elif cls.kind is Kind.PERIODIC_BELOW_ONE:
            result = instability.witness_divergence(sys, EPSILON, horizon, cls)
        else:
            result = None
        return profile.horizon, cls, pseudo, result

    def verdict(raw, out: Path):
        profile_horizon, cls, pseudo, result = raw
        summary = {
            "kind": cls.kind.value,
            "K": cls.K,
            "profile_horizon": profile_horizon,
            "reached": pseudo.horizon,
            "truncated": pseudo.truncated,
        }
        problems = []
        if cls.kind is not expected:
            problems.append(f"classified {cls.kind.value}, expected {expected.value}")
        fit = cls.periodic
        if fit is not None:
            summary["periodic"] = {
                "m": fit.m,
                "prefix": fit.prefix,
                "values": list(fit.values),
                "constants": list(fit.constants),
            }
        if expected is Kind.PERIODIC_BELOW_ONE and not (
            fit is not None
            and fit.m == PARITY_FIT["m"]
            and all(abs(x - y) < PARITY_FIT["tol"] for x, y in zip(fit.values, PARITY_FIT["values"]))
            and all(abs(x - y) < PARITY_FIT["tol"] for x, y in zip(fit.constants, PARITY_FIT["constants"]))
        ):
            problems.append("periodic fit differs from m=2, values (1/2, 1/4), constants (4, 1)")
        if isinstance(result, ShadowResult):
            meta = result.meta
            summary.update(
                J=meta.truncation,
                iterations=meta.iterations,
                capped=meta.truncation_capped,
                sup_diff=result.sup_diff,
                bound=result.bound,
                sound_bound=meta.sound_bound,
                residual_sup=meta.residual_sup,
            )
            if not meta.residual_sup <= 1e-9:
                problems.append(f"residual_sup {meta.residual_sup:.3e} > 1e-9")
            if not result.sup_diff <= meta.sound_bound * (1 + 1e-9):
                problems.append(
                    f"sup_diff {result.sup_diff:.17g} > sound_bound {meta.sound_bound:.17g}"
                )
        elif result is not None:
            samples = result.samples
            summary.update(
                samples=len(samples),
                witness_horizon=result.horizon,
                last_log10_observed=samples[-1].log10_observed_error if samples else None,
            )
            floor = math.log10(EPSILON)
            if not samples:
                problems.append("witness has no samples")
            below = [s.n for s in samples
                     if s.log10_observed_error < floor + s.log10_lower_bound - 1e-9]
            if below:
                problems.append(f"witness below eps * lower bound at n = {below[:5]}")
        return summary, problems

    return Operation(pipeline_name(family, horizon), family, horizon, run, verdict)


def pipeline_name(family: str, horizon: int) -> str:
    return f"{family}.H{_size_label(horizon)}"


#: Requested horizons of the long-horizon operations.
LONG_HORIZONS = (10**3, 10**4)


def long_horizon(a1: float) -> Workload:
    ops = tuple(_pipeline_op(f, h, a1) for h in LONG_HORIZONS for f in FAMILIES)
    warmup = tuple(_pipeline_op(f, 256, a1) for f in FAMILIES)
    return Workload("long-horizon", ops, warmup, seeded=True)


# -- verify -----------------------------------------------------------------


def _search_op(horizon: int, a1: float, grid: int = 64, refinements: int = 6) -> Operation:
    """``best_b1_search`` on index_scaled_linear at the acceptance-9 setting."""
    sys = systems.index_scaled_linear()

    def run(out: Path):
        pseudo = systems.generate_pseudo_orbit(sys, a1, EPSILON, ResidualPolicy(), horizon)
        constructed = shadowing.shadow_expanding(sys, pseudo, SQRT_3_2).b[0]
        region = SearchRegion(center=constructed, radius=0.01)
        best_b1, best_err = oracle.best_b1_search(
            sys, pseudo, horizon, region, grid=grid, refinements=refinements
        )
        return pseudo, constructed, best_b1, best_err

    def verdict(raw, out: Path):
        pseudo, constructed, best_b1, best_err = raw
        constructed_err = oracle.sup_error_for_start(sys, pseudo, constructed, horizon)
        summary = {
            "best_b1": [best_b1.real, best_b1.imag],
            "best_err": best_err,
            "constructed_b1": [constructed.real, constructed.imag],
            "constructed_err": constructed_err,
        }
        problems = []
        if not best_err <= constructed_err:
            problems.append(f"best_err {best_err!r} > error at the constructed b1 {constructed_err!r}")
        return summary, problems

    return Operation(f"search.H{horizon}", "search", horizon, run, verdict)


def _exact_op(family: str, horizon: int, a1: float) -> Operation:
    """``exact_propagate``, checked against the float pseudo-orbit."""
    sys = FAMILIES[family][0]()

    def run(out: Path):
        return oracle.exact_propagate(sys, Fraction(a1), Fraction(1, 1000), horizon)

    def verdict(orbit, out: Path):
        floats = systems.generate_pseudo_orbit(sys, a1, EPSILON, ResidualPolicy(), horizon)
        worst = 0
        for n in range(1, floats.horizon + 1):
            exact = float(orbit.value(n))
            if not close(exact, floats.value(n).real):
                worst = worst or n
        last = orbit.a[-1], orbit.coefficient_products[-1], orbit.partial_sums[-1]
        summary = {
            "compared": floats.horizon,
            "value_at_compared": float(orbit.value(floats.horizon)),
            # bit lengths of numerator and denominator at the horizon
            "last_bits": [[x.numerator.bit_length(), x.denominator.bit_length()] for x in last],
        }
        problems = []
        if worst:
            problems.append(f"exact and float orbits differ by more than {REL_TOL} at n={worst}")
        return summary, problems

    return Operation(f"exact.{family}.H{horizon}", f"exact.{family}", horizon, run, verdict)


def _envelope_op(k: int) -> Operation:
    def run(out: Path):
        return growth.double_factorial_envelope_holds(k)

    def verdict(holds, out: Path):
        return {"holds": holds}, [] if holds is True else ["envelope check did not return True"]

    return Operation(f"envelope.k{_size_label(k)}", "envelope", k, run, verdict)


EXACT_FAMILIES = ("periodic_linear", "index_scaled_linear", "power_two_parity")


def verify(a1: float) -> Workload:
    ops = (
        _search_op(12, a1),
        _search_op(60, a1),
        *(_exact_op(f, 3000, a1) for f in EXACT_FAMILIES),
        _envelope_op(10**3),
        _envelope_op(10**4),
    )
    warmup = (
        _search_op(12, a1, grid=8, refinements=0),
        *(_exact_op(f, 50, a1) for f in EXACT_FAMILIES),
        _envelope_op(100),
    )
    return Workload("verify", ops, warmup, seeded=True)


BUILDERS = {
    "fixtures-cli": lambda a1: fixtures_cli(),
    "long-horizon": long_horizon,
    "verify": verify,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](start_point(seed))


def mismatches(got, want, path: str = "", ignore: tuple = ("residual_sup",)) -> list:
    """Differences of ``got`` from a recorded reference.

    Discrete values must be equal and floats agree within ``REL_TOL``.
    ``residual_sup`` is rounding noise (~1e-13); its invariant bound is
    checked instead.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'summary'}: keys differ"]
        return [m for k in want if k not in ignore
                for m in mismatches(got[k], want[k], f"{path}.{k}".lstrip("."), ignore)]
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]", ignore)]
    if isinstance(want, float) and isinstance(got, float) and math.isfinite(want):
        return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
