"""Command-line experiment runner.

Three subcommands driven by a scenario file (``--config``), and one
that runs the shipped fixtures; each writes into ``--out`` (default
``out``):

* ``analyze``     -- growth profile CSV plus classification JSON.
* ``shadow``      -- shadowing orbit CSV plus a summary JSON with a
  bound-check verdict.
* ``instability`` -- divergence witness CSV plus JSON.
* ``reproduce``   -- runs the four shipped fixtures through the
  ``shadow`` and ``instability`` pipeline and emits a single JSON report
  with one pass/fail entry per documented claim.

Exit status 0 means every checked claim passed, 1 means a bound check or
hypothesis failed (the reason is in the emitted JSON), 2 means the
invocation or the scenario file was invalid, or ``--out`` could not be
written.  Outputs are written atomically and are byte-identical across
repeated runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from . import fixture_path
from .errors import ConfigError, HuShadowError
# perfbench/tracer.py wraps detect_periodic_scaled here, as it does every
# pipeline name this module imports, so the import stays though unused.
from .growth import (
    Classification,
    ClassificationKind,
    build_profile,
    classify,
    detect_periodic_scaled,
    profile_of,
)
from .instability import WitnessSample, witness_divergence
from .scenario import Scenario, load_scenario, scenario_from_dict, scenario_to_dict
from .shadowing import shadow_contracting, shadow_expanding
from .systems import PolicyKind, generate_pseudo_orbit

#: Classification is asymptotic and the rate profile is orbit-independent,
#: so the CLI evaluates it over at least this many steps regardless of the
#: (possibly short) orbit horizon of the scenario.
MIN_ANALYSIS_HORIZON = 1000


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json(path: Path, obj) -> None:
    """``obj`` as strict JSON: a float that is not finite is written as the
    string ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``, which Python's
    ``float()`` and JavaScript's ``Number()`` read back."""
    _write_atomic(path, json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _strict(obj):
    """``obj`` with each float that is not finite replaced by its JSON name."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)  # "Infinity", "-Infinity" or "NaN"
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _write_csv(path: Path, header: Sequence[str], row: str, rows: Sequence[tuple]) -> None:
    """``header``, then one line per tuple of ``rows``, each formatted by the
    %-template ``row``.  All lines are formatted in one ``%`` pass; ``%.17g``,
    17 significant digits, is enough for exact float round-trips.
    """
    body = (row * len(rows)) % tuple(chain.from_iterable(rows))
    _write_atomic(path, ",".join(header) + "\n" + body)


def _classification_payload(cls: Classification) -> dict:
    payload = {"kind": cls.kind.value, "K": cls.K}
    if (fit := cls.periodic) is not None:
        payload["periodic"] = {**dataclasses.asdict(fit), "values": list(fit.values)}
    return payload


def _summary(
    cls: Classification, epsilon: float, horizon: int, method: str, verdict: str, **measured
) -> dict:
    """The keys every subcommand's JSON shares; ``measured`` fills the rest."""
    summary = {
        "classification": _classification_payload(cls),
        "K": cls.K,
        "epsilon": epsilon,
        "horizon": horizon,
        "sup_err": None,
        "bound": None,
        "method": method,
        "truncation": None,
        "iterations": None,
        "verdict": verdict,
    }
    summary.update(measured)
    return summary


def _analysis_horizon(scenario: Scenario) -> int:
    return max(scenario.horizon, 4 * scenario.analysis.window, MIN_ANALYSIS_HORIZON)


def _classify_scenario(scenario: Scenario) -> Classification:
    profile = profile_of(scenario.system, _analysis_horizon(scenario))
    return classify(profile, scenario.system, scenario.analysis)


# -- subcommands ----------------------------------------------------------


def _cmd_analyze(scenario: Scenario, out: Path) -> int:
    horizon = _analysis_horizon(scenario)
    rates = scenario.system.rates(horizon)
    profile = build_profile(rates)
    cls = classify(profile, scenario.system, scenario.analysis)

    _write_csv(
        out / "profile.csv",
        ["n", "rate", "log_partial", "avg"],
        "%d,%.17g,%.17g,%.17g\n",
        list(zip(range(1, horizon + 1), rates, profile.log_partial.tolist(), profile.avg.tolist())),
    )

    _write_json(
        out / "classification.json",
        _summary(cls, scenario.epsilon, horizon, "analyze", "pass"),
    )
    return 0


def _run_shadow(scenario: Scenario) -> tuple:
    cls = _classify_scenario(scenario)
    pseudo = generate_pseudo_orbit(
        scenario.system, scenario.a1, scenario.epsilon, scenario.residual, scenario.horizon
    )
    if cls.kind is ClassificationKind.CONVERGENT_BELOW_ONE:
        result = shadow_contracting(scenario.system, pseudo, cls.K)
    elif cls.kind is ClassificationKind.CONVERGENT_ABOVE_ONE:
        result = shadow_expanding(scenario.system, pseudo, cls.K, scenario.shadow)
    else:
        raise HuShadowError(
            f"classification is {cls.kind.value}; no shadowing construction applies"
        )
    return cls, pseudo, result


def _cmd_shadow(scenario: Scenario, out: Path) -> int:
    cls, pseudo, result = _run_shadow(scenario)
    horizon = pseudo.horizon
    if horizon < scenario.horizon:
        print(
            f"hu-shadow: note: the pseudo-orbit reached n = {horizon} of the requested "
            f"horizon {scenario.horizon}; its next value leaves the representable range",
            file=sys.stderr,
        )

    residuals = pseudo.r[: horizon - 1] + (0j,)
    abs_errs = [abs(d) for d in result.d[:horizon]]
    # an error that is not positive has no log10: its cell is empty
    log_errs = ["%.17g" % math.log10(e) if e > 0.0 else "" for e in abs_errs]
    _write_csv(
        out / "orbit.csv",
        ["n", "a_re", "a_im", "b_re", "b_im", "r_re", "r_im", "abs_err", "bound", "log10_abs_err"],
        "%d" + ",%.17g" * 8 + ",%s\n",
        [
            (n, a.real, a.imag, b.real, b.imag, r.real, r.imag, e, result.bound, log_e)
            for n, a, b, r, e, log_e in zip(
                range(1, horizon + 1), pseudo.a, result.b, residuals, abs_errs, log_errs
            )
        ],
    )

    verdict = "pass" if result.bound_ok else "fail"
    summary = _summary(
        cls,
        scenario.epsilon,
        horizon,
        result.method.value,
        verdict,
        sup_err=result.sup_diff,
        bound=result.bound,
        truncation=result.meta.truncation,
        iterations=result.meta.iterations,
    )
    _write_json(out / "summary.json", summary)
    return 0 if verdict == "pass" else 1


def _run_witness(scenario: Scenario) -> tuple:
    if scenario.residual.kind is not PolicyKind.CONSTANT_REAL:  # the witness's r_n is epsilon
        kind = scenario.residual.kind.value
        raise ConfigError(f"residual.kind: instability needs constant_real residuals, got {kind!r}")
    cls = _classify_scenario(scenario)
    return cls, witness_divergence(scenario.system, scenario.epsilon, scenario.horizon, cls)


def _cmd_instability(scenario: Scenario, out: Path) -> int:
    cls, witness = _run_witness(scenario)

    # epsilon 0 makes a true orbit: nothing diverges, yet no sample fails (-inf < -inf)
    ok = scenario.epsilon > 0
    log10_eps = math.log10(scenario.epsilon) if scenario.epsilon > 0 else -math.inf
    for s in witness.samples:
        # the analytic bound is on the perturbation sum; the observed
        # distance is epsilon times at least that sum
        if s.log10_observed_error < log10_eps + s.log10_lower_bound - 1e-9:
            ok = False
    _write_csv(
        out / "witness.csv",
        WitnessSample._fields,
        "%d,%d" + ",%.17g" * 6 + ",%d\n",  # %d writes the bool log_domain as 1 or 0
        witness.samples,
    )

    verdict = "pass" if (ok and witness.samples) else "fail"
    summary = _summary(
        cls,
        witness.epsilon,
        witness.horizon,
        "divergence_witness",
        verdict,
        witness={
            "m": witness.m,
            "prefix": witness.prefix,
            "p_idx": witness.p_idx,
            "q_idx": witness.q_idx,
            "K_p": witness.K_p,
            "K_q": witness.K_q,
            "C_p": witness.C_p,
            "samples": len(witness.samples),
        },
    )
    _write_json(out / "witness.json", summary)
    return 0 if verdict == "pass" else 1


# -- reproduce ------------------------------------------------------------


def _claim(name: str, ok: bool, observed, required) -> dict:
    verdict = "pass" if ok else "fail"
    return {"claim": name, "verdict": verdict, "observed": observed, "required": required}


def _bound_claim(name: str, observed: dict, required: dict) -> dict:
    """Passes when each observed value ``key`` is at most ``required[key_max]``."""
    ok = all(value <= required[f"{key}_max"] for key, value in observed.items())
    return _claim(name, ok, observed, required)


def _matches(got, want, tol: float) -> bool:
    """Equal strings; numbers, and the entries of equal-length lists, within tol."""
    if isinstance(want, str):
        return got == want
    if isinstance(want, list):
        return len(got) == len(want) and all(_matches(g, w, tol) for g, w in zip(got, want))
    return abs(got - want) < tol


def _match_claim(name: str, observed: Optional[dict], required: dict) -> dict:
    """Passes when each observed value matches its required one within
    ``required["tol"]``, in the order required lists them; ``None`` fails."""
    tol = required["tol"]
    ok = observed is not None and all(
        _matches(observed[key], want, tol) for key, want in required.items() if key != "tol"
    )
    return _claim(name, ok, observed, required)


def _classification_claim(
    name: str, cls: Classification, kind: ClassificationKind, K: float, tol: float
) -> dict:
    # the kind goes first: under another kind, K need not be a number
    required = {"kind": kind.value, "K": K, "tol": tol}
    return _match_claim(name, {"kind": cls.kind.value, "K": cls.K}, required)


def _reproduce_claims() -> list:
    """Run the shipped fixtures through ``shadow`` and ``instability``'s own
    pipeline and check the documented claims against those runs.  Each
    verdict reads the ``required`` values its claim prints."""
    claims = []
    sqrt32 = math.sqrt(1.5)
    below = ClassificationKind.CONVERGENT_BELOW_ONE
    above = ClassificationKind.CONVERGENT_ABOVE_ONE

    # contracting fixture: averaged rate sqrt(2/3), bound K*eps/(K-1)
    cls, _, result = _run_shadow(load_scenario(fixture_path("contracting_periodic")))
    claims.append(_classification_claim("contracting_classification", cls, below, sqrt32, 1e-6))
    bound = min(6e-3, (3.0 + math.sqrt(6.0)) * 1e-3)
    observed = {"sup_err": result.sup_diff}
    claims.append(_bound_claim("contracting_sup_bound", observed, {"sup_err_max": bound}))

    # expanding fixture: averaged rate sqrt(3/2), bound 2*eps/ln K
    sc = load_scenario(fixture_path("expanding_alternating"))
    cls, _, result = _run_shadow(sc)
    claims.append(_classification_claim("expanding_classification", cls, above, sqrt32, 1e-3))
    observed = {"residual_sup": result.meta.residual_sup}
    claims.append(_bound_claim("expanding_true_orbit", observed, {"residual_sup_max": 1e-9}))
    bound = 2.0 * sc.epsilon / math.log(sqrt32)
    observed = {"sup_err": result.sup_diff}
    claims.append(_bound_claim("expanding_sup_bound", observed, {"sup_err_max": bound}))

    # unstable fixture: period-2 scaled products, divergent witness
    sc = load_scenario(fixture_path("unstable_parity"))
    cls, witness = _run_witness(sc)
    fit = cls.periodic
    observed = fit and {"m": fit.m, "values": list(fit.values), "constants": list(fit.constants)}
    required = {"m": 2, "values": [0.5, 0.25], "constants": [4.0, 1.0], "tol": 1e-9}
    claims.append(_match_claim("periodic_detection", observed, required))
    required = {"error_at_n21_min": sc.epsilon * 4.0**10 / 2.0, "ratio": 4.0, "ratio_tol": 0.04}
    error_at_n21 = next((s.observed_error for s in witness.samples if s.n == 21), None)
    log10_errs = {s.k: s.log10_observed_error for s in witness.samples}
    ratios = [
        10.0 ** (log10_errs[k + 1] - log10_errs[k])
        for k in sorted(log10_errs)
        if k >= 5 and k + 1 in log10_errs
    ]
    observed = {
        "error_at_n21": error_at_n21,
        "ratio_range": [min(ratios), max(ratios)] if ratios else None,
    }
    ok = (
        error_at_n21 is not None
        and error_at_n21 >= required["error_at_n21_min"]
        and bool(ratios)
        and all(abs(r - required["ratio"]) <= required["ratio_tol"] for r in ratios)
    )
    claims.append(_claim("divergence_growth", ok, observed, required))

    # nonlinear fixture: averaged rate 3, fixed-point tail series
    sc = load_scenario(fixture_path("nonlinear_sinusoid"))
    cls, _, result = _run_shadow(sc)
    claims.append(_classification_claim("nonlinear_classification", cls, above, 3.0, 1e-3))
    claims.append(
        _bound_claim(
            "nonlinear_sup_bound",
            {"sup_err": result.sup_diff, "iterations": result.meta.iterations},
            {"sup_err_max": 2.0 * sc.epsilon / math.log(3.0) * (1.0 + 1e-3), "iterations_max": 20},
        )
    )
    return claims


def _cmd_reproduce(out: Path) -> int:
    claims = _reproduce_claims()
    passed = sum(1 for c in claims if c["verdict"] == "pass")
    report = {
        "claims": claims,
        "passed": passed,
        "failed": len(claims) - passed,
        "verdict": "pass" if passed == len(claims) else "fail",
    }
    _write_json(out / "reproduce.json", report)
    return 0 if passed == len(claims) else 1


# -- entry point ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hu-shadow",
        description="Shadowing orbits and stability verdicts for "
        "nonautonomous difference equations.",
    )
    parser.add_argument(
        "command", choices=["analyze", "shadow", "instability", "reproduce"]
    )
    parser.add_argument("--config", help="scenario file (JSON); not taken by reproduce")
    parser.add_argument("--horizon", help="override the scenario horizon")
    parser.add_argument("--epsilon", help="override the residual size")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _flag_value(text: str, kind: type):
    """A flag's text as ``kind`` reads it, or the text itself, which the
    scenario's own check then refuses with one line."""
    try:
        return kind(text)
    except ValueError:
        return text


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        for path in (out, *out.parents):  # before any work: nothing could be written there
            if os.path.lexists(path) and not path.is_dir():  # a dangling link too
                raise ConfigError(f"--out: {path} exists and is not a directory")
        # the flag rules argparse cannot state, each refused with one line
        if args.command == "reproduce":
            given = [key for key in ("config", "horizon", "epsilon") if vars(args)[key] is not None]
            if given:
                named = " or ".join(f"--{key}" for key in given)
                raise ConfigError(f"reproduce runs the shipped fixtures and takes no {named}")
            return _cmd_reproduce(out)
        if not args.config:
            raise ConfigError(f"command {args.command!r} requires --config")
        scenario = load_scenario(args.config)
        flags = {"horizon": (args.horizon, int), "epsilon": (args.epsilon, float)}
        overrides = {
            key: _flag_value(text, kind) for key, (text, kind) in flags.items() if text is not None
        }
        if overrides:
            # re-read, so a flag meets the same checks as a file value
            scenario = scenario_from_dict({**scenario_to_dict(scenario), **overrides})
        if args.command == "analyze":
            return _cmd_analyze(scenario, out)
        if args.command == "shadow":
            return _cmd_shadow(scenario, out)
        return _cmd_instability(scenario, out)
    except (ConfigError, OSError) as exc:  # an OSError: an --out that could not be written
        print(f"hu-shadow: config error: {exc}", file=sys.stderr)
        return 2
    except HuShadowError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
