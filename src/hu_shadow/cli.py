"""Command-line experiment runner.

Four subcommands, all driven by a scenario file:

* ``analyze``     -- growth profile CSV plus classification JSON.
* ``shadow``      -- shadowing orbit CSV plus a summary JSON with a
  bound-check verdict.
* ``instability`` -- divergence witness CSV plus JSON.
* ``reproduce``   -- runs the four shipped fixtures through the
  ``shadow`` and ``instability`` pipeline and emits a single JSON report
  with one pass/fail entry per documented claim.

Exit status 0 means every checked claim passed, 1 means a bound check or
hypothesis failed (the reason is in the emitted JSON), 2 means the
invocation or the scenario file was invalid.  Outputs are written
atomically and are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import fixture_path
from .errors import ConfigError, HuShadowError
# perfbench/tracer.py wraps detect_periodic_scaled here, as it does every
# pipeline name this module imports, so the import stays though unused.
from .growth import Classification, ClassificationKind, classify, detect_periodic_scaled, profile_of
from .instability import witness_divergence
from .scenario import Scenario, load_scenario, scenario_from_dict, scenario_to_dict
from .shadowing import shadow_contracting, shadow_expanding
from .systems import generate_pseudo_orbit

#: Environment variable overriding the output directory.
OUTPUT_DIR_ENV = "HU_SHADOW_OUT"

#: Classification is asymptotic and the rate profile is orbit-independent,
#: so the CLI evaluates it over at least this many steps regardless of the
#: (possibly short) orbit horizon of the scenario.
MIN_ANALYSIS_HORIZON = 1000


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact float round-trips."""
    return format(float(x), ".17g")


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
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _classification_payload(cls: Classification) -> dict:
    payload = {"kind": cls.kind.value, "K": cls.K}
    if cls.periodic is not None:
        fit = cls.periodic
        payload["periodic"] = {
            "m": fit.m,
            "prefix": fit.prefix,
            "rate_factors": list(fit.rate_factors),
            "values": list(fit.values),
            "constants": list(fit.constants),
            "max_residual": fit.max_residual,
        }
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
    profile = profile_of(scenario.system, horizon)
    cls = classify(profile, scenario.system, scenario.analysis)

    rows = [
        [
            str(n),
            _fmt(scenario.system.growth_rate(n)),
            _fmt(profile.log_sum(n)),
            _fmt(profile.avg[n - 1]),
        ]
        for n in range(1, horizon + 1)
    ]
    _write_csv(out / "profile.csv", ["n", "rate", "log_partial", "avg"], rows)

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

    rows = []
    for n in range(1, horizon + 1):
        a = pseudo.value(n)
        b = result.b[n - 1]
        r = pseudo.residual(n) if n < horizon else 0j
        abs_err = abs(result.d[n - 1])
        rows.append(
            [
                str(n),
                _fmt(a.real),
                _fmt(a.imag),
                _fmt(b.real),
                _fmt(b.imag),
                _fmt(r.real),
                _fmt(r.imag),
                _fmt(abs_err),
                _fmt(result.bound),
                _fmt(math.log10(abs_err)) if abs_err > 0.0 else "",
            ]
        )
    _write_csv(
        out / "orbit.csv",
        ["n", "a_re", "a_im", "b_re", "b_im", "r_re", "r_im", "abs_err", "bound", "log10_abs_err"],
        rows,
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
    cls = _classify_scenario(scenario)
    return cls, witness_divergence(scenario.system, scenario.epsilon, scenario.horizon, cls)


def _cmd_instability(scenario: Scenario, out: Path) -> int:
    cls, witness = _run_witness(scenario)

    rows = []
    ok = True
    log10_eps = math.log10(scenario.epsilon) if scenario.epsilon > 0 else -math.inf
    for s in witness.samples:
        # the analytic bound is on the perturbation sum; the observed
        # distance is epsilon times at least that sum
        if s.log10_observed_error < log10_eps + s.log10_lower_bound - 1e-9:
            ok = False
        rows.append(
            [
                str(s.k),
                str(s.n),
                _fmt(s.lower_bound),
                _fmt(s.S_n),
                _fmt(s.observed_error),
                _fmt(s.log10_lower_bound),
                _fmt(s.log10_S_n),
                _fmt(s.log10_observed_error),
                "1" if s.log_domain else "0",
            ]
        )
    _write_csv(
        out / "witness.csv",
        [
            "k",
            "n",
            "lower_bound",
            "S_n",
            "observed_error",
            "log10_lower_bound",
            "log10_S_n",
            "log10_observed_error",
            "log_domain",
        ],
        rows,
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
    return {
        "claim": name,
        "verdict": "pass" if ok else "fail",
        "observed": observed,
        "required": required,
    }


def _classification_claim(
    name: str, cls: Classification, kind: ClassificationKind, K: float, tol: float
) -> dict:
    return _claim(
        name,
        cls.kind is kind and abs(cls.K - K) < tol,
        {"kind": cls.kind.value, "K": cls.K},
        {"kind": kind.value, "K": K, "tol": tol},
    )


def _reproduce_claims() -> list:
    """Run the shipped fixtures through ``shadow`` and ``instability``'s own
    pipeline and check the documented claims against those runs."""
    claims = []
    sqrt32 = math.sqrt(1.5)
    below = ClassificationKind.CONVERGENT_BELOW_ONE
    above = ClassificationKind.CONVERGENT_ABOVE_ONE

    # contracting fixture: averaged rate sqrt(2/3), bound K*eps/(K-1)
    cls, _, result = _run_shadow(load_scenario(fixture_path("contracting_periodic")))
    claims.append(_classification_claim("contracting_classification", cls, below, sqrt32, 1e-6))
    claims.append(
        _claim(
            "contracting_sup_bound",
            result.sup_diff <= 6e-3
            and result.sup_diff <= (3.0 + math.sqrt(6.0)) * 1e-3 * (1.0 + 1e-6),
            {"sup_err": result.sup_diff},
            {"sup_err_max": min(6e-3, (3.0 + math.sqrt(6.0)) * 1e-3)},
        )
    )

    # expanding fixture: averaged rate sqrt(3/2), bound 2*eps/ln K
    sc = load_scenario(fixture_path("expanding_alternating"))
    cls, _, result = _run_shadow(sc)
    claims.append(_classification_claim("expanding_classification", cls, above, sqrt32, 1e-3))
    claims.append(
        _claim(
            "expanding_true_orbit",
            result.meta.residual_sup <= 1e-9,
            {"residual_sup": result.meta.residual_sup},
            {"residual_sup_max": 1e-9},
        )
    )
    bound = 2.0 * sc.epsilon / math.log(sqrt32)
    claims.append(
        _claim(
            "expanding_sup_bound",
            result.sup_diff <= bound,
            {"sup_err": result.sup_diff},
            {"sup_err_max": bound},
        )
    )

    # unstable fixture: period-2 scaled products, divergent witness
    sc = load_scenario(fixture_path("unstable_parity"))
    cls, witness = _run_witness(sc)
    fit = cls.periodic
    required = {"m": 2, "values": [0.5, 0.25], "constants": [4.0, 1.0], "tol": 1e-9}
    want = required["values"] + required["constants"]
    fit_ok = fit is not None and fit.m == 2 and all(
        abs(got - w) < required["tol"] for got, w in zip(fit.values + fit.constants, want)
    )
    claims.append(
        _claim(
            "periodic_detection",
            fit_ok,
            None
            if fit is None
            else {"m": fit.m, "values": list(fit.values), "constants": list(fit.constants)},
            required,
        )
    )
    by_n = {s.n: s for s in witness.samples}
    threshold = sc.epsilon * 4.0**10 / 2.0
    growth_ok = 21 in by_n and by_n[21].observed_error >= threshold
    by_k = {s.k: s for s in witness.samples}
    ratios = [
        10.0 ** (by_k[k + 1].log10_observed_error - by_k[k].log10_observed_error)
        for k in sorted(by_k)
        if k >= 5 and k + 1 in by_k
    ]
    ratio_ok = bool(ratios) and all(abs(r - 4.0) <= 0.04 for r in ratios)
    claims.append(
        _claim(
            "divergence_growth",
            growth_ok and ratio_ok,
            {
                "error_at_n21": by_n[21].observed_error if 21 in by_n else None,
                "ratio_range": [min(ratios), max(ratios)] if ratios else None,
            },
            {"error_at_n21_min": threshold, "ratio": 4.0, "ratio_tol": 0.04},
        )
    )

    # nonlinear fixture: averaged rate 3, fixed-point tail series
    sc = load_scenario(fixture_path("nonlinear_sinusoid"))
    cls, _, result = _run_shadow(sc)
    claims.append(_classification_claim("nonlinear_classification", cls, above, 3.0, 1e-3))
    bound = 2.0 * sc.epsilon / math.log(3.0) * (1.0 + 1e-3)
    claims.append(
        _claim(
            "nonlinear_sup_bound",
            result.meta.iterations <= 20 and result.sup_diff <= bound,
            {"sup_err": result.sup_diff, "iterations": result.meta.iterations},
            {"sup_err_max": bound, "iterations_max": 20},
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
    parser.add_argument("--config", help="scenario file (JSON)")
    parser.add_argument("--horizon", type=int, help="override the scenario horizon")
    parser.add_argument("--epsilon", type=float, help="override the residual size")
    parser.add_argument(
        "--out",
        help="output directory (also overridable via the "
        f"{OUTPUT_DIR_ENV} environment variable)",
    )
    return parser


def _resolve_out(scenario: Optional[Scenario], args: argparse.Namespace) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if args.out:
        return Path(args.out)
    if scenario is not None:
        return Path(scenario.output.directory)
    return Path("out")


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = None
        if args.command != "reproduce":
            if not args.config:
                parser.error(f"command {args.command!r} requires --config")
            scenario = load_scenario(args.config)
            overrides = {"horizon": args.horizon, "epsilon": args.epsilon}
            overrides = {k: v for k, v in overrides.items() if v is not None}
            if overrides:
                # re-read, so a flag meets the same checks as a file value
                scenario = scenario_from_dict({**scenario_to_dict(scenario), **overrides})
        out = _resolve_out(scenario, args)
        if args.command == "analyze":
            return _cmd_analyze(scenario, out)
        if args.command == "shadow":
            return _cmd_shadow(scenario, out)
        if args.command == "instability":
            return _cmd_instability(scenario, out)
        return _cmd_reproduce(out)
    except ConfigError as exc:
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
