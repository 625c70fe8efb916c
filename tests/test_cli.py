"""End-to-end CLI behaviour: artifacts, verdicts, exit codes, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hu_shadow import cli, fixture_path, growth
from hu_shadow.cli import main
from hu_shadow.growth import Classification, ClassificationKind, build_profile
from hu_shadow.instability import DivergenceWitness, WitnessSample
from hu_shadow.scenario import MAX_HORIZON, load_scenario
from hu_shadow.shadowing import ShadowMeta, ShadowMethod, ShadowResult
from hu_shadow.systems import MapSystem, PolicyKind, PseudoOrbit, ResidualPolicy

#: Exit codes and file checksums of the 9 shipped-fixture invocations, as
#: recorded for the benchmark (read only).
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
FIXTURES_CLI = json.loads(REFERENCES.read_text())["workloads"]["fixtures-cli"]


#: A sinusoid scenario whose fixed point leaves the real line until eval_q overflows.
QUOTIENT_OVERFLOW = {
    "system": {"family": "affine_sinusoid", "slope": 1.05},
    "a1": 0,
    "epsilon": 1,
    "residual": {"kind": "constant_phase", "theta": 1.0},
    "horizon": 10,
}


#: A contracting system whose rate 5e-324 has a reciprocal past the float range: K = inf.
TINY_RATE = {"system": {"family": "periodic_linear", "coeffs": [5e-324]}}


#: Parity systems whose even class is past the float range from its first step:
#: 2 * e wrapped in int64 (an inf profile), e past int64 (a TypeError) and
#: 3**(10**8 + 2) made before its first entry rounded to 0.0 (a hang).
EVEN_SHIFT_EDGES = [
    {"family": "power_two_parity", "base": 4, "even_shift": 2**62},
    {"family": "power_two_parity", "base": 2, "even_shift": 2**63},
    {"family": "power_two_parity", "base": 3, "even_shift": 10**8},
]


def _strict_json(text: str):
    """``json.loads`` refusing the bare tokens Infinity, -Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"bare {token} in the JSON")

    return json.loads(text, parse_constant=refuse)


class TestAnalyze:
    def test_an_infinite_K_is_written_as_a_string(self, tmp_path):
        # K = 1/5e-324 = inf was written as the bare token Infinity
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(TINY_RATE))
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = _strict_json((tmp_path / "out" / "classification.json").read_text())
        assert summary["K"] == summary["classification"]["K"] == "Infinity"
        assert float(summary["K"]) == math.inf

    def test_contracting_fixture(self, tmp_path):
        rc = main(
            [
                "analyze",
                "--config",
                str(fixture_path("contracting_periodic")),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "classification.json").read_text())
        assert summary["classification"]["kind"] == "convergent_below_one"
        assert summary["K"] == pytest.approx(math.sqrt(1.5), abs=1e-6)
        assert summary["verdict"] == "pass"
        with open(tmp_path / "profile.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["n"] == "1"
        assert float(rows[0]["rate"]) == 2.0

    def test_unstable_fixture_reports_periodic(self, tmp_path):
        rc = main(
            ["analyze", "--config", str(fixture_path("unstable_parity")), "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "classification.json").read_text())
        assert summary["classification"]["kind"] == "periodic_below_one"
        periodic = summary["classification"]["periodic"]
        assert periodic["m"] == 2
        assert periodic["values"][0] == pytest.approx(0.5, abs=1e-9)

    def test_underflowed_rates_exit_with_reason(self, tmp_path, capsys):
        # the parity family's even rates underflow to 0.0 from n = 1072 on
        rc = main(
            [
                "analyze",
                "--config",
                str(fixture_path("unstable_parity")),
                "--horizon",
                "2000",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RateRangeError"
        assert err["reason"].startswith("growth rate must be positive")
        assert err["reason"].endswith("at n = 1072")

    @pytest.mark.parametrize(
        "coeffs, message",
        [([1e300, 1e300, 1e-300, 1e-300], "C_2 = exp(1381."), ([5e-324, 1e-320], "K_1 = exp(740.")],
        ids=["constant", "rate_factor"],
    )
    def test_a_class_value_past_the_float_range_exits_with_reason(
        self, tmp_path, capsys, coeffs, message
    ):
        # growth._fit_period's math.exp raised a bare OverflowError
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"system": {"family": "periodic_linear", "coeffs": coeffs}}))
        rc = main(["analyze", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RateRangeError"
        assert err["reason"].startswith(f"periodic fit: {message}")
        assert not (tmp_path / "out").exists()


class TestShadow:
    def test_a_quotient_past_the_float_range_exits_with_reason(self, tmp_path, capsys):
        # eval_q's cmath.sin overflowed off the real line: a bare OverflowError
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(QUOTIENT_OVERFLOW))
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonContraction"
        assert err["reason"].startswith("q_111 left the float range")
        assert not (tmp_path / "out").exists()

    def test_a_degenerate_quotient_exits_with_reason(self, tmp_path, capsys):
        # |c_3| = 1e-301 is below the degenerate-quotient limit of the expanding recurrence
        raw = {
            "system": {"family": "periodic_linear", "coeffs": [f"1/{10**301}", 10**302]},
            "a1": 1,
            "epsilon": 1e-3,
            "horizon": 20,
        }
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        reason = "|q_3| ~ 0; error dynamics singular"
        assert err == {"error": "DegenerateQuotient", "reason": reason}
        assert not (tmp_path / "out").exists()

    def test_a_tail_product_past_the_float_range_exits_with_a_verdict(self, tmp_path, capsys):
        # the tail estimate's math.exp overflowed past 1/(10^-300)^2: a traceback;
        # then d_1 overflowed and the verdict was fail with sup_err inf
        tiny = f"1/{10**300}"
        raw = {
            "system": {"family": "periodic_linear", "coeffs": [tiny, tiny, 1e300, 1e300, 1e10]},
            "horizon": 1,
        }
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        reason = "d_1 = (r_1 + d_2)/q_1 left the float range"
        assert json.loads(err) == {"error": "DegenerateQuotient", "reason": reason}
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_an_infinite_K_bounds_by_epsilon(self, tmp_path):
        # K*eps/(K - 1) was inf/inf = NaN, so the verdict was fail
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(TINY_RATE))
        assert main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = _strict_json((tmp_path / "out" / "summary.json").read_text())
        assert summary["K"] == "Infinity" and summary["horizon"] == 200
        assert summary["bound"] == 1e-3
        assert summary["verdict"] == "pass"

    def test_nonlinear_fixture_passes(self, tmp_path):
        rc = main(
            ["shadow", "--config", str(fixture_path("nonlinear_sinusoid")), "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["method"] == "expanding_tail_series"
        assert summary["sup_err"] <= summary["bound"]

    def test_csv_rows_are_self_consistent(self, tmp_path):
        from hu_shadow import load_scenario

        rc = main(
            ["shadow", "--config", str(fixture_path("nonlinear_sinusoid")), "--out", str(tmp_path)]
        )
        assert rc == 0
        sc = load_scenario(fixture_path("nonlinear_sinusoid"))
        with open(tmp_path / "orbit.csv") as fh:
            rows = list(csv.DictReader(fh))
        for prev, cur in zip(rows, rows[1:]):
            n = int(prev["n"])
            a_n = complex(float(prev["a_re"]), float(prev["a_im"]))
            r_n = complex(float(prev["r_re"]), float(prev["r_im"]))
            a_next = complex(float(cur["a_re"]), float(cur["a_im"]))
            expected = sc.system.eval_map(n, a_n) + r_n
            assert abs(a_next - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_zero_epsilon_all_zero_errors(self, tmp_path):
        rc = main(
            [
                "shadow",
                "--config",
                str(fixture_path("nonlinear_sinusoid")),
                "--epsilon",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["sup_err"] == 0.0
        with open(tmp_path / "orbit.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row["abs_err"]) == 0.0 for row in rows)

    def test_contracting_fixture_reports_measured_violation(self, tmp_path):
        # the measured sup error (9*eps) genuinely exceeds the asymptotic
        # bound K*eps/(K-1) for this fixture; the verdict must say so
        rc = main(
            ["shadow", "--config", str(fixture_path("contracting_periodic")), "--out", str(tmp_path)]
        )
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "fail"
        assert summary["sup_err"] == pytest.approx(9e-3, rel=1e-9)

    def test_horizon_override(self, tmp_path):
        rc = main(
            [
                "shadow",
                "--config",
                str(fixture_path("nonlinear_sinusoid")),
                "--horizon",
                "25",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["horizon"] == 25

    def test_shortened_horizon_is_noted_on_stderr(self, tmp_path, capsys):
        args = ["shadow", "--config", str(fixture_path("nonlinear_sinusoid")), "--out", str(tmp_path)]
        assert main([*args, "--horizon", "5000"]) == 0
        err = capsys.readouterr().err
        assert err == (
            "hu-shadow: note: the pseudo-orbit reached n = 629 of the requested horizon 5000; "
            "its next value leaves the representable range\n"
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["horizon"] == 629
        with open(tmp_path / "orbit.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 629
        # a horizon that is reached is not noted
        assert main([*args, "--horizon", "600"]) == 0
        assert capsys.readouterr().err == ""

    def test_unstable_fixture_has_no_construction(self, tmp_path, capsys):
        rc = main(
            ["shadow", "--config", str(fixture_path("unstable_parity")), "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "periodic_below_one" in err["reason"]


class TestEvenShiftEdges:
    @pytest.mark.parametrize("command", ["analyze", "instability"])
    @pytest.mark.parametrize("system", EVEN_SHIFT_EDGES, ids=["wrap", "past_int64", "power_of_three"])
    def test_an_even_class_past_the_float_range_exits_with_reason(
        self, tmp_path, capsys, command, system
    ):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"system": system, "horizon": 40}))
        start = time.perf_counter()
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "RateRangeError",
            "reason": "growth rate must be positive: p_n = 0.0 at n = 2",
        }


class TestInstability:
    def test_unstable_fixture(self, tmp_path):
        rc = main(
            ["instability", "--config", str(fixture_path("unstable_parity")), "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "witness.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["witness"]["m"] == 2
        with open(tmp_path / "witness.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        errors = [float(r["observed_error"]) for r in rows]
        assert errors == sorted(errors)

    def test_zero_epsilon_fails_without_divergence(self, tmp_path):
        # epsilon 0 makes the pseudo-orbit a true orbit, so every observed
        # error is 0; -inf < -inf is false, and this once passed
        config = str(fixture_path("unstable_parity"))
        rc = main(["instability", "--config", config, "--epsilon", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert json.loads((tmp_path / "witness.json").read_text())["verdict"] == "fail"
        with open(tmp_path / "witness.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(float(r["observed_error"]) == 0.0 for r in rows)

    def test_stable_fixture_refused(self, tmp_path, capsys):
        rc = main(
            [
                "instability",
                "--config",
                str(fixture_path("contracting_periodic")),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "no witness" in err["reason"]

    def test_negative_even_shift_exits_with_json(self, tmp_path, capsys):
        # base^-(n+shift) has a positive exponent for n < 5; it once raised
        # TypeError from Fraction(1, float)
        raw = json.loads(fixture_path("unstable_parity").read_text())
        raw["system"]["even_shift"] = -5
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        rc = main(["instability", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        if rc == 0:
            assert json.loads((tmp_path / "out" / "witness.json").read_text())["verdict"] == "pass"
        else:
            err = json.loads(capsys.readouterr().err)
            assert set(err) == {"error", "reason"}

    @pytest.mark.parametrize("kind", ["zero", "low_discrepancy_phase", "constant_phase"])
    def test_other_residual_kinds_are_a_config_error(self, tmp_path, capsys, kind):
        # the witness's pseudo-orbit has r_n = epsilon, whatever the scenario says
        raw = json.loads(fixture_path("unstable_parity").read_text())
        raw["residual"] = {"kind": kind}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(["instability", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "hu-shadow: config error: residual.kind: instability needs constant_real "
            f"residuals, got '{kind}'\n"
        )
        assert not out.exists()


class TestUsageAndConfig:
    def test_missing_config_flag(self, tmp_path, capsys, monkeypatch):
        # argparse's four-line usage error before
        monkeypatch.chdir(tmp_path)
        for command in ("analyze", "shadow", "instability"):
            assert main([command]) == 2
            err = capsys.readouterr().err
            assert err == f"hu-shadow: config error: command {command!r} requires --config\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--config", "/nonexistent.json"], "--config"),
            (["--horizon", "5"], "--horizon"),
            (["--epsilon", "0.5"], "--epsilon"),
            (
                ["--horizon", "5", "--epsilon", "0.5", "--config", "/nonexistent.json"],
                "--config or --horizon or --epsilon",
            ),
        ],
        ids=["config", "horizon", "epsilon", "all"],
    )
    def test_reproduce_refuses_the_scenario_flags(self, tmp_path, capsys, monkeypatch, flags, named):
        # reproduce once parsed these, dropped them and ran the shipped fixtures
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", *flags]) == 2
        assert capsys.readouterr().err == (
            f"hu-shadow: config error: reproduce runs the shipped fixtures and takes no {named}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_config(self, tmp_path):
        rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--horizon", "0", "horizon: must be a positive integer"),
            ("--horizon", str(MAX_HORIZON + 1), f"horizon: must be at most {MAX_HORIZON}, got"),
            ("--epsilon", "nan", "epsilon: expected a finite number"),
            # argparse's four-line usage error and a SystemExit out of main before
            ("--horizon", "1.5", "horizon: expected an integer, got str"),
            ("--horizon", "nan", "horizon: expected an integer, got str"),
            ("--epsilon", "x", "epsilon: cannot parse 'x' as a number"),
        ],
    )
    def test_invalid_override(self, tmp_path, capsys, flag, value, message):
        argv = ["shadow", "--config", str(fixture_path("nonlinear_sinusoid")), flag, value]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"hu-shadow: config error: {message}")

    # each of these once ended in a traceback or a silent bad run
    @pytest.mark.parametrize(
        "fixture, key, value",
        [
            ("unstable_parity", "system.base", "[1]"),
            ("nonlinear_sinusoid", "analysis.window", '"x"'),
            ("nonlinear_sinusoid", "analysis.window", "32.0"),
            ("nonlinear_sinusoid", "shadow.max_iter", "null"),
            ("nonlinear_sinusoid", "system.slope", '"1e999"'),
            ("nonlinear_sinusoid", "a1", "[1e999, 0]"),
            ("nonlinear_sinusoid", "a1", "[1.7e308, 1.7e308]"),  # past generation's limit
            ("nonlinear_sinusoid", "epsilon", "NaN"),
            ("nonlinear_sinusoid", "epsilon", "1e999"),
            ("nonlinear_sinusoid", "analysis.tol", "NaN"),
            ("nonlinear_sinusoid", "horizon", "true"),
            ("nonlinear_sinusoid", "epsilon", '"1/x"'),
            ("nonlinear_sinusoid", "epsilon", "true"),
            ("nonlinear_sinusoid", "a1", "[1, 2, 3]"),
            ("nonlinear_sinusoid", "analysis", "[]"),
            ("contracting_periodic", "system.coeffs", "[]"),
            ("nonlinear_sinusoid", "residual.kind", '"spiral"'),
            ("nonlinear_sinusoid", "system", "[]"),
            ("nonlinear_sinusoid", "analysis", '{"window": 0}'),
            ("nonlinear_sinusoid", "shadow", '{"tail_fraction": 1.0}'),
            # past the cap: the tables of such a horizon were allocated unchecked
            ("nonlinear_sinusoid", "horizon", str(MAX_HORIZON + 1)),
            ("nonlinear_sinusoid", "analysis.window", str(MAX_HORIZON // 4 + 1)),
        ],
    )
    def test_bad_scenario_value_is_a_config_error(self, tmp_path, capsys, fixture, key, value):
        raw = json.loads(fixture_path(fixture).read_text())
        *sections, leaf = key.split(".")
        target = raw
        for section in sections:
            target = target.setdefault(section, {})
        target[leaf] = "@VALUE@"
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw).replace('"@VALUE@"', value))
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"hu-shadow: config error: {key}")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, flags",
        [
            ({"horizon": MAX_HORIZON + 1}, []),
            ({"analysis": {"window": MAX_HORIZON // 4 + 1}}, []),
            ({}, ["--horizon", str(MAX_HORIZON + 1)]),
        ],
        ids=["horizon", "window", "flag"],
    )
    def test_a_horizon_past_the_cap_is_refused_before_any_table(
        self, tmp_path, capsys, monkeypatch, override, flags
    ):
        calls = []
        for name in ("_classes", "_rates"):
            monkeypatch.setattr(MapSystem, name, lambda self, ns, _n=name: calls.append(_n))
        raw = {**json.loads(fixture_path("contracting_periodic").read_text()), **override}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hu-shadow: config error: ") and err.count("\n") == 1
        assert "must be at most" in err
        assert calls == []

    def test_scenario_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text("[]")
        rc = main(["shadow", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "hu-shadow: config error: scenario: expected a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_default_output_directories(self, tmp_path, monkeypatch):
        # no --out: "out", relative to the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", str(fixture_path("contracting_periodic"))]) == 0
        assert (tmp_path / "out" / "classification.json").exists()
        main(["reproduce"])  # its exit status is TestReproduce's
        assert (tmp_path / "out" / "reproduce.json").exists()


def _within(got, want, tol) -> bool:
    if isinstance(want, str):
        return got == want
    if isinstance(want, list):
        return len(got) == len(want) and all(_within(g, w, tol) for g, w in zip(got, want))
    return abs(got - want) < tol


def _printed_verdict(claim: dict) -> bool:
    """A reproduce claim's verdict from its printed ``observed`` and
    ``required`` values alone."""
    observed, required = claim["observed"], claim["required"]
    if claim["claim"] == "divergence_growth":
        low, high = observed["ratio_range"]
        return observed["error_at_n21"] >= required["error_at_n21_min"] and all(
            abs(r - required["ratio"]) <= required["ratio_tol"] for r in (low, high)
        )
    if "tol" in required:
        return observed is not None and all(
            _within(observed[key], want, required["tol"])
            for key, want in required.items()
            if key != "tol"
        )
    assert set(required) == {f"{key}_max" for key in observed}
    return all(observed[key] <= required[f"{key}_max"] for key in observed)


class TestReproduce:
    def test_report_and_exit_status(self, tmp_path):
        rc = main(["reproduce", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "reproduce.json").read_text())
        claims = {c["claim"]: c["verdict"] for c in report["claims"]}
        # the passing claims
        assert claims["contracting_classification"] == "pass"
        assert claims["expanding_classification"] == "pass"
        assert claims["expanding_true_orbit"] == "pass"
        assert claims["periodic_detection"] == "pass"
        assert claims["divergence_growth"] == "pass"
        assert claims["nonlinear_classification"] == "pass"
        assert claims["nonlinear_sup_bound"] == "pass"
        # two documented sup-bound claims fail against measured data, so
        # the overall verdict (and exit status) must report failure
        assert claims["contracting_sup_bound"] == "fail"
        assert claims["expanding_sup_bound"] == "fail"
        assert report["verdict"] == "fail"
        assert rc == 1

    def test_each_verdict_follows_from_its_printed_values(self, tmp_path):
        main(["reproduce", "--out", str(tmp_path)])
        claims = json.loads((tmp_path / "reproduce.json").read_text())["claims"]
        assert len(claims) == 9
        for claim in claims:
            assert claim["verdict"] == ("pass" if _printed_verdict(claim) else "fail"), claim

    def test_exit_zero_iff_all_pass(self, tmp_path):
        rc = main(["reproduce", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "reproduce.json").read_text())
        assert (rc == 0) == (report["failed"] == 0)


class TestByteIdentity:
    """Every shipped-fixture invocation writes exactly the recorded bytes."""

    @pytest.mark.parametrize("name", sorted(FIXTURES_CLI))
    def test_outputs_match_references(self, tmp_path, name):
        command, _, fixture = name.partition(".")
        argv = [command] + (["--config", str(fixture_path(fixture))] if fixture else [])
        rc = main(argv + ["--out", str(tmp_path)])
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        assert rc == FIXTURES_CLI[name]["exit"]
        assert written == FIXTURES_CLI[name]["files"]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(
                ["shadow", "--config", str(fixture_path("nonlinear_sinusoid")), "--out", str(out)]
            )
            assert rc == 0
        assert (out_a / "orbit.csv").read_bytes() == (out_b / "orbit.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


class TestTracerGuard:
    """The benchmark's tracer finds every name it wraps, and puts each back."""

    def test_a_traced_shadow_run_restores_every_name(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(REFERENCES.parent))  # perfbench/
        tracer = importlib.import_module("tracer")

        def bindings():
            out = {("growth", "np"): growth.np}
            for name, (home, users, _) in tracer.SPANS.items():
                attr = name.split(".", 1)[1]
                for owner in (home, *users):
                    out[owner.__name__, attr] = getattr(owner, attr)
            for method in tracer.METHOD_COUNTERS.values():
                out["MapSystem", method] = getattr(MapSystem, method)
            return out

        before = bindings()
        with tracer.Tracer().installed() as traced:
            config = str(fixture_path("nonlinear_sinusoid"))
            assert cli.main(["shadow", "--config", config, "--out", str(tmp_path)]) == 0
        names = {span[0] for span in traced.spans}
        assert {"cli.main", "systems.generate_pseudo_orbit", "shadowing.shadow_expanding"} <= names
        assert traced.counts["systems.eval_map_calls"] > 0
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())


# -- the per-cell CSV builders that the one-pass writers replace, verbatim --


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact float round-trips."""
    return format(float(x), ".17g")


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _profile_text(rates, profile) -> str:
    rows = [
        [str(n), _fmt(rate), _fmt(profile.log_sum(n)), _fmt(profile.avg[n - 1])]
        for n, rate in enumerate(rates, 1)
    ]
    return _csv_text(["n", "rate", "log_partial", "avg"], rows)


def _orbit_text(pseudo, result) -> str:
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
    return _csv_text(
        ["n", "a_re", "a_im", "b_re", "b_im", "r_re", "r_im", "abs_err", "bound", "log10_abs_err"],
        rows,
    )


def _witness_text(witness) -> str:
    rows = []
    for s in witness.samples:
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
    return _csv_text(
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


INF, NAN = math.inf, math.nan
#: every kind of double a CSV cell can hold
SPECIAL = [0.0, -0.0, INF, -INF, NAN, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]


def _synthetic_orbit():
    """A pseudo-orbit and a shadowing result holding every special double,
    with a zero, a NaN and an infinite error (an empty log10 cell for the
    first two)."""
    values = [complex(x, y) for x, y in zip(SPECIAL, reversed(SPECIAL))]
    pseudo = PseudoOrbit(
        a=tuple(values),
        r=tuple(values[1:]),
        epsilon=1e-3,
        horizon=len(values),
        policy=ResidualPolicy(),
    )
    d = [0j, complex(NAN, 0.0), complex(INF, 1.0), 1e-320j, 0.1 + 0.2j, -0j, 3.0, -1e300]
    result = ShadowResult(
        b=tuple(reversed(values)),
        d=tuple(d),
        bound=0.1 + 0.2,
        method=ShadowMethod.CONTRACTING_DIRECT,
        meta=ShadowMeta(truncation=0, iterations=1, residual_sup=0.0, sound_bound=INF),
    )
    return pseudo, result


def _synthetic_witness():
    samples = tuple(
        WitnessSample(
            k=k,
            n=2 * k + 1,
            lower_bound=x,
            S_n=SPECIAL[k - 1],
            observed_error=1.0 / 3.0 * k,
            log10_lower_bound=-x,
            log10_S_n=x * k,
            log10_observed_error=math.pi**k,
            log_domain=k % 2 == 0,
        )
        for k, x in enumerate(SPECIAL, 1)
    )
    pseudo = PseudoOrbit(a=(1 + 0j,), r=(), epsilon=1e-3, horizon=1, policy=ResidualPolicy())
    return DivergenceWitness(
        m=2, prefix=0, p_idx=1, q_idx=2, K_p=2.0, K_q=4.0, C_p=4.0, epsilon=1e-3,
        horizon=40, samples=samples, pseudo=pseudo,
    )


class TestOneFormatPass:
    """Each CSV is formatted in one ``%`` pass, to the per-cell text."""

    @given(x=st.floats())
    def test_percent_format_equals_format(self, x):
        assert "%.17g" % x == format(x, ".17g")
        assert "%.17g" % np.float64(x) == format(float(np.float64(x)), ".17g")

    @pytest.mark.parametrize(
        "fixture, horizon",
        [
            ("contracting_periodic", None),
            ("expanding_alternating", None),
            ("nonlinear_sinusoid", None),
            ("unstable_parity", None),
            ("unstable_parity", 1030),  # rates past the float range: inf cells
        ],
    )
    def test_profile_csv(self, tmp_path, fixture, horizon):
        argv = ["analyze", "--config", str(fixture_path(fixture)), "--out", str(tmp_path)]
        assert main(argv + (["--horizon", str(horizon)] if horizon else [])) == 0
        scenario = load_scenario(fixture_path(fixture))
        rates = scenario.system.rates(max(horizon or 0, cli._analysis_horizon(scenario)))
        text = (tmp_path / "profile.csv").read_text()
        assert text == _profile_text(rates, build_profile(rates))
        assert ("inf" in text) == (horizon is not None)

    @pytest.mark.parametrize(
        "fixture", ["contracting_periodic", "expanding_alternating", "nonlinear_sinusoid"]
    )
    def test_orbit_csv(self, tmp_path, fixture):
        scenario = load_scenario(fixture_path(fixture))
        cli._cmd_shadow(scenario, tmp_path)
        _, pseudo, result = cli._run_shadow(scenario)
        assert (tmp_path / "orbit.csv").read_text() == _orbit_text(pseudo, result)

    def test_orbit_csv_with_special_values(self, tmp_path, monkeypatch):
        pseudo, result = _synthetic_orbit()
        cls = Classification(kind=ClassificationKind.CONVERGENT_BELOW_ONE, K=2.0)
        monkeypatch.setattr(cli, "_run_shadow", lambda scenario: (cls, pseudo, result))
        cli._cmd_shadow(load_scenario(fixture_path("contracting_periodic")), tmp_path)
        text = (tmp_path / "orbit.csv").read_text()
        assert text == _orbit_text(pseudo, result)
        assert text.splitlines()[1].endswith(",") and text.splitlines()[2].endswith(",")

    def test_witness_csv(self, tmp_path):
        scenario = load_scenario(fixture_path("unstable_parity"))
        cli._cmd_instability(scenario, tmp_path)
        _, witness = cli._run_witness(scenario)
        assert witness.samples
        assert (tmp_path / "witness.csv").read_text() == _witness_text(witness)

    @pytest.mark.parametrize("empty", [False, True])
    def test_witness_csv_with_special_values(self, tmp_path, monkeypatch, empty):
        witness = _synthetic_witness()
        if empty:  # the header alone
            witness = DivergenceWitness(**{**witness.__dict__, "samples": ()})
        cls = Classification(kind=ClassificationKind.PERIODIC_BELOW_ONE)
        monkeypatch.setattr(cli, "_run_witness", lambda scenario: (cls, witness))
        cli._cmd_instability(load_scenario(fixture_path("unstable_parity")), tmp_path)
        assert (tmp_path / "witness.csv").read_text() == _witness_text(witness)


class TestAtomicWrite:
    @pytest.mark.parametrize("fails", ["write", "replace"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch, fails):
        text = "n\n1\n"
        if fails == "write":
            text += "\ud800"  # a lone surrogate has no encoding
        else:
            def refuse(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(UnicodeEncodeError if fails == "write" else OSError):
            cli._write_atomic(tmp_path / "out" / "profile.csv", text)
        assert list((tmp_path / "out").iterdir()) == []

    def test_the_replace_error_propagates_past_a_failed_unlink(self, tmp_path, monkeypatch):
        def refuse(*paths):
            raise OSError(f"{len(paths)} refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        monkeypatch.setattr(cli.os, "unlink", refuse)
        with pytest.raises(OSError, match="^2 refused$"):
            cli._write_atomic(tmp_path / "out" / "profile.csv", "n\n1\n")

    def test_a_float_that_is_not_finite_is_written_as_a_string(self, tmp_path):
        obj = {"a": [math.inf, (-math.inf, 1.5)], "b": {"c": math.nan}, "d": None, "e": True}
        cli._write_json(tmp_path / "out.json", obj)
        assert _strict_json((tmp_path / "out.json").read_text()) == {
            "a": ["Infinity", ["-Infinity", 1.5]], "b": {"c": "NaN"}, "d": None, "e": True
        }


# -- fuzzer ---------------------------------------------------------------

#: Parameters at the edges of the float range, and slopes next to one.
EXTREME = [1e300, -1e300, 1e-300, 5e-324, -5e-324, 1e-320, 1.7e308, 1.0 + 2**-52, 1.05]
fuzz_reals = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(EXTREME))
fuzz_systems = st.one_of(
    st.lists(fuzz_reals, min_size=1, max_size=4).map(
        lambda coeffs: {"family": "periodic_linear", "coeffs": coeffs}
    ),
    st.builds(
        lambda odd, even: {
            "family": "index_scaled_linear", "odd_scale": odd, "even_inverse_scale": even
        },
        fuzz_reals,
        fuzz_reals,
    ),
    st.one_of(
        st.tuples(st.integers(0, 12), st.integers(-8, 8)),
        st.tuples(
            st.sampled_from([2, 3, 4]),
            st.sampled_from([2**62, -(2**62), 2**63, -(2**63), 10**8]),
        ),
    ).map(lambda bs: {"family": "power_two_parity", "base": bs[0], "even_shift": bs[1]}),
    st.builds(
        lambda slope: {"family": "affine_sinusoid", "slope": slope},
        st.one_of(st.floats(1.0, 6.0), st.sampled_from(EXTREME)),
    ),
)
fuzz_residuals = st.builds(
    lambda kind, theta: {"kind": kind, "theta": theta},
    st.sampled_from([kind.value for kind in PolicyKind]),
    st.floats(-7.0, 7.0),
)


def fuzz_runs(command: str):
    """(command, scenario): instability's residuals are constant_real, the one
    kind it takes, so that its runs reach the witness."""
    residuals = st.just({"kind": "constant_real"}) if command == "instability" else fuzz_residuals
    scenarios = st.fixed_dictionaries(
        {
            "system": fuzz_systems,
            "a1": st.one_of(fuzz_reals, st.lists(fuzz_reals, min_size=2, max_size=2)),
            "epsilon": st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-310, 1e-3, 1.0, 1e3, 1e300]),
                st.floats(0.0, 10.0),
            ),
            "residual": residuals,
            "horizon": st.one_of(st.integers(1, 200), st.integers(1, 3000)),
        }
    )
    return st.tuples(st.just(command), scenarios)


#: ``--horizon`` and ``--epsilon`` as single ``--flag=value`` tokens, so that
#: argparse reads a value such as -inf as a value, not as an option.
fuzz_flags = st.lists(
    st.one_of(
        st.builds(
            "--horizon={}".format,
            st.one_of(
                st.sampled_from(["0", "-1", "nan", "inf", "1.5", "x", str(MAX_HORIZON + 1)]),
                st.integers(1, 3000),
            ),
        ),
        st.builds(
            "--epsilon={}".format,
            st.one_of(
                st.sampled_from(["0", "-1e-3", "nan", "inf", "-inf", "5e-324", "1e300", "x"]),
                st.floats(0.0, 10.0),
            ),
        ),
    ),
    max_size=2,
)


def _with_examples(test):
    """The inputs that once ended in a traceback or a silent bad run."""
    parity = json.loads(fixture_path("unstable_parity").read_text())
    sinusoid = json.loads(fixture_path("nonlinear_sinusoid").read_text())
    examples = [
        ("shadow", QUOTIENT_OVERFLOW, []),
        *(
            ("analyze", {"system": {"family": "periodic_linear", "coeffs": coeffs}}, [])
            for coeffs in ([1e300, 1e300, 1e-300, 1e-300], [5e-324, 1e-320])
        ),
        ("instability", {**parity, "system": {**parity["system"], "even_shift": -5}}, []),
        ("analyze", parity, ["--horizon=2000"]),
        *(
            (command, {"system": system, "horizon": 40}, [])
            for system in EVEN_SHIFT_EDGES
            for command in ("analyze", "instability")
        ),
        ("analyze", parity, ["--horizon=nan"]),
        ("shadow", sinusoid, ["--epsilon=nan"]),
        ("analyze", {"system": {"family": "affine_sinusoid", "base": 2}}, []),
        *(
            ("shadow", {**sinusoid, key: value}, [])
            for key, value in [
                ("epsilon", "1/x"),
                ("epsilon", True),
                ("a1", [1, 2, 3]),
                ("analysis", []),
                ("analysis", {"window": 0}),
                ("system", {"family": "periodic_linear", "coeffs": []}),
                ("residual", {"kind": "spiral"}),
                ("system", []),
                ("shadow", {"tail_fraction": 1.0}),
            ]
        ),
    ]
    for command, raw, flags in reversed(examples):
        test = example(run=(command, raw), flags=flags)(test)
    return test


class TestFuzzer:
    """Every scenario ends in a result, exit 1 with a JSON reason or exit 2
    with one line: never an exception out of ``main``."""

    @settings(max_examples=60, deadline=None)
    @given(
        run=st.sampled_from(["analyze", "shadow", "instability"]).flatmap(fuzz_runs),
        flags=fuzz_flags,
    )
    @_with_examples
    def test_main_ends_cleanly(self, run, flags):
        command, raw = run
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "scenario.json"
            config.write_text(json.dumps(raw))
            argv = [command, "--config", str(config), "--out", str(Path(tmp) / "out"), *flags]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            for written in (Path(tmp) / "out").glob("*.json"):
                _strict_json(written.read_text())
        lines = err.getvalue().splitlines()
        assert rc in (0, 1, 2)
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("hu-shadow: config error: ")
        for line in lines:
            if not line.startswith("hu-shadow: "):
                assert set(json.loads(line)) == {"error", "reason"}
