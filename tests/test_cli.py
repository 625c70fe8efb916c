"""End-to-end CLI behaviour: artifacts, verdicts, exit codes, determinism."""

import csv
import hashlib
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hu_shadow import cli, fixture_path, growth
from hu_shadow.cli import OUTPUT_DIR_ENV, main
from hu_shadow.growth import Classification, ClassificationKind, build_profile
from hu_shadow.instability import DivergenceWitness, WitnessSample
from hu_shadow.scenario import MAX_HORIZON, load_scenario
from hu_shadow.shadowing import ShadowMeta, ShadowMethod, ShadowResult
from hu_shadow.systems import MapSystem, PseudoOrbit, ResidualPolicy

#: Exit codes and file checksums of the 9 shipped-fixture invocations, as
#: recorded for the benchmark (read only).
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
FIXTURES_CLI = json.loads(REFERENCES.read_text())["workloads"]["fixtures-cli"]


def run(args, monkeypatch=None, env_out=None):
    if monkeypatch is not None:
        if env_out is None:
            monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        else:
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_out))
    return main(args)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


class TestAnalyze:
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


class TestShadow:
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
    def test_missing_config_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    def test_unreadable_config(self, tmp_path):
        rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value", [("--horizon", "0"), ("--horizon", str(MAX_HORIZON + 1)), ("--epsilon", "nan")]
    )
    def test_invalid_override(self, tmp_path, flag, value):
        rc = main(
            [
                "shadow",
                "--config",
                str(fixture_path("nonlinear_sinusoid")),
                flag,
                value,
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

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
            ("nonlinear_sinusoid", "epsilon", "NaN"),
            ("nonlinear_sinusoid", "epsilon", "1e999"),
            ("nonlinear_sinusoid", "analysis.tol", "NaN"),
            ("nonlinear_sinusoid", "horizon", "true"),
            ("nonlinear_sinusoid", "output.directory", "null"),
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
        for name in ("_tables", "_floats", "_pairs"):
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
        # no HU_SHADOW_OUT and no --out: the scenario's directory, else "out",
        # both relative to the working directory
        monkeypatch.chdir(tmp_path)
        raw = json.loads(fixture_path("contracting_periodic").read_text())
        raw.setdefault("output", {})["directory"] = "results"
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        assert main(["analyze", "--config", str(config)]) == 0
        assert (tmp_path / "results" / "classification.json").exists()
        main(["reproduce"])  # its exit status is TestReproduce's
        assert (tmp_path / "out" / "reproduce.json").exists()

    def test_env_var_overrides_out_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        rc = main(
            [
                "analyze",
                "--config",
                str(fixture_path("contracting_periodic")),
                "--out",
                str(tmp_path / "ignored"),
            ]
        )
        assert rc == 0
        assert (env_dir / "classification.json").exists()
        assert not (tmp_path / "ignored").exists()


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
