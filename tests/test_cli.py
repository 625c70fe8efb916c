"""End-to-end CLI behaviour: artifacts, verdicts, exit codes, determinism."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from hu_shadow import fixture_path
from hu_shadow.cli import OUTPUT_DIR_ENV, main

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


class TestUsageAndConfig:
    def test_missing_config_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    def test_unreadable_config(self, tmp_path):
        rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--horizon", "0"), ("--epsilon", "nan")])
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
