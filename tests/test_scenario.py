"""Scenario file loading, validation and round-tripping."""

import inspect
import json
import re

import pytest

from hu_shadow import (
    ConfigError,
    Family,
    PolicyKind,
    fixture_path,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from hu_shadow import FIXTURE_NAMES
from hu_shadow.cli import main
from hu_shadow.scenario import MAX_HORIZON


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {
    "system": {"family": "periodic_linear", "coeffs": [2, 0.3333333333333333]},
    "epsilon": 0.001,
    "horizon": 200,
}


class TestLoading:
    def test_minimal_gets_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert sc.system.family is Family.PERIODIC_LINEAR
        assert sc.a1 == 1 + 0j
        assert sc.epsilon == 0.001
        assert sc.horizon == 200
        assert sc.residual.kind is PolicyKind.CONSTANT_REAL
        assert sc.analysis.window == 32
        assert sc.shadow.max_iter == 100

    def test_fraction_strings_stay_exact(self, tmp_path):
        payload = {"system": {"family": "periodic_linear", "coeffs": [2, "1/3"]}}
        sc = load_scenario(write_scenario(tmp_path, payload))
        assert sc.system.coefficient_pairs(2)[1] == (1, 3)

    def test_zero_coefficient_rejected(self, tmp_path):
        payload = {"system": {"family": "periodic_linear", "coeffs": [2, 0]}}
        with pytest.raises(ConfigError, match="growth rate must be positive"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_top_level_key(self, tmp_path):
        payload = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_section_key(self, tmp_path):
        payload = dict(MINIMAL, analysis={"window": 32, "wobble": 1})
        with pytest.raises(ConfigError, match="wobble"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            scenario_from_dict({"system": {"family": "logistic"}})

    def test_missing_system(self):
        with pytest.raises(ConfigError, match="system"):
            scenario_from_dict({"epsilon": 0.001})

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"system": ')
        with pytest.raises(ConfigError, match=r":1:"):
            load_scenario(path)

    def test_an_integer_literal_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # json.dumps refuses to write such an int, so the text is written directly
        path = tmp_path / "scenario.json"
        path.write_text('{"system": {"family": "power_two_parity", "base": ' + "7" * 5000 + "}}")
        with pytest.raises(ConfigError, match=r"scenario\.json: invalid JSON: Exceeds the limit"):
            load_scenario(path)
        rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hu-shadow: config error: ") and err.count("\n") == 1

    def test_a_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"system": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read scenario file"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            scenario_from_dict(dict(MINIMAL, epsilon=-1.0))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            scenario_from_dict(dict(MINIMAL, horizon=0))

    def test_horizon_cap(self):
        # a horizon or 4*window past the cap went straight to table allocation
        assert scenario_from_dict(dict(MINIMAL, horizon=MAX_HORIZON)).horizon == MAX_HORIZON
        window = MAX_HORIZON // 4
        assert scenario_from_dict(dict(MINIMAL, analysis={"window": window})).analysis.window == window
        with pytest.raises(ConfigError, match=rf"^horizon: must be at most {MAX_HORIZON}, got"):
            scenario_from_dict(dict(MINIMAL, horizon=MAX_HORIZON + 1))
        with pytest.raises(ConfigError, match=rf"^analysis.window: must be at most {window}$"):
            scenario_from_dict(dict(MINIMAL, analysis={"window": window + 1}))

    def test_complex_a1_pair(self):
        sc = scenario_from_dict(dict(MINIMAL, a1=[1.5, -0.5]))
        assert sc.a1 == 1.5 - 0.5j

    @pytest.mark.parametrize(
        "system, foreign",
        [
            (
                {"family": "power_two_parity", "coeffs": [5, 7], "slope": "x", "odd_scale": None},
                ["coeffs", "odd_scale", "slope"],
            ),
            ({"family": "periodic_linear", "coeffs": [2, "1/3"], "base": 2}, ["base"]),
            ({"family": "index_scaled_linear", "even_shift": 3}, ["even_shift"]),
            ({"family": "affine_sinusoid", "slope": 3, "odd_scale": 2}, ["odd_scale"]),
        ],
        ids=["parity", "periodic", "index", "sinusoid"],
    )
    def test_another_familys_key_is_refused(self, tmp_path, capsys, system, foreign):
        # every family's keys used to be accepted, then ignored and round-tripped
        message = f"system: unknown keys {foreign}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict(dict(MINIMAL, system=system))
        path = write_scenario(tmp_path, dict(MINIMAL, system=system))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"hu-shadow: config error: {message}"]

    def test_factory_keys_are_read_at_import(self, monkeypatch):
        calls = []
        original = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda *a, **k: calls.append(a) or original(*a, **k))
        for name in FIXTURE_NAMES:
            load_scenario(fixture_path(name))
        assert calls == []

    def test_formats_is_an_unknown_key(self, tmp_path, capsys, monkeypatch):
        # output.formats was parsed but never honoured, and output.directory
        # was a second route beside --out; the whole section is gone
        monkeypatch.chdir(tmp_path)
        for output in ({"formats": ["csv", "json"]}, {"directory": "results"}):
            path = write_scenario(tmp_path, dict(MINIMAL, output=output))
            assert main(["analyze", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "hu-shadow: config error: scenario: unknown keys ['output']\n"
            assert list(tmp_path.iterdir()) == [path]


class TestRoundTrip:
    def test_lossless(self):
        sc = scenario_from_dict(dict(MINIMAL))
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again.system == sc.system
        assert again.a1 == sc.a1
        assert again.epsilon == sc.epsilon
        assert again.residual == sc.residual
        assert again.horizon == sc.horizon
        assert again.analysis == sc.analysis
        assert again.shadow == sc.shadow
        assert scenario_to_dict(again) == scenario_to_dict(sc)

    def test_the_system_section_is_the_scenarios_own(self):
        # system_config was the caller's raw["system"] object, and scenario_to_dict
        # returned it: a write on either side showed on the other
        system = {"family": "periodic_linear", "coeffs": [2, "1/3"]}
        raw = {**MINIMAL, "system": {**system, "coeffs": list(system["coeffs"])}}
        sc = scenario_from_dict(raw)
        raw["system"]["coeffs"] = [5]  # the caller's side
        assert scenario_to_dict(sc)["system"] == system
        out = scenario_to_dict(sc)
        out["system"]["coeffs"].append(7)  # the returned side
        out["system"]["family"] = "affine_sinusoid"
        assert scenario_to_dict(sc)["system"] == system
        assert scenario_from_dict(scenario_to_dict(sc)).system == sc.system

    @pytest.mark.parametrize(
        "given, defaulted",
        [
            ({"family": "power_two_parity"}, {"base": 2, "even_shift": 3}),
            ({"family": "power_two_parity", "even_shift": 5}, {"base": 2, "even_shift": 5}),
            ({"family": "index_scaled_linear", "odd_scale": "1/3"},
             {"odd_scale": "1/3", "even_inverse_scale": 2}),
            ({"family": "affine_sinusoid"}, {"slope": 3.0}),
        ],
        ids=["parity", "parity_shift", "index_scaled", "sinusoid"],
    )
    def test_the_system_section_is_fully_defaulted(self, given, defaulted):
        # a missing key was left out of the dict form, so it and the same key
        # given its default gave unequal dicts
        full = {"family": given["family"], **defaulted}
        assert scenario_to_dict(scenario_from_dict({"system": given}))["system"] == full
        assert scenario_to_dict(scenario_from_dict({"system": full})) == scenario_to_dict(
            scenario_from_dict({"system": given})
        )

    @pytest.mark.parametrize(
        "key, spellings, written",
        [
            ("odd_scale", [3, "3/1", "6/2", "3.0"], 3),
            ("odd_scale", ["3/2", "6/4", "1.5", "15e-1"], "3/2"),
            ("even_inverse_scale", ["-1/3", "-2/6", "-3/9"], "-1/3"),
        ],
        ids=["integral", "rational", "negative"],
    )
    def test_spellings_of_one_rational_give_one_dict(self, key, spellings, written):
        # each value was kept as the file wrote it, so 3, "3/1" and "6/2" gave
        # unequal dicts for one experiment
        dicts = []
        for spelling in spellings:
            sc = scenario_from_dict({"system": {"family": "index_scaled_linear", key: spelling}})
            out = scenario_to_dict(sc)
            assert out["system"][key] == written and type(out["system"][key]) is type(written)
            again = scenario_from_dict(out)  # the round trip
            assert again.system == sc.system
            assert scenario_to_dict(again) == out
            dicts.append(out)
        assert all(d == dicts[0] for d in dicts)

    def test_a_float_parameter_stays_a_float(self):
        # coefficient_pairs refuses a float parameter, so 0.5 and "1/2" stay distinct
        coeffs = [2, 0.5, "1/2", "4/2"]
        sc = scenario_from_dict({"system": {"family": "periodic_linear", "coeffs": coeffs}})
        out = scenario_to_dict(sc)
        assert out["system"]["coeffs"] == [2, 0.5, "1/2", 2]
        assert [type(c) for c in out["system"]["coeffs"]] == [int, float, str, int]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_shipped_fixtures_load(self, name):
        sc = load_scenario(fixture_path(name))
        assert sc.epsilon == 0.001
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again.system == sc.system

    def test_expanding_fixture_matches_construction(self):
        sc = load_scenario(fixture_path("expanding_alternating"))
        assert sc.system.family is Family.INDEX_SCALED_LINEAR
        assert sc.system.coefficient_pairs(2) == [(3, 1), (1, 4)]
        assert sc.horizon == 60

    def test_unknown_fixture(self):
        with pytest.raises(ConfigError):
            fixture_path("missing")
