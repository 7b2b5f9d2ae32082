import json
from pathlib import Path

import jsonschema
import pytest

from extbounds.cli import ConfigError, ScenarioConfig, load_config, main

REPO = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = json.loads((REPO / "schemas" / "report.schema.json").read_text())
CONSTANTS_SCHEMA = json.loads((REPO / "schemas" / "constants.schema.json").read_text())


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "problem": "N3_harmonic",
    "estimate": "I",
    "quadrature": {"radial_order": 10, "angular_order": 10, "shells": 12},
    "trace": {"L": 6},
    "perturbation": {"target": "v", "mode": "interior_bump",
                     "epsilons": [0.1], "seed": 3},
    "sweep": {"kind": "epsilon", "values": [0.1, 0.05]},
    "poincare": {"count": 5},
}


class TestConfig:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "N3_harmonic",\n  "estimate": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            ScenarioConfig.from_dict({"frobnicate": 1})

    def test_unknown_problem_named(self):
        with pytest.raises(ConfigError, match="problem"):
            ScenarioConfig.from_dict({"problem": "N9"})

    def test_negative_epsilon_names_field(self):
        with pytest.raises(ConfigError, match="perturbation.epsilons"):
            ScenarioConfig.from_dict(
                {"perturbation": {"epsilons": [0.1, -0.2]}}
            )

    def test_trace_order_coupling(self):
        with pytest.raises(ConfigError, match="angular_order"):
            ScenarioConfig.from_dict(
                {"quadrature": {"angular_order": 4}, "trace": {"L": 8}}
            )

    def test_modes_below_trace_degree_named(self):
        with pytest.raises(ConfigError, match="constants.modes"):
            ScenarioConfig.from_dict({"constants": {"modes": 8}, "trace": {"L": 10}})

    def test_defaults_fill_in(self):
        cfg = ScenarioConfig.from_dict({})
        assert cfg.problem == "N3_harmonic" and cfg.estimate == "I"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.json")


class TestCommands:
    def test_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope}")
        code = main(["majorant", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,payload", [
        ("perturbation.epsilons", {"perturbation": {"epsilons": []}}),
        ("constants.modes", {"constants": {"modes": 8}, "trace": {"L": 10},
                             "quadrature": {"angular_order": 12},
                             "perturbation": {"mode": "boundary_mode"}}),
        ("constants.modes", {"constants": {"modes": 4}}),
        ("constants.mesh", {"constants": {"mesh": 512}}),
    ])
    def test_bad_config_exits_2_naming_field(self, tmp_path, capsys, field, payload):
        cfg = write_config(tmp_path, payload)
        code = main(["majorant", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "Traceback" not in err
        if field == "constants.mesh":
            assert "removed" in err

    def test_majorant_report_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["guarantee_ok"] is True
        assert payload["efficiency_index"] >= 1 - 1e-8

    def test_minorant_report_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["minorant", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_sandwich_report_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["sandwich", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["lower"] <= payload["true_error"] * (1 + 1e-8)
        assert payload["true_error"] <= payload["upper"] * (1 + 1e-8)

    def test_constants_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        jsonschema.validate(payload, CONSTANTS_SCHEMA)
        names = {c["name"] for c in payload["constants"]}
        assert names == {
            "exterior_poincare", "interior_weight_formula", "interior_friedrichs",
            "boundary_extension", "interface_trace",
        }

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "epsilon_or_R,residual,flux,interface,boundary,total,"
            "true_error,efficiency_index"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            eff = float(line.split(",")[-1])
            assert eff >= 1 - 1e-8

    def test_verify_poincare_small(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["verify-poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "poincare.csv").read_text().splitlines()
        assert lines[0] == "id,N,beta,lhs,rhs,margin,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_broken_flux_estimate_iii(self, tmp_path):
        payload = dict(BASE)
        payload["estimate"] = "III"
        payload["perturbation"] = {
            "target": "y_broken", "mode": "interface_jump",
            "epsilons": [0.05], "seed": 1,
        }
        cfg = write_config(tmp_path, payload)
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["terms"]["interface"] > 0.0

    def test_seed_override_changes_scenario(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        main(["majorant", "--config", cfg, "--seed", "1", "--out", str(out_a)])
        main(["majorant", "--config", cfg, "--seed", "2", "--out", str(out_b)])
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["true_error"] != b["true_error"]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        for out in (out_a, out_b):
            assert main(["majorant", "--config", cfg, "--seed", "11",
                         "--out", str(out)]) == 0
            assert main(["sweep", "--config", cfg, "--seed", "11",
                         "--out", str(out)]) == 0
            assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
            assert main(["verify-poincare", "--config", cfg, "--seed", "11",
                         "--out", str(out)]) == 0
        for name in ("report.json", "sweep.csv", "constants.json", "poincare.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
