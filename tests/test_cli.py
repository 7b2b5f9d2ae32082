import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extbounds as xb
from extbounds.cli import (
    FIELDS, GUARANTEE_SLACK, ConfigError, ScenarioConfig, guarantee_ok, load_config, main,
)
from extbounds.fields import energy_norm
from extbounds.geometry import QuadratureError
from extbounds.problems import TARGET_MODES, _random_interior_bump, perturb

from cli_outputs import RUNS as OUTPUT_RUNS

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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# the settable keys of each section
FIELD_KEYS = {
    "quadrature": ("radial_order", "angular_order", "shells"),
    "trace": ("L",),
    "perturbation": ("target", "mode", "epsilons", "seed"),
    "sweep": ("kind", "values"),
    "minorant": ("n_radial", "degree", "include_error_in_basis"),
    "poincare": ("count",),
}
# misspelled keys of each section, and the keys of the former section
# ``constants``: no config carrying one parses
REJECTED_KEYS = {
    "quadrature": ("shell",),
    "trace": ("l",),
    "constants": ("variant", "modes", "cutoff", "mesh"),
    "perturbation": ("epsilon",),
    "minorant": ("include_error",),
    "poincare": ("counts",),
}
MISSPELT = ("quadrature.shell", "trace.l", "perturbation.epsilon",
            "minorant.include_error", "poincare.counts", "estimates")
# fields that are gone: an unknown field like any other
REMOVED = ("constants.modes", "constants.mesh", "constants.cutoff", "constants.variant",
           "boundary_mode")
SECTION_KEYS = {name: FIELD_KEYS.get(name, ()) + REJECTED_KEYS.get(name, ())
                for name in {*FIELD_KEYS, *REJECTED_KEYS}}
CONFIGS = st.fixed_dictionaries({}, optional={
    "problem": st.sampled_from(["N3_harmonic", "N2_log"]) | JSON_VALUES,
    "estimate": st.sampled_from(["I", "III"]) | JSON_VALUES,
    "boundary_mode": st.just("constant_based") | JSON_VALUES,
    "estimates": st.just("I") | JSON_VALUES,
    **{name: st.dictionaries(st.sampled_from(keys), JSON_VALUES) | JSON_VALUES
       for name, keys in SECTION_KEYS.items()},
})


def readme_config_block():
    """The JSON block under README "### Configuration", which lists the
    defaults."""
    section = (REPO / "README.md").read_text().split("### Configuration", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(CONFIGS)
    def test_from_dict_raises_only_config_error(self, raw):
        """Any JSON under the known sections parses or names a bad field."""
        try:
            cfg = ScenarioConfig.from_dict(raw)
        except ConfigError:
            return
        # removed and misspelled keys are drawn too: any value of them is an error
        assert not {"boundary_mode", "estimates", "constants"} & set(raw)
        for name, sec in raw.items():
            if isinstance(sec, dict):
                assert set(sec) <= set(FIELD_KEYS[name]), name
        assert cfg.seed >= 0 and len(cfg.epsilons) == 1 and cfg.sweep_values
        assert all(math.isfinite(e) and e >= 0 for e in cfg.epsilons)
        assert all(math.isfinite(v) and v > 0 for v in cfg.sweep_values)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "N3_harmonic",\n  "estimate": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000])
    def test_undecodable_config_named(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="config parse error"):
            load_config(str(path))

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            ScenarioConfig.from_dict({"frobnicate": 1})
        with pytest.raises(ConfigError, match="^frobnicate.a: unknown configuration field"):
            ScenarioConfig.from_dict({"frobnicate": {"a": 1}})

    def test_unknown_problem_named(self):
        with pytest.raises(ConfigError, match="problem"):
            ScenarioConfig.from_dict({"problem": "N9"})
        # an object under a field is a bad value, not a section
        with pytest.raises(ConfigError, match="^problem: expected str"):
            ScenarioConfig.from_dict({"problem": {"name": "N2_log"}})

    def test_negative_epsilon_names_field(self):
        with pytest.raises(ConfigError, match="perturbation.epsilons"):
            ScenarioConfig.from_dict(
                {"perturbation": {"epsilons": [0.1, -0.2]}}
            )

    @pytest.mark.parametrize("epsilons", [[], [0.1, 0.05], [0.1, 0.05, 0.025], [-0.1]])
    def test_epsilons_hold_one_value(self, epsilons):
        # every command reads one epsilon: a longer list would be ignored input
        with pytest.raises(ConfigError, match=r"^perturbation\.epsilons: .*sweep\.values"):
            ScenarioConfig.from_dict({"perturbation": {"epsilons": epsilons}})
        assert ScenarioConfig.from_dict({"perturbation": {"epsilons": [0.0]}}).epsilons == [0.0]

    def test_trace_order_coupling(self):
        with pytest.raises(ConfigError, match="angular_order"):
            ScenarioConfig.from_dict(
                {"quadrature": {"angular_order": 4}, "trace": {"L": 8}}
            )

    def test_modes_below_trace_degree_named(self):
        with pytest.raises(ConfigError, match="^constants.modes: unknown configuration field"):
            ScenarioConfig.from_dict({"constants": {"modes": 8}, "trace": {"L": 10}})

    def test_dotted_top_level_key_is_unknown(self):
        with pytest.raises(ConfigError, match="^trace.L: unknown configuration field"):
            ScenarioConfig.from_dict({"trace.L": 3})

    def test_removed_keys_named(self):
        # the extension's cutoff is R, the constants take no mesh and cover
        # the trace band, the boundary term has one form and c_o one value:
        # any value, null included, names the key as an unknown field
        for key in ("cutoff", "mesh", "variant", "modes"):
            for value in (None, 1.3, 5.0, 512, "eigen", "formula"):
                with pytest.raises(ConfigError,
                                   match=f"^constants.{key}: unknown configuration field"):
                    ScenarioConfig.from_dict({"constants": {key: value}})
        for value in (None, "extension_based", "constant_based", 1, {}):
            with pytest.raises(ConfigError, match="^boundary_mode: unknown configuration field"):
                ScenarioConfig.from_dict({"boundary_mode": value})
        # no section is left under the name
        for value in (None, {}, 3):
            with pytest.raises(ConfigError, match="^constants: unknown configuration field"):
                ScenarioConfig.from_dict({"constants": value})

    def test_readme_configuration_block_is_the_default(self):
        assert ScenarioConfig.from_dict(readme_config_block()) == ScenarioConfig()

    def test_readme_configuration_block_names_every_field(self):
        # a field cannot be added without its README entry, nor linger there
        names = {f"{key}.{sub}" if isinstance(val, dict) else key
                 for key, val in readme_config_block().items()
                 for sub in (val if isinstance(val, dict) else [None])}
        assert names == set(FIELDS)

    def test_defaults_fill_in(self):
        cfg = ScenarioConfig.from_dict({})
        assert cfg.problem == "N3_harmonic" and cfg.estimate == "I"
        cfg = ScenarioConfig.from_dict({"quadrature": {"shells": None}, "sweep": None})
        assert cfg.shells == 8 and cfg.sweep_kind == "epsilon"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.json")


FINITE = st.floats(0.0, 10.0) | st.sampled_from([0.0, 1e-300, 1.0, 1e3, 1e150, 1e300])


@st.composite
def accepted_configs(draw):
    """Configs ``from_dict`` accepts, at a resolution small enough for
    one command to take milliseconds."""
    L = draw(st.integers(1, 4))
    target = draw(st.sampled_from(sorted(TARGET_MODES)))
    return {
        "problem": draw(st.sampled_from(xb.CATALOG)),
        "estimate": draw(st.sampled_from(["I", "II", "III"])),
        "quadrature": {"radial_order": draw(st.integers(1, 4)),
                       "angular_order": draw(st.integers(L + 1, L + 3)),
                       "shells": draw(st.integers(1, 3))},
        "trace": {"L": L},
        "perturbation": {"target": target,
                         "mode": draw(st.sampled_from(TARGET_MODES[target])),
                         "epsilons": draw(st.lists(FINITE, min_size=1, max_size=1)),
                         "seed": draw(st.integers(0, 2**70))},
        "sweep": {"kind": draw(st.sampled_from(["epsilon", "radius"])),
                  "values": draw(st.lists(
                      st.floats(1e-3, 1e3) | st.sampled_from([1.0, 1.000000001, 1.5]),
                      min_size=1, max_size=2))},
        "minorant": {"n_radial": draw(st.integers(1, 4)), "degree": draw(st.integers(0, 1)),
                     "include_error_in_basis": draw(st.booleans())},
        "poincare": {"count": draw(st.integers(1, 2))},
    }


# configs the fuzz once drew: an epsilon of 1e300 overflowed, with a
# warning, the trace of a boundary-mode v (majorant) and the scaled
# gradient of v at R = 1.000000001 (sweep to that radius, target y)
HUGE_EPSILON = [
    {"problem": "N3_harmonic", "estimate": "I",
     "quadrature": {"radial_order": 1, "angular_order": 2, "shells": 1}, "trace": {"L": 1},
     "perturbation": {"target": "v", "mode": "boundary_mode", "epsilons": [1e300]},
     "poincare": {"count": 1}},
    {"problem": "N2_log", "estimate": "II",
     "quadrature": {"radial_order": 1, "angular_order": 3, "shells": 2}, "trace": {"L": 2},
     "perturbation": {"target": "y", "mode": "interior_bump", "epsilons": [1e300]},
     "sweep": {"kind": "radius", "values": [1.000000001]}, "poincare": {"count": 1}},
]


class TestDispatchFuzz:
    @pytest.mark.parametrize("command", [
        "majorant", "minorant", "sandwich", "sweep", "constants", "verify-poincare"])
    @settings(max_examples=40, deadline=None)
    @given(raw=accepted_configs())
    @example(raw=HUGE_EPSILON[0])
    @example(raw=HUGE_EPSILON[1])
    def test_exit_code_without_traceback(self, command, raw):
        """Every command on an accepted config ends in 0, 1 or 2 and names
        what went wrong, never with an exception."""
        ScenarioConfig.from_dict(raw)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "config.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", out])
        message = err.getvalue()
        assert "Traceback" not in message
        assert code in (0, 1, 2)
        last = message.splitlines()[-1] if message else ""
        if code == 2:
            assert last.startswith("config error: ")
        elif last:
            assert code == 1 and last.startswith("precondition violated: ")

    def test_mode_must_suit_the_target(self):
        for target, mode in [("v", "interface_jump"), ("y", "boundary_mode"),
                             ("y_broken", "interior_bump")]:
            with pytest.raises(ConfigError, match="perturbation.mode"):
                ScenarioConfig.from_dict({"perturbation": {"target": target, "mode": mode}})


BROKEN = {"target": "y_broken", "mode": "interface_jump"}


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
        ("quadrature", {"quadrature": 5}),
        ("perturbation", {"perturbation": [1]}),
        ("perturbation.seed", {"perturbation": {"seed": -1}}),
        ("--seed", {}),
        ("constants.cutoff", {"constants": {"cutoff": 5.0}}),
        ("constants.cutoff", {"constants": {"cutoff": 1.4},
                              "sweep": {"kind": "radius", "values": [1.3]}}),
        ("estimate", {"estimate": "IV", "sweep": {"kind": "epsilon"}}),
        ("minorant.degree", {"minorant": {"degree": 2}}),
        ("boundary_mode", {"boundary_mode": "extension_based"}),
        ("boundary_mode", {"boundary_mode": None}),
        ("constants.variant", {"constants": {"variant": "eigen"}}),
        ("constants.variant", {"constants": {"variant": None, "modes": 12}}),
        ("quadrature.shell", {"quadrature": {"shell": 3}}),
        ("trace.l", {"trace": {"l": 4}}),
        ("perturbation.epsilon", {"perturbation": {"epsilon": [0.5]}}),
        ("minorant.include_error", {"minorant": {"include_error": True}}),
        ("poincare.counts", {"poincare": {"counts": 5}}),
        ("estimates", {"estimates": "II"}),
        ("sweep.values", {"sweep": {"kind": "epsilon", "values": []}}),
        ("sweep.values", {"sweep": {"kind": "radius", "values": []}}),
        # sandwich, and estimates I and II, need an unbroken flux
        ("perturbation.target", {"perturbation": BROKEN}),
        ("perturbation.target", {"estimate": "II", "perturbation": BROKEN}),
        ("perturbation.target", {"perturbation": BROKEN, "sweep": {"kind": "epsilon"}}),
    ])
    def test_bad_config_exits_2_naming_field(self, tmp_path, capsys, field, payload):
        cfg = write_config(tmp_path, payload)
        command = ("sweep" if "sweep" in payload else "majorant" if "estimate" in payload
                   else "sandwich" if field == "perturbation.target" else "majorant")
        seed = ["--seed", "-1"] if field == "--seed" else []
        code = main([command, "--config", cfg, "--out", str(tmp_path)] + seed)
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "Traceback" not in err
        if field in MISSPELT or field in REMOVED:
            assert f"config error: {field}: unknown configuration field" in err
        elif field == "sweep.values":
            assert "sweep.values: expected a non-empty list of positive numbers" in err
            assert not (tmp_path / "sweep.csv").exists()
        elif field == "perturbation.target":
            who = "sandwich" if command == "sandwich" else f"estimate {payload.get('estimate', 'I')}"
            assert err == (f"config error: perturbation.target: {who} needs an unbroken "
                           "flux (v or y), got 'y_broken'\n")
            assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command,payload", [
        # eps = 1e300 overflows: each exits 1 with no RuntimeWarning on the
        # way (TestDispatchFuzz found the first and the last warning)
        ("majorant", {"perturbation": {"mode": "boundary_mode", "epsilons": [1e300]}}),
        ("majorant", {"estimate": "III", "perturbation": {
            "target": "y_broken", "mode": "interface_jump", "epsilons": [1e300]}}),
        ("sweep", {"perturbation": {"target": "y", "epsilons": [1e300], "seed": 1},
                   "sweep": {"kind": "radius", "values": [1.000000001]}}),
    ])
    def test_overflowing_perturbation_exits_1(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, {"quadrature": {"radial_order": 1, "angular_order": 2,
                                                     "shells": 1},
                                      "trace": {"L": 1}, **payload})
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1].startswith("precondition violated: ")

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
        payload = dict(BASE, sweep={"kind": "epsilon", "values": [0.1, 0.05, 0.025]})
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "epsilon_or_R,residual,flux,interface,boundary,total,"
            "true_error,efficiency_index"
        )
        assert len(lines) == 4
        for line in lines[1:]:
            eff = float(line.split(",")[-1])
            assert eff >= 1 - 1e-8
        totals = [float(line.split(",")[5]) for line in lines[1:]]
        assert totals[0] > totals[1] > totals[2]

    def test_radius_sweep(self, tmp_path):
        """Each row is the library's bound on the problem moved to that R.  A
        boundary mismatch makes the bound read the extension constant, which
        depends on R."""
        radii = [1.5, 3.0]
        pert = {"target": "v", "mode": "boundary_mode", "epsilons": [0.1], "seed": 3}
        payload = dict(BASE, perturbation=pert,
                       sweep={"kind": "radius", "values": radii})
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["epsilon_or_R"]) for r in rows] == radii
        assert all(float(r["efficiency_index"]) >= 1.0 for r in rows)
        base = xb.builtin("N3_harmonic", radial_order=10, angular_order=10, shells=12,
                          trace_degree=6)
        for radius, row in zip(radii, rows):
            mp = xb.with_interface_radius(base, radius)
            assert mp.domain.R == radius
            v = xb.perturb(mp, "v", 0.1, "boundary_mode", 3)
            err = xb.true_error(mp, v)
            report = xb.estimate_I(mp.problem, v, mp.exact_flux)
            assert float(row["total"]) == report.total
            assert float(row["true_error"]) == err

    def test_thin_annulus_radius_sweep(self, tmp_path, capsys):
        # R/a = 1 + 1e-9 on N = 2: a constant, not a traceback
        cfg = write_config(tmp_path, {"problem": "N2_log",
                                      "sweep": {"kind": "radius", "values": [1.000000001]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("radius", [1.0000000000000002, 1e308])
    def test_extreme_radius_is_a_config_error(self, tmp_path, capsys, radius):
        # an ulp above a gives zero weights, 1e308 overflowing ones
        cfg = write_config(tmp_path, {"sweep": {"kind": "radius", "values": [radius]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.values: interface radius {radius}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_error_row_is_bounded(self, tmp_path, capsys):
        # the bump falls between the nodes, so the true error is exactly 0.0,
        # and so is the flux gap of the exact flux, summed from the same
        # terms: a sweep row passes on the check that majorant applies
        cfg = write_config(tmp_path, {
            "problem": "N3_harmonic", "trace": {"L": 1},
            "quadrature": {"shells": 1, "radial_order": 2, "angular_order": 3},
            "sweep": {"kind": "radius", "values": [1.5]},
            "perturbation": {"target": "v", "epsilons": [0.1]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["true_error"]) == float(row["total"]) == 0.0
        assert "0 guarantee violations" in capsys.readouterr().out
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_strict_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        with pytest.raises(SystemExit) as exc:
            main(["majorant", "--config", cfg, "--strict", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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


class TestOutDirectory:
    @pytest.mark.parametrize("command", ["verify-poincare", "constants", "majorant",
                                         "minorant", "sandwich", "sweep"])
    def test_missing_out_exits_2_before_work(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE)
        missing = tmp_path / "no" / "such" / "dir"
        afile = tmp_path / "afile"
        afile.write_text("")
        for out in (missing, afile):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert "config error: --out:" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
        assert not missing.exists()


def cli_process(command, cfg, out):
    """``command`` run by ``python -m extbounds.cli`` in a fresh process,
    with numpy's warnings printed as they are outside pytest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "extbounds.cli", command, "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["majorant", "minorant", "sandwich", "sweep"])
def test_overflow_reported_without_numpy_warning(tmp_path, command):
    # a huge epsilon overflows the integrands: stderr holds the one message
    cfg = write_config(tmp_path, {"perturbation": {"epsilons": [1e300]},
                                  "sweep": {"kind": "epsilon", "values": [1e300]}})
    out = cli_process(command, cfg, tmp_path)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violated: "), out.stderr


def test_huge_radius_n2_log_divergence_prints_nothing(tmp_path):
    # N2_log's div F = 1 / r^3 is 0.0 where r^3 overflows (r > 5.6e102),
    # with no numpy warning on stderr; the row keeps its values.  The
    # residual's weights W_k (r_k ln r_k)^2 pass the float range there, and
    # its term sum takes them scaled by a power of two.  The closures'
    # residual, projected on the rule's nodes, read 8.6039650827925652e+150:
    # their grad(x_i / r) takes x_i x / r^3, which is 0.0 where r^3
    # overflows; with that term summed as (x_i / r)(x / r) / r it agrees
    # with the row to 1e-15 (8.7104492176591055e+150)
    cfg = write_config(tmp_path, {"problem": "N2_log", "perturbation": {"target": "y"},
                                  "sweep": {"kind": "radius", "values": [1e149]}})
    out = cli_process("sweep", cfg, tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    assert (tmp_path / "sweep.csv").read_text().splitlines() == [
        "epsilon_or_R,residual,flux,interface,boundary,total,true_error,efficiency_index",
        "1e+149,8.710449217659104e+150,3.5518839849839709e+147,0,0,8.7140011016440874e+150,"
        "0.22056246542260996,3.9508087130544069e+151"]


def test_radius_where_a_log_weight_node_rounds_to_one(tmp_path):
    # R = 1 + 2^-45: a radial node of omega_i rounds to r = 1.0, where the
    # r ln r weight vanishes; the radius is refused as a radius without
    # rules is, before any sum
    cfg = write_config(tmp_path, {"problem": "N2_log", "perturbation": {"target": "y"},
                                  "sweep": {"kind": "radius", "values": [1.0000000000000284]}})
    out = cli_process("sweep", cfg, tmp_path)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("config error: sweep.values: interface radius 1.0000000000000284: "
                          "the r ln r weight needs every radial node at radius > 1, and one "
                          "is at 1.0\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command,payload", [
    ("majorant", {}), ("majorant", {"estimate": "II"}), ("minorant", {}), ("sandwich", {}),
    ("majorant", {"estimate": "III",
                  "perturbation": {"target": "y_broken", "mode": "interface_jump"}}),
])
def test_huge_epsilon_names_the_true_errors_node(tmp_path, capsys, command, payload):
    # at eps = 1e300 the term sums of u - v overflow, and each command exits
    # 1 with the OverflowError of its first value, the true error, which
    # names its field and weight: the text of the 1e300 runs of
    # tests/cli_outputs.py.  The second run starts where the first left a
    # term table kept on the same rules
    perturbation = {"epsilons": [1e300], **payload.get("perturbation", {})}
    cfg = write_config(tmp_path, {**payload, "perturbation": perturbation})
    mp = xb.builtin("N3_harmonic", shells=8)
    v = perturb(mp, "v", 1e300, "interior_bump", 0 if "target" not in perturbation else 1)
    with pytest.raises(OverflowError) as exc:
        xb.true_error(mp, v)
    assert str(exc.value) == ("non-finite term sum for field "
                              f"'grad(({mp.exact_u.label}-{v.label}))' (weight energy:A)")
    for _ in range(2):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"precondition violated: {exc.value}\n"


def test_cli_import_loads_no_scipy_linalg(tmp_path):
    # no command loads any scipy module: scipy is a test dependency only
    code = ("import sys, numpy, extbounds.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
    run = ("import contextlib, io, sys\n"
           "from extbounds.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = main(sys.argv[1:])\n"
           "print(code, ' '.join(m for m in sys.modules if m.startswith('scipy')))\n")
    for problem in ("N3_harmonic", "N2_log"):
        cfg = write_config(tmp_path, {
            "problem": problem, "trace": {"L": 6}, "poincare": {"count": 2},
            "quadrature": {"radial_order": 6, "angular_order": 8, "shells": 2},
            "sweep": {"kind": "epsilon", "values": [0.1]}})
        for command in ("majorant", "sweep", "constants", "verify-poincare",
                        "minorant", "sandwich"):
            out = subprocess.run([sys.executable, "-c", run, command, "--config", cfg,
                                  "--out", str(tmp_path)],
                                 capture_output=True, text=True, env=env, check=True)
            code, *modules = out.stdout.split()
            assert code in ("0", "1") and "Traceback" not in out.stderr, out.stderr
            assert modules == [], (problem, command, modules)


@pytest.mark.parametrize("problem", xb.CATALOG)
def test_error_in_basis_keeps_the_guarantee(tmp_path, capsys, problem):
    # at the defaults with u - v in the basis, the load form of the
    # minorant put the lower bound above the true error on every problem
    cfg = write_config(tmp_path, {"problem": problem,
                                  "minorant": {"include_error_in_basis": True}})
    for command in ("minorant", "sandwich"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0, command
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["guarantee_ok"] is True, command
        assert report["lower"] <= report["true_error"] * (1 + 1e-12), command
    assert "VIOLATED" not in capsys.readouterr().out


@pytest.mark.parametrize("problem", xb.CATALOG)
def test_zero_epsilon_keeps_the_guarantee(tmp_path, capsys, problem):
    # at eps = 0 the true error is 0.0; sandwich's slack, 1e-8 times the
    # larger of the error and the upper bound, was then 3.9e-24 on
    # N3_harmonic, below its lower bound of 5.8e-17
    payload = {"problem": problem, "perturbation": {"epsilons": [0.0]}}
    cfg = write_config(tmp_path, payload)
    # u - v is then the zero field: appended, it failed the Gram's
    # zero-energy check and the command exited 1; it adds nothing to the
    # span, so the basis leaves it out and the report is the plain basis's
    with_error = write_config(tmp_path, dict(payload, minorant={"include_error_in_basis": True}),
                              "with_error.json")
    for command in ("majorant", "minorant", "sandwich"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0, command
        want = (tmp_path / "report.json").read_bytes()
        report = json.loads(want)
        assert report["true_error"] == 0.0 and report["guarantee_ok"] is True, command
        if command != "majorant":
            assert main([command, "--config", with_error, "--out", str(tmp_path)]) == 0, command
            assert (tmp_path / "report.json").read_bytes() == want, command
    captured = capsys.readouterr()
    assert "VIOLATED" not in captured.out and captured.err == ""


def test_sandwich_computes_the_scale_once(tmp_path, monkeypatch):
    # the guarantee check takes ||A^{1/2} grad v|| from estimate I's report
    calls = []
    scale_of = xb.majorant.scale_of
    monkeypatch.setattr(xb.majorant, "scale_of",
                        lambda p, v: calls.append(v) or scale_of(p, v))
    cfg = write_config(tmp_path, BASE)
    assert main(["sandwich", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_sandwich_expands_the_trace_once(tmp_path, monkeypatch):
    # the minorant's boundary caveat and estimate I's boundary term share
    # the mismatch of v that majorant.dirichlet_mismatch keeps
    labels = []
    analyze = xb.traces.analyze
    monkeypatch.setattr(xb.traces, "analyze",
                        lambda f, *args: labels.append(f.label) or analyze(f, *args))
    cfg = write_config(tmp_path, BASE)
    assert main(["sandwich", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sum("interior-bump" in label for label in labels) == 1


class TestColdCommands:
    """A cold command derives only the constants and rules its bound reads:
    the Friedrichs root for c_o (estimates II and III, ``constants``), and
    the tail rule at doubled radial order for a residual with bumps."""

    Y = {"perturbation": {"target": "y"}}
    Y_BROKEN = {"estimate": "III",
                "perturbation": {"target": "y_broken", "mode": "interface_jump"}}
    RADII = {"sweep": {"kind": "radius", "values": [1.5, 3.0]}}

    @pytest.mark.parametrize("command,payload,roots,refined", [
        ("majorant", {}, 0, 0),
        ("majorant", {"problem": "N2_log",
                      "perturbation": {"target": "v", "mode": "boundary_mode"}}, 0, 0),
        ("majorant", {"estimate": "II"}, 1, 0),
        ("majorant", Y_BROKEN, 1, 0),
        ("majorant", Y, 0, 1),
        ("minorant", {}, 0, 0),
        ("sandwich", {}, 0, 0),
        ("sandwich", Y, 0, 1),
        ("sweep", {}, 0, 0),
        ("sweep", Y, 0, 1),  # one rule for every epsilon
        ("sweep", RADII, 0, 0),
        ("sweep", {**Y, **RADII}, 0, 2),  # one rule per radius
        ("constants", {}, 1, 0),
    ])
    def test_derives_what_its_bound_reads(self, tmp_path, monkeypatch, command, payload,
                                          roots, refined):
        from extbounds import constants, problems

        found, built = [], []
        solve, build = constants.interior_friedrichs_constant, problems.build_quadrature
        monkeypatch.setattr(problems, "_BUNDLE_CACHE", {})  # rules of its own
        monkeypatch.setattr(constants, "interior_friedrichs_constant",
                            lambda domain: found.append(domain) or solve(domain))
        monkeypatch.setattr(problems, "build_quadrature", lambda domain, ro, *args: (
            built.append(ro) or build(domain, ro, *args)))
        cfg = write_config(tmp_path, payload)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(found) == roots
        assert built.count(24) == refined  # the default radial order 12, doubled

    @pytest.mark.parametrize("target,code", [("y", 2), ("v", 0)])
    def test_radius_where_only_the_tail_check_rule_overflows(self, tmp_path, capsys,
                                                             target, code):
        # at R = 1e98 (N = 3, 8 shells) the rules at radial order 12 are
        # finite and the one at 24 is not: a flux with bumps reads it and is
        # refused as a radius without rules is; v's exact flux never does
        domain = xb.ExteriorDomain(3, 1.0, 1e98)
        xb.build_quadrature(domain, 12, 12, 8, "omega_e")
        with pytest.raises(QuadratureError, match="must be finite"):
            xb.build_quadrature(domain, 24, 12, 8, "omega_e")
        cfg = write_config(tmp_path, {"perturbation": {"target": target},
                                      "sweep": {"kind": "radius", "values": [1e98]}})
        for _ in range(2):  # the refusal does not leave a rule behind
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == code
            err = capsys.readouterr().err
            if code:
                assert err == ("config error: sweep.values: interface radius 1e+98: "
                               "quadrature nodes and weights must be finite\n")
                assert not (tmp_path / "sweep.csv").exists()
            else:
                assert err == ""
                rows = (tmp_path / "sweep.csv").read_text().splitlines()
                assert len(rows) == 2 and rows[1].startswith("1e+98,0,")


@pytest.mark.parametrize("problem", xb.CATALOG)
@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_small_error_in_basis_is_not_singular(tmp_path, capsys, problem, eps):
    # u - v of size eps beside the unit bumps put the raw Gram's eigenvalue
    # ratio below GRAM_EIG_RTOL (6.6e-11 against 941 on N3_harmonic at 1e-6).
    # The lower bound is compared with eps ||A^{1/2} grad s|| on the same
    # rule, for v = u + eps s: the rule's true error of v carries the
    # cancellation of grad u - grad v, 1.3e-13 relative at eps = 1e-6
    cfg = write_config(tmp_path, {"problem": problem, "perturbation": {"epsilons": [eps]},
                                  "minorant": {"include_error_in_basis": True}})
    mp = xb.builtin(problem, shells=8)
    whole = mp.problem.quads.whole
    s = _random_interior_bump(mp, np.random.default_rng(0))
    error = eps * energy_norm(mp.problem.A, s.gradient(whole.nodes), "A", whole)
    for command in ("minorant", "sandwich"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0, command
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["guarantee_ok"] is True, command
        assert report["lower"] <= error, command
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_guarantee_ok_slack_on_each_side(side):
    # the slack is GUARANTEE_SLACK times the larger of the scale and the error
    for err, scale in [(1e-4, 2.0), (3.0, 0.5), (0.0, 1.0)]:
        slack = GUARANTEE_SLACK * max(scale, err)
        for offset, ok in [(0.5 * slack, True), (2.0 * slack, False)]:
            bound = {"lower": err + offset, "upper": err - offset}[side]
            assert guarantee_ok(err, scale, **{side: bound}) is ok, (err, scale, offset)
    assert guarantee_ok(1.0, 1.0) and guarantee_ok(0.0, 0.0, lower=0.0, upper=0.0)


@pytest.mark.parametrize("command", ["minorant", "sandwich"])
def test_basis_with_nonzero_trace_exits_1(tmp_path, capsys, command):
    # with a boundary-mode v, u - v does not vanish on the inner sphere
    cfg = write_config(tmp_path, {
        "problem": "N2_log", "minorant": {"include_error_in_basis": True},
        "perturbation": {"mode": "boundary_mode", "epsilons": [0.1], "seed": 0}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: basis function 12 "), err
    assert "on the inner boundary" in err and not (tmp_path / "report.json").exists()


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


def test_cli_outputs_cover_every_choice():
    """The byte check's run list names every command on every catalog
    problem, every estimate with every unbroken target and mode, the broken
    flux, the minorant with u - v at eps > 0 and 0, both sweep kinds, every
    study, every config field at a value other than its default, a majorant
    and a sandwich at angular_order 2 (whose rule integrates the sphere
    moments inexactly, so that they pin the norms and the minorant summed
    from the terms there), the flux bump and the harmonic gradients on
    N3_anisotropic, whose A^{-1} weights them, the bump also at
    angular_order 2 in 3D and 2D, and five bad configs; it runs nothing."""
    runs, bad = [], 0
    for command, config, _ in OUTPUT_RUNS:
        if isinstance(config, Path):
            config = json.loads(config.read_text())
        try:
            runs.append((command, ScenarioConfig.from_dict(config)))
        except ConfigError:
            bad += 1
    commands = {"majorant", "minorant", "sandwich", "sweep", "constants", "verify-poincare"}
    for command in commands:
        assert {cfg.problem for c, cfg in runs if c == command} == set(xb.CATALOG), command
    majorants = {(cfg.estimate, cfg.target, cfg.pert_mode) for c, cfg in runs if c == "majorant"}
    unbroken = {(t, m) for t, modes in TARGET_MODES.items() if t != "y_broken" for m in modes}
    assert {(e, t, m) for e in ("I", "II", "III") for t, m in unbroken} <= majorants
    assert ("III", "y_broken", "interface_jump") in majorants
    for command in ("minorant", "sandwich"):
        assert {cfg.epsilons[0] for c, cfg in runs
                if c == command and cfg.minorant_include_error} == {0.1, 0.0}
    assert {cfg.sweep_kind for c, cfg in runs if c == "sweep"} == {"epsilon", "radius"}
    assert {c for c, cfg in runs if cfg.angular_order == 2} == {"majorant", "sandwich"}
    anisotropic = {(cfg.estimate, cfg.target, cfg.angular_order) for c, cfg in runs
                   if c == "majorant" and cfg.problem == "N3_anisotropic"}
    assert {("I", "y", 12), ("III", "y_broken", 12), ("I", "y", 2)} <= anisotropic
    assert any(c == "majorant" and cfg.problem == "N2_log" and cfg.target == "y"
               and cfg.angular_order == 2 for c, cfg in runs)
    studies = {config.name for _, config, _ in OUTPUT_RUNS if isinstance(config, Path)}
    assert studies == {p.name for p in (REPO / "studies").glob("*.json")} and len(studies) == 4
    defaults = ScenarioConfig()
    for name, f in FIELDS.items():
        assert any(getattr(cfg, f.name) != getattr(defaults, f.name) for _, cfg in runs), name
    assert bad >= 5
