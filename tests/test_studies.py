"""The studies under ``studies/`` are ``sweep`` configs: the efficiency
study (estimates I, II and III over epsilon) and the interface-radius study
(III as R moves).  Each runs through ``cli.main`` as any config does, and
another problem is the same config with ``problem`` swapped."""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

import extbounds as xb
from extbounds.cli import load_config, main

STUDIES = Path(__file__).resolve().parent.parent / "studies"
EFFICIENCY = ("efficiency_I.json", "efficiency_II.json", "efficiency_III.json")


def run_sweep(tmp_path, name, **changes):
    """``sweep`` on the study ``name`` with top-level sections or fields
    replaced by ``changes``; the exit code and the rows of sweep.csv."""
    raw = json.loads((STUDIES / name).read_text())
    for key, val in changes.items():
        raw[key] = {**raw[key], **val} if isinstance(val, dict) else val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    with open(tmp_path / "sweep.csv") as fh:
        return code, list(csv.DictReader(fh))


def test_every_study_loads_unchanged():
    # a renamed or removed config field breaks a study here
    studies = {  # name -> (estimate, target, mode, sweep kind)
        "efficiency_I.json": ("I", "v", "interior_bump", "epsilon"),
        "efficiency_II.json": ("II", "y", "interior_bump", "epsilon"),
        "efficiency_III.json": ("III", "y_broken", "interface_jump", "epsilon"),
        "interface_radius.json": ("III", "y_broken", "interface_jump", "radius"),
    }
    assert sorted(path.name for path in STUDIES.glob("*.json")) == sorted(studies)
    for name, expected in studies.items():
        cfg = load_config(str(STUDIES / name))
        assert (cfg.estimate, cfg.target, cfg.pert_mode, cfg.sweep_kind) == expected, name


@pytest.mark.parametrize("problem", xb.CATALOG)
@pytest.mark.parametrize("name", EFFICIENCY)
def test_efficiency_study(tmp_path, name, problem):
    code, rows = run_sweep(tmp_path, name, problem=problem, sweep={"values": [0.1]})
    assert code == 0
    assert [float(row["epsilon_or_R"]) for row in rows] == [0.1]
    for row in rows:
        assert float(row["efficiency_index"]) >= 1.0 - 1e-8, (name, problem)


def test_interface_radius_study(tmp_path):
    code, rows = run_sweep(tmp_path, "interface_radius.json", sweep={"values": [1.5]})
    assert code == 0
    assert [float(row["epsilon_or_R"]) for row in rows] == [1.5]
    assert float(rows[0]["interface"]) > 0.0
    assert float(rows[0]["efficiency_index"]) >= 1.0
