import csv
import os
import subprocess
import sys
from pathlib import Path

import extbounds as xb

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = (str(REPO / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        check=True, capture_output=True, timeout=600, env=env,
    )


def test_interface_radius_study(tmp_path):
    run_script("interface_radius_study.py", "--radii", "1.5", "--out", str(tmp_path))
    with open(tmp_path / "interface_radius_N3_harmonic.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["R"]) for r in rows] == [1.5]
    row = rows[0]
    friedrichs = xb.interior_friedrichs_constant(xb.ExteriorDomain(3, 1.0, 1.5))
    assert float(row["interior_friedrichs"]) == friedrichs.value
    assert float(row["interface_term"]) > 0.0
    assert float(row["efficiency"]) >= 1.0


def test_efficiency_study(tmp_path):
    run_script("efficiency_study.py", "--epsilons", "0.1", "--out", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"efficiency_{name}.csv" for name in xb.CATALOG
    )
    for name in xb.CATALOG:
        with open(tmp_path / f"efficiency_{name}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and float(rows[0]["epsilon"]) == 0.1
        for key in ("eff_I", "eff_II", "eff_III"):
            assert float(rows[0][key]) >= 1.0 - 1e-8, (name, key)
