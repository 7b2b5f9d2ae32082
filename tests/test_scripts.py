import csv
import os
import subprocess
import sys
from pathlib import Path

import extbounds as xb

REPO = Path(__file__).resolve().parent.parent


def test_interface_radius_study(tmp_path):
    paths = (str(REPO / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "interface_radius_study.py"),
         "--radii", "1.5", "--out", str(tmp_path)],
        check=True, capture_output=True, timeout=600, env=env,
    )
    with open(tmp_path / "interface_radius_N3_harmonic.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["R"]) for r in rows] == [1.5]
    row = rows[0]
    friedrichs = xb.interior_friedrichs_constant(xb.ExteriorDomain(3, 1.0, 1.5))
    assert float(row["interior_friedrichs"]) == friedrichs.value
    assert float(row["interface_term"]) > 0.0
    assert float(row["efficiency"]) >= 1.0
