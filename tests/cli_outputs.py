"""Run the extbounds CLI on a fixed list of configs and keep every byte
each run leaves behind, so that two checkouts can be compared.

    python tests/cli_outputs.py --src SRC --out DIR

runs ``python -m extbounds.cli`` once per entry of ``RUNS``, each in a
fresh process with ``SRC`` (a checkout's ``src`` directory) as its only
``PYTHONPATH`` entry.  Run n works in ``DIR/<n>/``: it reads its config
from ``config.json`` there and writes its output files there, next to
``stdout``, ``stderr`` and ``exit_code``.  Two checkouts produce the same
bytes when ``diff -r`` of their two ``DIR``s is empty.

The file name has no ``test_`` prefix, so pytest does not collect it;
``tests/test_cli.py`` checks that ``RUNS`` covers every command,
estimate, perturbation target and mode, catalog problem and study, and
sets every config field to a value other than its default in some run.
``tests/line_trace.py`` runs the same list in one traced process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

STUDIES = Path(__file__).resolve().parent.parent / "studies"
COMMANDS = ("verify-poincare", "constants", "majorant", "minorant", "sandwich", "sweep")
PROBLEMS = ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log")
# (target, mode) pairs for an unbroken flux
UNBROKEN = (("v", "interior_bump"), ("v", "boundary_mode"), ("y", "interior_bump"))


def _runs() -> list:
    """(command, config, extra arguments) per run; a config is a dict, the
    raw text of a config file, or the path of a study config."""
    runs = [(c, {}, ()) for c in COMMANDS]
    runs += [(c, {"problem": p}, ()) for p in PROBLEMS for c in COMMANDS]
    runs += [("majorant", {"problem": p, "estimate": e,
                           "perturbation": {"target": t, "mode": m}}, ())
             for p in ("N3_decay", "N2_log") for e in ("I", "II", "III") for t, m in UNBROKEN]
    runs.append(("majorant", {"estimate": "III", "perturbation": {
        "target": "y_broken", "mode": "interface_jump", "epsilons": [0.05]}}, ()))
    # the flux targets at eps = 0, where the perturbed flux is the exact one
    runs += [("majorant", {"estimate": "II",
                           "perturbation": {"target": "y", "epsilons": [0.0]}}, ()),
             ("majorant", {"problem": "N2_log", "estimate": "III", "perturbation": {
                 "target": "y_broken", "mode": "interface_jump", "epsilons": [0.0]}}, ())]
    runs += [(c, {"problem": "N3_decay", "minorant": {"include_error_in_basis": True},
                  "perturbation": {"epsilons": [eps]}}, ())
             for c in ("minorant", "sandwich") for eps in (0.1, 0.0)]
    runs.append(("sweep", {"problem": "N2_log", "sweep": {"kind": "radius",
                                                          "values": [1.5, 2.5]}}, ()))
    runs += [("sweep", path, ()) for path in sorted(STUDIES.glob("*.json"))]
    runs.append(("verify-poincare", {"poincare": {"count": 30}}, ("--seed", "7")))
    runs.append(("majorant", {"estimate": "II"}, ("--seed", "11")))
    # the minorant basis and the rules away from their defaults
    runs += [("sandwich", {"problem": p, "minorant": {"degree": 0}}, ())
             for p in ("N2_log", "N3_anisotropic")]
    runs.append(("minorant", {"problem": "N3_decay", "minorant": {"n_radial": 2}}, ()))
    runs.append(("majorant", {"problem": "N3_anisotropic", "estimate": "III", "quadrature": {
        "radial_order": 10, "angular_order": 9, "shells": 6}, "trace": {"L": 6}}, ()))
    runs.append(("sandwich", {"problem": "N2_log", "quadrature": {
        "radial_order": 8, "angular_order": 11, "shells": 4}, "trace": {"L": 5},
        "minorant": {"n_radial": 3, "degree": 0}}, ()))
    # angular_order 2, whose directions integrate the sphere moments of the
    # terms inexactly: the norms and the minorant are still summed from the
    # terms, exact in the angle, and match angular_order 12 bit for bit
    runs += [(c, {"problem": "N3_anisotropic", "quadrature": {"angular_order": 2},
                  "trace": {"L": 1}, "minorant": {"include_error_in_basis": True}}, ())
             for c in ("majorant", "sandwich")]
    # the perturbed fluxes where A^{-1} weights them (N3_anisotropic): the
    # flux bump and the harmonic gradients; and the bump at angular_order 2,
    # whose residual norms are rho-weighted in 3D and r ln r-weighted in 2D
    runs += [("majorant", {"problem": "N3_anisotropic", "estimate": e,
                           "perturbation": {"target": t, "mode": m}}, ())
             for e, t, m in (("I", "y", "interior_bump"), ("III", "y_broken", "interface_jump"))]
    runs += [("majorant", {"problem": p, "estimate": "I",
                           "perturbation": {"target": "y", "mode": "interior_bump"},
                           "quadrature": {"angular_order": 2}, "trace": {"L": 1}}, ())
             for p in ("N3_anisotropic", "N2_log")]
    # valid configs whose bounds cannot be established, each exit 1: u - v
    # with a nonzero trace in the basis, and an integrand past the float range
    runs += [
        ("minorant", {"perturbation": {"mode": "boundary_mode"},
                      "minorant": {"include_error_in_basis": True}}, ()),
        ("majorant", {"perturbation": {"epsilons": [1e300]}}, ()),
        ("sandwich", {"perturbation": {"epsilons": [1e300]}}, ()),
    ]
    # bad configs and arguments, each named on stderr with exit 2: the
    # broken flux parses and only estimate I rejects it, and the last two
    # runs pass a bad --out and a bad --seed
    runs += [
        ("majorant", '{"problem": "N3_harmonic",\n  "estimate": }', ()),
        ("constants", {"frobnicate": {"a": 1}}, ()),
        ("majorant", {"quadrature": {"shells": 0}}, ()),
        ("sandwich", {"perturbation": {"epsilons": [0.1, -0.2]}}, ()),
        ("sweep", {"quadrature": {"angular_order": 4}, "trace": {"L": 8}}, ()),
        ("majorant", {"perturbation": {"target": "y_broken", "mode": "interface_jump"}}, ()),
        ("minorant", {}, ("--out", "missing")),
        ("sandwich", {}, ("--seed", "-1")),
    ]
    return runs


RUNS = _runs()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    parser.add_argument("--out", required=True, help="directory for the runs' outputs")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    for n, (command, config, extra) in enumerate(RUNS):
        run = Path(args.out) / str(n)
        run.mkdir(parents=True)
        if isinstance(config, Path):
            config = config.read_text()
        elif isinstance(config, dict):
            config = json.dumps(config)
        (run / "config.json").write_text(config)
        done = subprocess.run(
            [sys.executable, "-m", "extbounds.cli", command, "--config", "config.json",
             "--out", ".", *extra], cwd=run, env=env, capture_output=True)
        (run / "stdout").write_bytes(done.stdout)
        (run / "stderr").write_bytes(done.stderr)
        (run / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{n:3d} {command:15s} exit {done.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
