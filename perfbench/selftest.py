"""Self-test of the benchmark: run each workload at a tiny size and check
the benchmark's own references against stored known values.

    python3 perfbench/selftest.py               # run the self-test
    python3 perfbench/selftest.py --regenerate  # recompute known_values.json

The known values are produced by methods that share no code with the
benchmark's references: the Friedrichs constants by Richardson
extrapolation of the program's finite-element eigenvalues on two fine
meshes, the reference error by the program's own quadrature at
shells=32, radial_order=24, and the Gram pair counts from the disjoint
sub-annuli of the default basis.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads as wl
from tracer import Tracer, layer_metrics

KNOWN = Path(__file__).resolve().parent / "known_values.json"
DEFAULT_SCENARIO = dict(name="N3_harmonic", eps=0.1, seed=0)  # the CLI's default config


def regenerate():
    import extbounds as xb
    from extbounds.constants import interior_friedrichs_constant

    values = {}
    for dim in (2, 3):
        dom = xb.ExteriorDomain(dim, 1.0, 2.0)
        # mode_values[0] is the unextrapolated degree-0 constant on 2*mesh elements
        coarse, fine = (interior_friedrichs_constant(dom, modes=8, mesh=m).mode_values[0]
                        for m in (1024, 2048))
        values[f"friedrichs_N{dim}_a1_R2"] = (4.0 * fine - coarse) / 3.0
    mp = xb.builtin(DEFAULT_SCENARIO["name"], radial_order=24, shells=32)
    v = xb.perturb(mp, "v", DEFAULT_SCENARIO["eps"], "interior_bump", DEFAULT_SCENARIO["seed"])
    values["reference_error_default"] = xb.true_error(mp, v)
    n_radial, n_ang = 4, 4  # default basis in N = 3: 4 sub-annuli x {1, x/r, y/r, z/r}
    n = n_radial * n_ang
    values["gram_pairs_default_N3"] = [n_radial * n_ang * (n_ang + 1) // 2, n * (n + 1) // 2]
    KNOWN.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    print(json.dumps(values, indent=2, sort_keys=True))


def check_references(known):
    import extbounds as xb
    import reference as ref

    found = []
    for dim in (2, 3):
        got = ref.friedrichs_constant(dim, 1.0, 2.0)
        want = known[f"friedrichs_N{dim}_a1_R2"]
        if abs(got - want) > 1e-9 * want:
            found.append(f"Friedrichs N={dim}: closed form {got!r}, known {want!r}")
    mp = xb.builtin(DEFAULT_SCENARIO["name"], **wl.RESOLUTION)
    v = xb.perturb(mp, "v", DEFAULT_SCENARIO["eps"], "interior_bump", DEFAULT_SCENARIO["seed"])
    got, acc = ref.reference_error(mp, v)
    want = known["reference_error_default"]
    if not acc < 1e-7 * got or abs(got - want) > 1e-7 * want:
        found.append(f"reference error {got!r} (accuracy {acc:.1e}), known {want!r}")

    tracer = Tracer()
    tracer.install()
    try:
        xb.minorant_report(mp.problem, v, xb.default_basis(mp.domain))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.take())
    pairs = [m["minorant.gram_pairs_overlapping"], m["minorant.gram_pairs"]]
    if pairs != known["gram_pairs_default_N3"]:
        found.append(f"Gram pairs {pairs}, known {known['gram_pairs_default_N3']}")
    if m["minorant.basis_nodes"] != 16 * len(mp.problem.quads.whole):
        found.append(f"basis nodes {m['minorant.basis_nodes']}")
    return found


def check_workloads():
    found = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, lines = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            faults = sum(1 for line in lines if "(known fault:" in line)
            rounds = 2 if trace else 1
            want = {"correct": True, "failed": faults * rounds}
            got = {k: result[k] for k in want}
            print(f"{workload} trace={int(trace)}: {got}, attempted {result['attempted']}")
            values = [v["value"] for k, v in result["metrics"].items()
                      if k != "trace.overhead_s"]
            if got != want or faults == 0 or not all(x >= 0.0 for x in values):
                found.append(f"{workload} trace={int(trace)}: {got}, expected {want}\n"
                             + "\n".join(lines))
    return found


def main(argv) -> int:
    sys.path.insert(0, str(wl.SRC))
    if "--regenerate" in argv:
        regenerate()
        return 0
    found = check_references(json.loads(KNOWN.read_text()))
    found += check_workloads()
    for line in found:
        print(f"FAIL {line}")
    print("self-test:", "FAILED" if found else "passed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
