#!/usr/bin/env python3
"""Interface-radius study: the spherical interface is artificial, so its
radius is a free parameter.  This script moves it across a range, re-derives
the radius-dependent constants each time, and reports how the broken-flux
bound and its interface penalty respond.

Usage: python scripts/interface_radius_study.py [--radii 1.25 1.5 2 3 4]
"""

import argparse
import pathlib

import extbounds as xb
from extbounds.majorant import estimate_III
from extbounds.problems import perturb


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default="N3_harmonic", choices=xb.CATALOG)
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[1.25, 1.5, 2.0, 3.0, 4.0])
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    base = xb.builtin(args.problem)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"interface_radius_{args.problem}.csv"

    print(f"{args.problem}: broken-flux bound vs interface radius")
    print(f"{'R':>6} {'friedrichs':>11} {'trace_c':>9} {'interface':>11} "
          f"{'total':>11} {'error':>11} {'eff':>7}")
    with open(path, "w", newline="\n") as fh:
        fh.write("R,interior_friedrichs,interface_trace,interface_term,"
                 "total,true_error,efficiency\n")
        for radius in args.radii:
            mp = xb.with_interface_radius(base, radius)
            bundle = mp.problem.constants
            v = perturb(mp, "v", args.epsilon, "interior_bump", args.seed)
            y_i, y_e = perturb(mp, "y_broken", args.epsilon, "interface_jump",
                               args.seed + 1)
            err = xb.true_error(mp, v)
            rep = estimate_III(mp.problem, v, y_i, y_e)
            eff = rep.total / err
            print(f"{radius:6.2f} {bundle.friedrichs.value:11.6f} "
                  f"{bundle.trace.value:9.5f} {rep.interface:11.5e} "
                  f"{rep.total:11.5e} {err:11.5e} {eff:7.3f}")
            fh.write(
                f"{radius:.17g},{bundle.friedrichs.value:.17g},"
                f"{bundle.trace.value:.17g},{rep.interface:.17g},"
                f"{rep.total:.17g},{err:.17g},{eff:.17g}\n"
            )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
