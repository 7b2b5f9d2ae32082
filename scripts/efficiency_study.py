#!/usr/bin/env python3
"""Efficiency-index study: sweep the perturbation size over every catalog
problem and estimate, and tabulate the ratio of the guaranteed bound to the
true error.  Writes one CSV per problem next to the chosen output dir.

Usage: python scripts/efficiency_study.py [--out results] [--seed 1]
"""

import argparse
import pathlib

import extbounds as xb
from extbounds.majorant import estimate_I, estimate_II, estimate_III
from extbounds.problems import perturb


def run_problem(name, epsilons, seed, out_dir):
    mp = xb.builtin(name)
    p = mp.problem
    rows = []
    for eps in epsilons:
        v = perturb(mp, "v", eps, "interior_bump", seed)
        y = perturb(mp, "y", eps, "interior_bump", seed + 1)
        y_i, y_e = perturb(mp, "y_broken", eps, "interface_jump", seed + 2)
        err = xb.true_error(mp, v)
        reports = {
            "I": estimate_I(p, v, mp.exact_flux, scale_hint=err),
            "II": estimate_II(p, v, y, scale_hint=err),
            "III": estimate_III(p, v, y_i, y_e, scale_hint=err),
        }
        rows.append((eps, err, {k: r.total for k, r in reports.items()}))

    path = out_dir / f"efficiency_{name}.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("epsilon,true_error,total_I,total_II,total_III,"
                 "eff_I,eff_II,eff_III\n")
        for eps, err, totals in rows:
            effs = [totals[k] / err for k in ("I", "II", "III")]
            fh.write(
                f"{eps:.17g},{err:.17g},"
                + ",".join(f"{totals[k]:.17g}" for k in ("I", "II", "III"))
                + ","
                + ",".join(f"{e:.17g}" for e in effs)
                + "\n"
            )
    print(f"\n{name}  (true error and efficiency per estimate)")
    print(f"{'eps':>8} {'error':>12} {'eff I':>8} {'eff II':>8} {'eff III':>8}")
    for eps, err, totals in rows:
        print(
            f"{eps:8.3g} {err:12.5e} "
            f"{totals['I'] / err:8.4f} {totals['II'] / err:8.4f} "
            f"{totals['III'] / err:8.4f}"
        )
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.2, 0.1, 0.05, 0.025, 0.0125])
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in xb.CATALOG:
        run_problem(name, args.epsilons, args.seed, out_dir)


if __name__ == "__main__":
    main()
