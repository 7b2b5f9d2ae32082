"""Measure how far the records of ``verify-poincare`` lie from a reference
quadrature, per check kind.

    python tests/poincare_convergence.py --src SRC [--count N] [--seed S]

imports ``extbounds`` from ``SRC`` (a checkout's ``src`` directory) and
runs ``verify-poincare`` in this process at ``poincare.count`` N (default
100) and seed S (default 0), with every check call kept.  It then makes
each call again on the reference rule: REF_PANELS Gauss-Legendre panels on
every distance interval (4 times the half line's 48) and REF_ANGULAR
angular nodes, every Gauss node and weight and the N = 2 ring's directions
correctly rounded (Newton in mpmath at 40 digits).  The N = 1 and N = 2
calls run the checkout's own checks on that rule.  The N = 3 calls (power
weight, chain i and the power identity) are summed by
``oracles.polar_grid_records`` from their densities on the (distance,
polar cosine) grid of REF_PANELS panels by REF_ANGULAR polar cosines, which
shares no closed form with the checkout's shell integrals.  The reference
does not depend on the checkout's own sizes or code, so two checkouts are
measured against the same values.  It prints, per check kind (record id
and N, or identity variant and N), the number of records and the worst
relative deviation of any lhs or rhs from the reference, then the
smallest relative margin, margin / rhs, of the inequality records.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import mpmath
import numpy as np

REF_PANELS = 192
REF_ANGULAR = 64
CHECKS = ("verify_power_weight", "verify_log_weight", "verify_halfline",
          "verify_corollary_chain", "partial_integration_identity")


def legendre_rule(order: int):
    """Gauss-Legendre nodes (ascending) and weights of ``order`` points,
    each the float nearest its value: Newton on P_order at 40 digits from
    the guesses cos(pi (k + 3/4) / (order + 1/2))."""

    def legendre(x):
        """P_order(x) and its derivative."""
        p0, p1 = mpmath.mpf(1), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, order * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    with mpmath.workdps(40):
        for k in range(order):
            x, step = mpmath.cos(mpmath.pi * (k + 0.75) / (order + 0.5)), 1
            while abs(step) > mpmath.mpf(10) ** -38:
                p, dp = legendre(x)
                step = p / dp
                x -= step
            dp = legendre(x)[1]
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    x, w = np.array(nodes[::-1]), np.array(weights[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def ring_rule(dimension: int, angular: int):
    """The N = 2 ring of ``geometry._unit_sphere_rule``, 2 ``angular``
    offset uniform directions, with every value correctly rounded."""
    if dimension != 2:
        raise ValueError("only the ring is replaced")
    n = 2 * angular
    with mpmath.workdps(40):
        theta = [2 * mpmath.pi * (k + mpmath.mpf(1) / 2) / n for k in range(n)]
        dirs = np.array([[float(mpmath.cos(t)), float(mpmath.sin(t))] for t in theta])
        wts = np.full(n, float(2 * mpmath.pi / n))
    dirs.flags.writeable = wts.flags.writeable = False
    return dirs, wts


def use_reference_rule(geometry, poincare) -> None:
    """Point the Poincare sampling of this process at the reference rule."""
    legendre = {}

    def gauss_legendre(order):
        if order not in legendre:
            legendre[order] = legendre_rule(order)
        return legendre[order]

    composite = geometry._composite_interval
    geometry._gauss_legendre = poincare._gauss_legendre = gauss_legendre
    poincare._composite_interval = (
        lambda lo, hi, order, panels: composite(lo, hi, order, REF_PANELS))
    poincare._unit_sphere_rule = ring_rule
    poincare.ANGULAR = REF_ANGULAR


def shell_reference(check, args, kwargs):
    """The reference (lhs, rhs) pairs of an N = 3 call, from its densities
    on the (distance, polar cosine) grid at the reference sizes; None for
    the other calls.  An identity takes a bump or, since the identity took
    a batch, a list of them."""
    from oracles import polar_grid_records

    grid = {"panels": REF_PANELS, "angular": REF_ANGULAR, "rule": legendre_rule}
    name = check.__name__
    if name == "partial_integration_identity":
        bumps = args[0] if isinstance(args[0], list) else [args[0]]
        gamma_hat = kwargs.get("gamma_hat", args[2] if len(args) > 2 else None)
        if bumps[0].dimension == 3:
            return polar_grid_records("identity", bumps, args[1], gamma_hat, **grid)
    elif name == "verify_power_weight" and args[0].dimension == 3:
        return polar_grid_records("power_weight", args[1], args[2], **grid)
    elif name == "verify_corollary_chain" and args[0].dimension == 3:
        return polar_grid_records("chain", args[1], **grid)
    return None


def kind(rec) -> str:
    if hasattr(rec, "variant"):
        return f"identity_{rec.variant} N={rec.dimension}"
    return f"{rec.inequality_id} N={rec.dimension}"


def deviation(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    parser.add_argument("--count", type=int, default=100, help="poincare.count")
    parser.add_argument("--seed", type=int, default=0, help="the suite's seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from extbounds import cli, geometry, poincare

    calls = []

    def kept(name):
        check = getattr(poincare, name)

        def call(*a, **kw):
            out = check(*a, **kw)
            calls.append((check, a, kw, list(out) if isinstance(out, list) else [out]))
            return out

        return call

    for name in CHECKS:
        setattr(poincare, name, kept(name))
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "config.json")
        with open(config, "w") as fh:
            json.dump({"poincare": {"count": args.count}}, fh)
        with contextlib.redirect_stdout(io.StringIO()) as said:
            code = cli.main(["verify-poincare", "--config", config, "--out", out,
                             "--seed", str(args.seed)])
    print(f"{args.src}: count {args.count}, seed {args.seed}, exit {code}: "
          f"{said.getvalue().strip()}")

    use_reference_rule(geometry, poincare)
    worst, counts, margin = {}, {}, float("inf")
    for check, a, kw, records in calls:
        refs = shell_reference(check, a, kw)
        if refs is None:
            refs = check(*a, **kw)
            refs = [(ref.lhs, ref.rhs) for ref in (refs if isinstance(refs, list) else [refs])]
        assert len(refs) == len(records), check.__name__
        for rec, (lhs, rhs) in zip(records, refs):
            key = kind(rec)
            dev = max(deviation(rec.lhs, lhs), deviation(rec.rhs, rhs))
            worst[key] = max(worst.get(key, 0.0), dev)
            counts[key] = counts.get(key, 0) + 1
            if not hasattr(rec, "variant") and rec.rhs:
                margin = min(margin, rec.margin / rec.rhs)
    print(f"reference: {REF_PANELS} panels per distance interval, {REF_ANGULAR} angular nodes "
          f"(N = 3: polar cosines of the densities' grid)")
    print(f"{'kind':40s} {'records':>7s} {'worst rel. dev.':>15s}")
    for key in sorted(worst):
        print(f"{key:40s} {counts[key]:7d} {worst[key]:15.2e}")
    print(f"{'all':40s} {sum(counts.values()):7d} {max(worst.values()):15.2e}")
    print(f"smallest relative margin of the inequalities: {margin:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
