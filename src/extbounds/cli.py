"""Command-line driver: configure a scenario, run it, emit reports.

Commands:
  verify-poincare   run the inequality suite          -> poincare.csv
  constants         compute every bound constant      -> constants.json
  majorant          one upper-bound scenario          -> report.json
  minorant          one lower-bound scenario          -> report.json
  sandwich          lower + upper in one run          -> report.json
  sweep             epsilon or interface-radius sweep -> sweep.csv

Configuration is a JSON file (see README for the field reference).  All
outputs are byte-deterministic for a fixed config and seed: floats are
written with shortest round-trip repr in JSON and 17 significant digits
in CSV, keys are sorted, line endings are LF.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constants as consts
from . import majorant as mj
from . import poincare as pc
from . import problems as pb
from .minorant import default_basis, minorant_report, sandwich


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ScenarioConfig:
    problem: str = "N3_harmonic"
    estimate: str = "I"
    radial_order: int = 12
    angular_order: int = 12
    shells: int = 8
    trace_degree: int = 8
    constants_variant: str = "eigen"
    constants_modes: int | None = None
    constants_cutoff: float | None = None
    boundary_mode: str = "extension_based"
    target: str = "v"
    pert_mode: str = "interior_bump"
    epsilons: list = field(default_factory=lambda: [0.1])
    seed: int = 0
    sweep_kind: str = "epsilon"
    sweep_values: list = field(default_factory=lambda: [0.1, 0.05, 0.025])
    minorant_radial: int = 4
    minorant_degree: int = 1
    minorant_include_error: bool = False
    poincare_count: int = 100
    strict: bool = False

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        cfg = ScenarioConfig()
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")

        def take(section, key, kind, default, positive=False):
            val = section.get(key, default) if section else default
            if val is None:
                return None
            if kind is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, kind):
                raise ConfigError(f"{key}: expected {kind.__name__}, got {val!r}")
            if positive and val <= 0:
                raise ConfigError(f"{key}: must be positive, got {val!r}")
            return val

        known = {
            "problem", "estimate", "quadrature", "trace", "constants",
            "perturbation", "boundary_mode", "sweep", "minorant", "poincare",
        }
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown configuration section")

        cfg.problem = take(raw, "problem", str, cfg.problem)
        if cfg.problem not in pb.CATALOG:
            raise ConfigError(f"problem: unknown name {cfg.problem!r}; "
                              f"catalog: {list(pb.CATALOG)}")
        cfg.estimate = take(raw, "estimate", str, cfg.estimate)
        if cfg.estimate not in ("I", "II", "III"):
            raise ConfigError(f"estimate: expected I, II or III, got {cfg.estimate!r}")
        cfg.boundary_mode = take(raw, "boundary_mode", str, cfg.boundary_mode)
        if cfg.boundary_mode not in ("extension_based", "constant_based"):
            raise ConfigError(f"boundary_mode: unknown {cfg.boundary_mode!r}")

        quad = raw.get("quadrature", {})
        cfg.radial_order = take(quad, "radial_order", int, cfg.radial_order, True)
        cfg.angular_order = take(quad, "angular_order", int, cfg.angular_order, True)
        cfg.shells = take(quad, "shells", int, cfg.shells, True)
        if cfg.radial_order > 64 or cfg.angular_order > 64 or cfg.shells > 64:
            raise ConfigError("quadrature: orders and shells must be <= 64")

        trace = raw.get("trace", {})
        cfg.trace_degree = take(trace, "L", int, cfg.trace_degree, True)
        if cfg.angular_order < cfg.trace_degree + 1:
            raise ConfigError(
                "trace.L: needs quadrature.angular_order >= L + 1 "
                f"(got L={cfg.trace_degree}, angular_order={cfg.angular_order})"
            )

        cst = raw.get("constants", {})
        cfg.constants_variant = take(cst, "variant", str, cfg.constants_variant)
        if cfg.constants_variant not in ("eigen", "formula"):
            raise ConfigError(f"constants.variant: unknown {cfg.constants_variant!r}")
        if "mesh" in cst:
            raise ConfigError("constants.mesh: removed; the radial constants are "
                              "closed forms and take no mesh")
        cfg.constants_modes = take(cst, "modes", int, cfg.constants_modes)
        min_modes = max(8, cfg.trace_degree)
        if cfg.constants_modes is not None and cfg.constants_modes < min_modes:
            raise ConfigError(
                f"constants.modes: needs modes >= max(8, trace.L) = {min_modes} "
                f"(got {cfg.constants_modes})"
            )
        cfg.constants_cutoff = take(cst, "cutoff", float, cfg.constants_cutoff)

        pert = raw.get("perturbation", {})
        cfg.target = take(pert, "target", str, cfg.target)
        if cfg.target not in ("v", "y", "y_broken"):
            raise ConfigError(f"perturbation.target: unknown {cfg.target!r}")
        cfg.pert_mode = take(pert, "mode", str, cfg.pert_mode)
        if cfg.pert_mode not in pb.PERTURB_MODES:
            raise ConfigError(f"perturbation.mode: unknown {cfg.pert_mode!r}")
        eps = pert.get("epsilons", cfg.epsilons) if pert else cfg.epsilons
        if not isinstance(eps, list) or not all(
            isinstance(e, (int, float)) for e in eps
        ) or not eps:
            raise ConfigError("perturbation.epsilons: expected a non-empty list "
                              "of numbers")
        if any(e < 0 for e in eps):
            raise ConfigError("perturbation.epsilons: all entries must be >= 0")
        cfg.epsilons = [float(e) for e in eps]
        cfg.seed = take(pert, "seed", int, cfg.seed)

        sweep = raw.get("sweep", {})
        cfg.sweep_kind = take(sweep, "kind", str, cfg.sweep_kind)
        if cfg.sweep_kind not in ("epsilon", "radius"):
            raise ConfigError(f"sweep.kind: expected epsilon or radius, got "
                              f"{cfg.sweep_kind!r}")
        vals = sweep.get("values", cfg.sweep_values) if sweep else cfg.sweep_values
        if not isinstance(vals, list) or not all(
            isinstance(v, (int, float)) and v > 0 for v in vals
        ):
            raise ConfigError("sweep.values: expected a list of positive numbers")
        cfg.sweep_values = [float(v) for v in vals]

        mnr = raw.get("minorant", {})
        cfg.minorant_radial = take(mnr, "n_radial", int, cfg.minorant_radial, True)
        cfg.minorant_degree = take(mnr, "degree", int, cfg.minorant_degree)
        cfg.minorant_include_error = take(
            mnr, "include_error_in_basis", bool, cfg.minorant_include_error
        )

        poin = raw.get("poincare", {})
        cfg.poincare_count = take(poin, "count", int, cfg.poincare_count, True)
        return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    return ScenarioConfig.from_dict(raw)


def _write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_sweep_csv(path, rows) -> None:
    header = ("epsilon_or_R,residual,flux,interface,boundary,total,"
              "true_error,efficiency_index")
    lines = [header]
    for row in rows:
        rep = row.report
        err = "" if row.true_error is None else f"{row.true_error:.17g}"
        eff = "" if row.efficiency is None else f"{row.efficiency:.17g}"
        lines.append(
            f"{row.parameter:.17g},{rep.residual:.17g},{rep.flux:.17g},"
            f"{rep.interface:.17g},{rep.boundary:.17g},{rep.total:.17g},"
            f"{err},{eff}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _build(cfg: ScenarioConfig) -> pb.ManufacturedProblem:
    return pb.builtin(
        cfg.problem,
        radial_order=cfg.radial_order,
        angular_order=cfg.angular_order,
        shells=cfg.shells,
        trace_degree=cfg.trace_degree,
        strict=cfg.strict,
    )


def _bundle(cfg: ScenarioConfig, p: pb.Problem) -> mj.ConstantsBundle:
    return mj.constants_bundle(
        p, modes=cfg.constants_modes, cutoff=cfg.constants_cutoff
    )


def _scenario_inputs(cfg: ScenarioConfig, mp: pb.ManufacturedProblem, eps: float):
    """Perturbed (v, flux data) for one scenario.  The approximation v is
    always perturbed so the true error stays positive."""
    if cfg.target == "v":
        v = pb.perturb(mp, "v", eps, cfg.pert_mode, cfg.seed)
        flux = {"y": mp.exact_flux}
    elif cfg.target == "y":
        v = pb.perturb(mp, "v", eps, "interior_bump", cfg.seed + 1)
        flux = {"y": pb.perturb(mp, "y", eps, cfg.pert_mode, cfg.seed)}
    else:  # y_broken
        v = pb.perturb(mp, "v", eps, "interior_bump", cfg.seed + 1)
        y_i, y_e = pb.perturb(mp, "y_broken", eps, cfg.pert_mode, cfg.seed)
        flux = {"y_i": y_i, "y_e": y_e}
    return v, flux


def _run_estimate(cfg, mp, bundle, v, flux):
    p = mp.problem
    kw = dict(boundary_mode=cfg.boundary_mode, bundle=bundle)
    if cfg.estimate == "I":
        if "y" not in flux:
            raise ConfigError("estimate: I needs an unbroken flux "
                              "(perturbation.target v or y)")
        return mj.estimate_I(p, v, flux["y"], **kw)
    if cfg.estimate == "II":
        if "y" not in flux:
            raise ConfigError("estimate: II needs an unbroken flux")
        return mj.estimate_II(p, v, flux["y"], c_o_variant=cfg.constants_variant, **kw)
    if "y_i" in flux:
        return mj.estimate_III(
            p, v, flux["y_i"], flux["y_e"], c_o_variant=cfg.constants_variant, **kw
        )
    return mj.estimate_III(
        p, v, flux["y"], flux["y"], c_o_variant=cfg.constants_variant, **kw
    )


GUARANTEE_SLACK = 1e-8


def cmd_majorant(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    bundle = _bundle(cfg, mp.problem)
    eps = cfg.epsilons[0]
    v, flux = _scenario_inputs(cfg, mp, eps)
    report = _run_estimate(cfg, mp, bundle, v, flux)
    err = pb.true_error(mp, v)
    ok = report.total + GUARANTEE_SLACK * max(report.scale, err) >= err
    payload = {
        "command": "majorant",
        "problem": cfg.problem,
        "epsilon": eps,
        "report": report.as_dict(),
        "true_error": err,
        "efficiency_index": (report.total / err) if err > 0.0 else None,
        "guarantee_ok": ok,
    }
    _write_json(f"{out}/report.json", payload)
    print(f"majorant total {report.total:.6e}  true error {err:.6e}  "
          f"guarantee {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_minorant(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    eps = cfg.epsilons[0]
    v, _ = _scenario_inputs(cfg, mp, eps)
    basis = default_basis(mp.domain, cfg.minorant_radial, cfg.minorant_degree)
    if cfg.minorant_include_error:
        basis = basis.extended(mp.exact_u - v)
    report = minorant_report(mp.problem, v, basis)
    err = pb.true_error(mp, v)
    ok = report.value <= err**2 + GUARANTEE_SLACK * max(err, 1.0) ** 2
    payload = {
        "command": "minorant",
        "problem": cfg.problem,
        "epsilon": eps,
        "minorant": report.as_dict(),
        "lower": math.sqrt(report.value),
        "true_error": err,
        "guarantee_ok": ok,
    }
    _write_json(f"{out}/report.json", payload)
    print(f"minorant lower {math.sqrt(report.value):.6e}  true error {err:.6e}  "
          f"{'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_sandwich(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    bundle = _bundle(cfg, mp.problem)
    eps = cfg.epsilons[0]
    v, flux = _scenario_inputs(cfg, mp, eps)
    if "y" not in flux:
        raise ConfigError("sandwich: needs an unbroken flux (target v or y)")
    basis = default_basis(mp.domain, cfg.minorant_radial, cfg.minorant_degree)
    if cfg.minorant_include_error:
        basis = basis.extended(mp.exact_u - v)
    lower, upper = sandwich(
        mp.problem, v, flux["y"], basis,
        boundary_mode=cfg.boundary_mode, bundle=bundle,
    )
    err = pb.true_error(mp, v)
    slack = GUARANTEE_SLACK * max(err, upper)
    ok = lower <= err + slack and err <= upper + slack
    payload = {
        "command": "sandwich",
        "problem": cfg.problem,
        "epsilon": eps,
        "lower": lower,
        "true_error": err,
        "upper": upper,
        "guarantee_ok": ok,
    }
    _write_json(f"{out}/report.json", payload)
    print(f"sandwich {lower:.6e} <= {err:.6e} <= {upper:.6e}  "
          f"{'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_sweep(cfg: ScenarioConfig, out: str) -> int:
    if cfg.sweep_kind == "epsilon":
        mp = _build(cfg)
        bundle = _bundle(cfg, mp.problem)

        def inputs(eps):
            v, flux = _scenario_inputs(cfg, mp, eps)
            data = {"v": v}
            data.update(flux)
            if cfg.estimate == "III" and "y_i" not in data:
                y = data.pop("y")
                data["y_i"] = y
                data["y_e"] = y
            return data

        def true_err(eps, data):
            return pb.true_error(mp, data["v"])

        kw = dict(boundary_mode=cfg.boundary_mode, bundle=bundle)
        if cfg.estimate in ("II", "III"):
            kw["c_o_variant"] = cfg.constants_variant
        rows = mj.sweep(
            mp.problem, cfg.sweep_values, inputs, estimate=cfg.estimate,
            true_error_fn=true_err, **kw,
        )
    else:  # radius sweep: rebuild the problem and its constants per R
        rows = []
        for radius in cfg.sweep_values:
            mp = _build(cfg)
            if radius <= mp.domain.a:
                raise ConfigError(
                    f"sweep.values: interface radius {radius} must exceed the "
                    f"inner radius {mp.domain.a}"
                )
            mp = _rebuilt_with_radius(cfg, radius)
            bundle = _bundle(cfg, mp.problem)
            v, flux = _scenario_inputs(cfg, mp, cfg.epsilons[0])
            report = _run_estimate(cfg, mp, bundle, v, flux)
            err = pb.true_error(mp, v)
            eff = math.inf if err == 0.0 else report.total / err
            rows.append(mj.SweepRow(parameter=radius, report=report,
                                    true_error=err, efficiency=eff))

    _write_sweep_csv(f"{out}/sweep.csv", rows)
    bad = [
        r for r in rows
        if r.efficiency is not None
        and (not math.isfinite(r.efficiency) or r.efficiency < 1.0 - GUARANTEE_SLACK)
    ]
    print(f"sweep: {len(rows)} rows, {len(bad)} guarantee violations")
    return 0 if not bad else 1


def _rebuilt_with_radius(cfg: ScenarioConfig, radius: float) -> pb.ManufacturedProblem:
    """Rebuild a catalog problem with a different interface radius (the
    exact solution does not depend on where the interface sits)."""
    base = pb.builtin(cfg.problem)
    domain = pb.ExteriorDomain(base.domain.dimension, base.domain.a, radius)
    quads = pb.make_bundle(domain, cfg.radial_order, cfg.angular_order, cfg.shells)
    from . import traces

    g = traces.analyze(base.exact_u, domain.a, cfg.trace_degree, quads.gamma,
                       strict=cfg.strict)
    problem = pb.Problem(
        domain=domain, A=base.problem.A, f=base.problem.f, g=g, quads=quads,
        trace_degree=cfg.trace_degree, strict=cfg.strict,
    )
    return pb.ManufacturedProblem(
        problem=problem, exact_u=base.exact_u, exact_flux=base.exact_flux,
        decay_class=base.decay_class,
    )


def cmd_constants(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    domain, A = mp.domain, mp.problem.A
    modes = cfg.constants_modes or max(8, cfg.trace_degree)
    reports = [
        consts.ConstantReport(
            name="exterior_poincare",
            value=consts.exterior_poincare_constant(domain.dimension),
            method="formula",
            mode_values=None,
            params={"dimension": domain.dimension},
            rel_accuracy=0.0,
        ),
        consts.ConstantReport(
            name="interior_weight_formula",
            value=consts.interior_weight_constant(domain, A),
            method="formula",
            mode_values=None,
            params={"c_A": A.c_A, "R": domain.R},
            rel_accuracy=0.0,
        ),
        consts.interior_friedrichs_constant(domain, modes=modes),
        consts.boundary_extension_constant(
            domain, A, cutoff=cfg.constants_cutoff, modes=modes
        ),
        consts.interface_trace_constant(domain, A, modes=modes),
    ]
    payload = {
        "command": "constants",
        "problem": cfg.problem,
        "constants": [r.as_dict() for r in reports],
    }
    _write_json(f"{out}/constants.json", payload)
    for r in reports:
        print(f"{r.name:26s} {r.value:.12g}  ({r.method})")
    return 0


def cmd_verify_poincare(cfg: ScenarioConfig, out: str) -> int:
    count = cfg.poincare_count
    seed = cfg.seed
    records: list[pc.VerificationRecord] = []

    dom3 = pc.ExteriorDomain(3, 1.0, 2.0)
    for beta in (0.0, 1.0, 1.0 - 3 / 2 + 0.1):
        for u in pc.random_bumps(dom3, count, seed):
            records.append(pc.verify_power_weight(dom3, u, beta))
        seed += 1
    dom2 = pc.ExteriorDomain(2, 1.0, 2.0)
    for beta in (0.0, 0.5, 1.0):
        for u in pc.random_bumps(dom2, count, seed):
            records.append(pc.verify_log_weight(dom2, u, beta))
        seed += 1
    rng = np.random.default_rng(seed)
    for beta in (0.0, 1.0):
        for _ in range(count):
            c = rng.uniform(0.5, 6.0)
            rad = rng.uniform(0.1, 0.9) * c
            records.append(pc.verify_halfline(pc.BumpFunction((c,), rad), beta))
        records.append(pc.verify_halfline(pc.HalfLineBump(width=2.0), beta))
    for u in pc.random_bumps(dom3, count, seed + 17):
        records.extend(pc.verify_corollary_chain(dom3, u, "i"))
    for u in pc.random_bumps(dom2, count, seed + 18):
        records.extend(pc.verify_corollary_chain(dom2, u, "ii"))

    identities = []
    for u in pc.random_bumps(dom3, max(10, count // 10), seed + 19):
        identities.append(pc.partial_integration_identity(u, 0.0, "power"))
    for u in pc.random_bumps(dom2, max(10, count // 10), seed + 20):
        identities.append(pc.partial_integration_identity(u, 0.0, "log"))
    identities.append(
        pc.partial_integration_identity(pc.HalfLineBump(2.0), 0.0, "halfline")
    )

    pc.records_to_csv(records, f"{out}/poincare.csv")
    failures = [r for r in records if not r.passed]
    id_failures = [r for r in identities if not r.passed]
    print(
        f"poincare suite: {len(records)} inequality checks "
        f"({len(failures)} failures), {len(identities)} identity checks "
        f"({len(id_failures)} failures)"
    )
    return 0 if not failures and not id_failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="extbounds",
        description="guaranteed error bounds for exterior-domain diffusion problems",
    )
    parser.add_argument("command", choices=[
        "verify-poincare", "constants", "majorant", "minorant", "sandwich", "sweep",
    ])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the perturbation seed")
    parser.add_argument("--strict", action="store_true",
                        help="enforce the trace band-limit diagnostic")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.strict = args.strict

    commands = {
        "verify-poincare": cmd_verify_poincare,
        "constants": cmd_constants,
        "majorant": cmd_majorant,
        "minorant": cmd_minorant,
        "sandwich": cmd_sandwich,
        "sweep": cmd_sweep,
    }
    try:
        return commands[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (mj.EquilibrationError, mj.DivergentNormError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
