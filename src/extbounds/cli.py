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
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constants as consts
from . import majorant as mj
from . import poincare as pc
from . import problems as pb
from .fields import QuadratureErrorAt
from .geometry import QuadratureError
from .minorant import (
    NonzeroTraceError, SingularGramError, default_basis, minorant_report, sandwich,
)
from .traces import BandLimitError


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# fields that are gone (dotted names), and why; any value, null included, is an error
REMOVED = {
    "boundary_mode": "the boundary term is the mode-wise extension energy, "
                     "never above the constant form",
    "constants.variant": "c_o is the smaller of the formula and Friedrichs-based values",
    "constants.mesh": "the radial constants are closed forms and take no mesh",
    "constants.cutoff": "the extension is cut off at R, its best radius",
    "constants.modes": "the constants cover the degrees <= trace.L, the band "
                       "every trace is projected onto",
}


def _among(*options):
    return lambda v: None if v in options else (
        f"expected one of {', '.join(map(str, options))}")


def _between(lo, hi=math.inf):
    return lambda v: None if lo <= v <= hi else (
        f"must be >= {lo}" if hi == math.inf else f"must be in {lo}..{hi}")


# dotted config name -> (ScenarioConfig attribute, JSON type, value test);
# ``list`` is a list of finite numbers, and a test returns None or what is
# wrong with the value
FIELDS = {
    "problem": ("problem", str, _among(*pb.CATALOG)),
    "estimate": ("estimate", str, _among("I", "II", "III")),
    "quadrature.radial_order": ("radial_order", int, _between(1, 64)),
    "quadrature.angular_order": ("angular_order", int, _between(1, 64)),
    "quadrature.shells": ("shells", int, _between(1, 64)),
    "trace.L": ("trace_degree", int, _between(1)),
    "perturbation.target": ("target", str, _among(*pb.TARGET_MODES)),
    "perturbation.mode": ("pert_mode", str, _among(*pb.PERTURB_MODES)),
    "perturbation.epsilons": ("epsilons", list, lambda v: None if v and min(v) >= 0
                              else "expected a non-empty list of numbers >= 0"),
    "perturbation.seed": ("seed", int, _between(0)),
    "sweep.kind": ("sweep_kind", str, _among("epsilon", "radius")),
    "sweep.values": ("sweep_values", list, lambda v: None if v and min(v) > 0
                     else "expected a non-empty list of positive numbers"),
    "minorant.n_radial": ("minorant_radial", int, _between(1)),
    "minorant.degree": ("minorant_degree", int, _among(0, 1)),
    "minorant.include_error_in_basis": ("minorant_include_error", bool, None),
    "poincare.count": ("poincare_count", int, _between(1)),
}
# the top-level keys that hold a JSON object of fields
SECTIONS = {name.partition(".")[0] for name in [*FIELDS, *REMOVED] if "." in name}


def _number(name, val):
    """``val`` as a finite float; ints and floats only."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:
        raise ConfigError(f"{name}: {val} is out of range") from None
    if not math.isfinite(val):
        raise ConfigError(f"{name}: expected a finite number, got {val!r}")
    return val


def _parse(name, row, val):
    """``val`` typed and tested by the ``FIELDS`` row ``row``."""
    _, kind, test = row
    if kind is list and isinstance(val, list):
        val = [_number(name, x) for x in val]
    elif not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {val!r}")
    why = test and test(val)
    if why:
        raise ConfigError(f"{name}: {why}, got {val!r}")
    return val


def _flatten(raw) -> dict:
    """The config's values by dotted name; a null section holds none."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    flat = {}
    for key, val in raw.items():
        if "." in key:
            raise ConfigError(f"{key}: unknown configuration field")
        if key not in SECTIONS:
            flat[key] = val
        elif isinstance(val, dict):
            flat.update((f"{key}.{k}", v) for k, v in val.items())
        elif val is not None:
            raise ConfigError(f"{key}: expected a JSON object, got {val!r}")
    return flat


@dataclass
class ScenarioConfig:
    problem: str = "N3_harmonic"
    estimate: str = "I"
    radial_order: int = 12
    angular_order: int = 12
    shells: int = 8
    trace_degree: int = 8
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

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        flat = _flatten(raw)
        for name in flat:
            if name in REMOVED:
                raise ConfigError(f"{name}: removed; {REMOVED[name]}")
            if name not in FIELDS:
                raise ConfigError(f"{name}: unknown configuration field")
        cfg = ScenarioConfig()
        for name, val in flat.items():
            if val is not None:  # null takes the default
                setattr(cfg, FIELDS[name][0], _parse(name, FIELDS[name], val))
        if cfg.angular_order < cfg.trace_degree + 1:
            raise ConfigError(
                "trace.L: needs quadrature.angular_order >= L + 1 "
                f"(got L={cfg.trace_degree}, angular_order={cfg.angular_order})"
            )
        if cfg.pert_mode not in pb.TARGET_MODES[cfg.target]:
            raise ConfigError(
                f"perturbation.mode: target {cfg.target!r} supports "
                f"{' and '.join(pb.TARGET_MODES[cfg.target])} only, got {cfg.pert_mode!r}")
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
    except (ValueError, RecursionError) as exc:  # bad bytes, huge ints, deep nesting
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
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
        lines.append(
            f"{row.parameter:.17g},{rep.residual:.17g},{rep.flux:.17g},"
            f"{rep.interface:.17g},{rep.boundary:.17g},{rep.total:.17g},"
            f"{row.true_error:.17g},{row.efficiency:.17g}"
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


def _run_estimate(cfg, mp, v, flux):
    p = mp.problem
    if cfg.estimate == "I":
        if "y" not in flux:
            raise ConfigError("estimate: I needs an unbroken flux "
                              "(perturbation.target v or y)")
        return mj.estimate_I(p, v, flux["y"])
    if cfg.estimate == "II":
        if "y" not in flux:
            raise ConfigError("estimate: II needs an unbroken flux")
        return mj.estimate_II(p, v, flux["y"])
    y_i, y_e = (flux["y_i"], flux["y_e"]) if "y_i" in flux else (flux["y"], flux["y"])
    return mj.estimate_III(p, v, y_i, y_e)


def _basis(cfg: ScenarioConfig, mp: pb.ManufacturedProblem, v):
    """The minorant's test basis, plus u - v when the config asks for it."""
    basis = default_basis(mp.domain, cfg.minorant_radial, cfg.minorant_degree)
    return basis.extended(mp.exact_u - v) if cfg.minorant_include_error else basis


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    report: mj.MajorantReport
    true_error: float
    efficiency: float

    @property
    def ok(self) -> bool:
        """The upper-bound check of ``majorant`` and ``sweep``: the total reaches
        the true error, up to ``GUARANTEE_SLACK`` times the scale or the error."""
        err = self.true_error
        return self.report.total + GUARANTEE_SLACK * max(self.report.scale, err) >= err


def _row(cfg: ScenarioConfig, mp: pb.ManufacturedProblem, eps: float,
         parameter: float) -> SweepRow:
    """One upper-bound scenario: perturb, measure the true error, bound it."""
    v, flux = _scenario_inputs(cfg, mp, eps)
    err = pb.true_error(mp, v)
    report = _run_estimate(cfg, mp, v, flux)
    eff = math.inf if err == 0.0 else report.total / err
    return SweepRow(parameter=parameter, report=report, true_error=err, efficiency=eff)


GUARANTEE_SLACK = 1e-8
# a valid config whose computation cannot establish a bound: exit 1, named
NUMERICAL_FAILURES = (
    mj.EquilibrationError, mj.DivergentNormError, QuadratureErrorAt,
    SingularGramError, NonzeroTraceError, BandLimitError, FloatingPointError,
    OverflowError,
)


def cmd_majorant(cfg: ScenarioConfig, out: str) -> int:
    eps = cfg.epsilons[0]
    row = _row(cfg, _build(cfg), eps, eps)
    report, err, ok = row.report, row.true_error, row.ok
    payload = {
        "command": "majorant",
        "problem": cfg.problem,
        "epsilon": eps,
        "report": report.as_dict(),
        "true_error": err,
        "efficiency_index": row.efficiency if err > 0.0 else None,
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
    report = minorant_report(mp.problem, v, _basis(cfg, mp, v))
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
    eps = cfg.epsilons[0]
    v, flux = _scenario_inputs(cfg, mp, eps)
    if "y" not in flux:
        raise ConfigError("sandwich: needs an unbroken flux (target v or y)")
    lower, upper = sandwich(mp.problem, v, flux["y"], _basis(cfg, mp, v))
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
    mp = _build(cfg)
    rows = []
    for value in cfg.sweep_values:
        if cfg.sweep_kind == "epsilon":
            row_mp, eps = mp, value
        else:
            if value <= mp.domain.a:
                raise ConfigError(
                    f"sweep.values: interface radius {value} must exceed the "
                    f"inner radius {mp.domain.a}"
                )
            try:
                row_mp = pb.with_interface_radius(mp, value)
            except QuadratureError as exc:  # no rule at this radius
                raise ConfigError(f"sweep.values: interface radius {value}: {exc}") from None
            eps = cfg.epsilons[0]
        rows.append(_row(cfg, row_mp, eps, value))

    _write_sweep_csv(f"{out}/sweep.csv", rows)
    bad = [r for r in rows if not r.ok]
    print(f"sweep: {len(rows)} rows, {len(bad)} guarantee violations")
    return 0 if not bad else 1


def cmd_constants(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    domain, A = mp.domain, mp.problem.A
    bundle = mp.problem.constants
    reports = [
        consts.ConstantReport(
            name="exterior_poincare",
            value=bundle.poincare,
            method="formula",
            mode_values=None,
            params={"dimension": domain.dimension},
            rel_accuracy=0.0,
        ),
        consts.ConstantReport(
            name="interior_weight_formula",
            value=bundle.c_o_formula,
            method="formula",
            mode_values=None,
            params={"c_A": A.c_A, "R": domain.R},
            rel_accuracy=0.0,
        ),
        bundle.friedrichs,
        bundle.extension,
        bundle.trace,
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
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _parse("--seed", FIELDS["perturbation.seed"], args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not os.path.isdir(args.out):
        print(f"config error: --out: {args.out!r} is not an existing directory",
              file=sys.stderr)
        return 2

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
    except NUMERICAL_FAILURES as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
