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
from dataclasses import dataclass, field, fields

import numpy as np

from . import constants as consts
from . import majorant as mj
from . import poincare as pc
from . import problems as pb
from .fields import QuadratureErrorAt
from .geometry import QuadratureError
from .minorant import (
    MinorantReport, NonzeroTraceError, SingularGramError, default_basis, minorant_report,
)
from .traces import BandLimitError


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _among(*options):
    return lambda v: None if v in options else (
        f"expected one of {', '.join(map(str, options))}")


def _between(lo, hi=math.inf):
    return lambda v: None if lo <= v <= hi else (
        f"must be >= {lo}" if hi == math.inf else f"must be in {lo}..{hi}")


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


def _parse(name, f, val):
    """``val`` typed and tested as the ``ScenarioConfig`` field ``f`` says."""
    kind, test = f.metadata["kind"], f.metadata["test"]
    if kind is list and isinstance(val, list):
        val = [_number(name, x) for x in val]
    elif not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {val!r}")
    why = test and test(val)
    if why:
        raise ConfigError(f"{name}: {why}, got {val!r}")
    return val


def _flatten(raw) -> dict:
    """The config's values by dotted name; a null section holds none, and
    each key of a non-empty object under an unknown name is named under it."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    flat = {}
    for key, val in raw.items():
        if "." in key:
            raise ConfigError(f"{key}: unknown configuration field")
        if isinstance(val, dict) and (key in SECTIONS or val and key not in FIELDS):
            flat.update((f"{key}.{k}", v) for k, v in val.items())
        elif key not in SECTIONS:
            flat[key] = val
        elif val is not None:
            raise ConfigError(f"{key}: expected a JSON object, got {val!r}")
    return flat


def _field(default, name, kind, test=None):
    """A config field: its default, dotted config name, JSON type and value
    test; ``list`` is a list of finite numbers, and a test returns None or
    what is wrong with the value."""
    meta = {"name": name, "kind": kind, "test": test}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ScenarioConfig:
    problem: str = _field("N3_harmonic", "problem", str, _among(*pb.CATALOG))
    estimate: str = _field("I", "estimate", str, _among("I", "II", "III"))
    radial_order: int = _field(12, "quadrature.radial_order", int, _between(1, 64))
    angular_order: int = _field(12, "quadrature.angular_order", int, _between(1, 64))
    shells: int = _field(8, "quadrature.shells", int, _between(1, 64))
    trace_degree: int = _field(8, "trace.L", int, _between(1))
    target: str = _field("v", "perturbation.target", str, _among(*pb.TARGET_MODES))
    pert_mode: str = _field("interior_bump", "perturbation.mode", str,
                            _among(*pb.PERTURB_MODES))
    epsilons: list = _field([0.1], "perturbation.epsilons", list, lambda v: (
        None if len(v) == 1 and v[0] >= 0 else
        "expected a list of one number >= 0 (several values go in sweep.values)"))
    seed: int = _field(0, "perturbation.seed", int, _between(0))
    sweep_kind: str = _field("epsilon", "sweep.kind", str, _among("epsilon", "radius"))
    sweep_values: list = _field([0.1, 0.05, 0.025], "sweep.values", list, lambda v: (
        None if v and min(v) > 0 else "expected a non-empty list of positive numbers"))
    minorant_radial: int = _field(4, "minorant.n_radial", int, _between(1))
    minorant_degree: int = _field(1, "minorant.degree", int, _among(0, 1))
    minorant_include_error: bool = _field(False, "minorant.include_error_in_basis", bool)
    poincare_count: int = _field(100, "poincare.count", int, _between(1))

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        flat = _flatten(raw)
        for name in flat:
            if name not in FIELDS:
                raise ConfigError(f"{name}: unknown configuration field")
        cfg = ScenarioConfig()
        for name, val in flat.items():
            if val is not None:  # null takes the default
                setattr(cfg, FIELDS[name].name, _parse(name, FIELDS[name], val))
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


# dotted config name -> ScenarioConfig field
FIELDS = {f.metadata["name"]: f for f in fields(ScenarioConfig)}
# the top-level keys that hold a JSON object of fields
SECTIONS = {name.partition(".")[0] for name in FIELDS if "." in name}


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
    for parameter, s in rows:
        rep, err = s.report, s.true_error
        eff = math.inf if err == 0.0 else rep.total / err
        lines.append(
            f"{parameter:.17g},{rep.residual:.17g},{rep.flux:.17g},"
            f"{rep.interface:.17g},{rep.boundary:.17g},{rep.total:.17g},"
            f"{err:.17g},{eff:.17g}"
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


GUARANTEE_SLACK = 1e-8


def guarantee_ok(err: float, scale: float, lower: float = -math.inf,
                 upper: float = math.inf) -> bool:
    """The guarantee check of every bound command: lower <= err <= upper,
    each up to ``GUARANTEE_SLACK`` times the larger of ``scale``,
    ||A^{1/2} grad v||, and the error."""
    slack = GUARANTEE_SLACK * max(scale, err)
    return lower <= err + slack and err <= upper + slack


@dataclass(frozen=True)
class Scenario:
    """One scenario's true error and bounds (a missing bound is -inf or
    inf), the report behind them (the minorant's for ``sandwich``), if any,
    and the guarantee verdict."""

    true_error: float
    lower: float
    upper: float
    report: mj.MajorantReport | MinorantReport | None
    ok: bool


def _scenario(cfg: ScenarioConfig, mp: pb.ManufacturedProblem, eps: float,
              command: str) -> Scenario:
    """Perturb, measure the true error and bound it as ``command`` does:
    ``majorant`` (and each ``sweep`` row) by the configured estimate,
    ``minorant`` by the minorant, and ``sandwich`` by the minorant and
    estimate I.  The approximation v is always perturbed so the true
    error stays positive."""
    if cfg.target == "y_broken" and (
            command == "sandwich" or command == "majorant" and cfg.estimate != "III"):
        who = "sandwich" if command == "sandwich" else f"estimate {cfg.estimate}"
        raise ConfigError(f"perturbation.target: {who} needs an unbroken flux "
                          f"(v or y), got {cfg.target!r}")
    if cfg.target == "v":
        v = pb.perturb(mp, "v", eps, cfg.pert_mode, cfg.seed)
        fluxes = (mp.exact_flux,)
    else:  # the flux is perturbed, and v by another draw
        v = pb.perturb(mp, "v", eps, "interior_bump", cfg.seed + 1)
        y = pb.perturb(mp, cfg.target, eps, cfg.pert_mode, cfg.seed)
        fluxes = y if cfg.target == "y_broken" else (y,)  # (interior, exterior) if broken
    err = pb.true_error(mp, v)
    p = mp.problem
    lower, upper, report = -math.inf, math.inf, None
    if command == "majorant":
        if cfg.estimate == "III":  # an unbroken flux is both of its pieces
            report = mj.estimate_III(p, v, fluxes[0], fluxes[-1])
        else:
            report = (mj.estimate_I if cfg.estimate == "I" else mj.estimate_II)(p, v, fluxes[0])
        upper, scale = report.total, report.scale
    else:
        basis = default_basis(mp.domain, cfg.minorant_radial, cfg.minorant_degree)
        if cfg.minorant_include_error and eps > 0.0:  # at eps = 0, u - v adds nothing
            basis = basis.extended(mp.exact_u - v)
        report = minorant_report(p, v, basis)
        lower = math.sqrt(report.value)
        if command == "sandwich":
            upper_report = mj.estimate_I(p, v, fluxes[0])
            upper, scale = upper_report.total, upper_report.scale
        else:
            scale = mj.scale_of(p, v)
    return Scenario(err, lower, upper, report, guarantee_ok(err, scale, lower, upper))


# a valid config whose computation cannot establish a bound: exit 1, named
NUMERICAL_FAILURES = (
    mj.EquilibrationError, QuadratureErrorAt,
    SingularGramError, NonzeroTraceError, BandLimitError, FloatingPointError,
    OverflowError,
)


def cmd_report(command: str, cfg: ScenarioConfig, out: str) -> int:
    """``majorant``, ``minorant`` or ``sandwich``: one scenario at the one
    entry of ``perturbation.epsilons``, written to ``report.json``."""
    eps = cfg.epsilons[0]
    s = _scenario(cfg, _build(cfg), eps, command)
    err = s.true_error
    if command == "majorant":
        entries = {"report": s.report.as_dict(),
                   "efficiency_index": s.upper / err if err > 0.0 else None}
        line = f"majorant total {s.upper:.6e}  true error {err:.6e}  guarantee "
    elif command == "minorant":
        entries = {"minorant": s.report.as_dict(), "lower": s.lower}
        line = f"minorant lower {s.lower:.6e}  true error {err:.6e}  "
    else:
        entries = {"lower": s.lower, "upper": s.upper}
        line = f"sandwich {s.lower:.6e} <= {err:.6e} <= {s.upper:.6e}  "
    _write_json(f"{out}/report.json", {"command": command, "problem": cfg.problem,
                                       "epsilon": eps, "true_error": err,
                                       "guarantee_ok": s.ok, **entries})
    print(line + ("ok" if s.ok else "VIOLATED"))
    return 0 if s.ok else 1


def cmd_sweep(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    rows = []
    for value in cfg.sweep_values:
        if cfg.sweep_kind == "epsilon":
            rows.append((value, _scenario(cfg, mp, value, "majorant")))
            continue
        if value <= mp.domain.a:
            raise ConfigError(
                f"sweep.values: interface radius {value} must exceed the "
                f"inner radius {mp.domain.a}"
            )
        try:  # no rule at this radius: the bundle's
            row_mp = pb.with_interface_radius(mp, value)
            rows.append((value, _scenario(cfg, row_mp, cfg.epsilons[0], "majorant")))
        except QuadratureError as exc:
            raise ConfigError(f"sweep.values: interface radius {value}: {exc}") from None

    _write_sweep_csv(f"{out}/sweep.csv", rows)
    bad = sum(not s.ok for _, s in rows)
    print(f"sweep: {len(rows)} rows, {bad} guarantee violations")
    return 0 if not bad else 1


def cmd_constants(cfg: ScenarioConfig, out: str) -> int:
    mp = _build(cfg)
    domain, A = mp.domain, mp.problem.A
    bundle = mp.problem.constants.derive_all()
    formulas = (("exterior_poincare", bundle.poincare, {"dimension": domain.dimension}),
                ("interior_weight_formula", bundle.c_o_formula, {"c_A": A.c_A, "R": domain.R}))
    reports = [*(consts.ConstantReport(name, value, "formula", None, params, 0.0)
                 for name, value, params in formulas),
               bundle.friedrichs, bundle.extension, bundle.trace]
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
        records += pc.verify_power_weight(dom3, pc.random_bumps(dom3, count, seed), beta)
        seed += 1
    dom2 = pc.ExteriorDomain(2, 1.0, 2.0)
    for beta in (0.0, 0.5, 1.0):
        records += pc.verify_log_weight(dom2, pc.random_bumps(dom2, count, seed), beta)
        seed += 1
    rng = np.random.default_rng(seed)
    for beta in (0.0, 1.0):
        bumps = []
        for _ in range(count):
            c = rng.uniform(0.5, 6.0)
            bumps.append(pc.BumpFunction((c,), rng.uniform(0.1, 0.9) * c))
        records += pc.verify_halfline(bumps + [pc.BumpFunction((0.0,), 2.0)], beta)
    records += pc.verify_corollary_chain(dom3, pc.random_bumps(dom3, count, seed + 17))
    records += pc.verify_corollary_chain(dom2, pc.random_bumps(dom2, count, seed + 18))

    identities = pc.partial_integration_identity(
        pc.random_bumps(dom3, max(10, count // 10), seed + 19), 0.0)
    identities += pc.partial_integration_identity(
        pc.random_bumps(dom2, max(10, count // 10), seed + 20), 0.0)
    identities += pc.partial_integration_identity([pc.BumpFunction((0.0,), 2.0)], 0.0)

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

    commands = {
        "verify-poincare": cmd_verify_poincare,
        "constants": cmd_constants,
        "sweep": cmd_sweep,
    }
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _parse("--seed", FIELDS["perturbation.seed"], args.seed)
        if not os.path.isdir(args.out):
            raise ConfigError(f"--out: {args.out!r} is not an existing directory")
        if args.command in commands:
            return commands[args.command](cfg, args.out)
        return cmd_report(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
