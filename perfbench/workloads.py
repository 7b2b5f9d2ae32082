"""The two benchmark workloads and the checks on their outputs.

Every workload is a fixed list of operations built from the workload
seed.  The composition of the list (problems, estimates, perturbation
kinds, basis sizes, commands) never depends on the seed; the seed only
draws the perturbation sizes and generator seeds.  Operations marked
with a ``fault`` use fixed inputs and exhibit a known fault of the
program: they fail on every run and are counted as failed.

All workloads use the CLI's default resolution: shells=8,
radial_order=12, angular_order=12, trace degree L=8.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
SCHEMAS = CHECKOUT / "schemas"
WORK = CHECKOUT / ".perfbench"
RUN_DIR = WORK / f"run-{os.getpid()}"  # scratch space of this process, removed at exit
CHILD = Path(__file__).resolve().parent / "child.py"

RESOLUTION = dict(radial_order=12, angular_order=12, shells=8, trace_degree=8)
CATALOG = ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log")
# (problem, (n_radial, degree)): the default basis and a larger one
SANDWICH_CASES = (("N3_harmonic", (4, 1)), ("N3_harmonic", (6, 1)), ("N3_anisotropic", (4, 1)),
                  ("N2_log", (4, 1)), ("N2_log", (6, 1)))
EPS_RANGE = (0.02, 0.2)  # log-uniform perturbation sizes
POINCARE_COUNT = 10
SWEEP_RADII = [1.5, 1.75]
ZERO_RTOL = 1e-12  # eps = 0: the flux gap y - A grad u is zero up to rounding

QUADRATURE_FAULT = "quadrature error breaks the guarantee at default resolution"
MINORANT_FAULT = "minorant exceeds the error when u - v is in the basis"


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    fingerprint: Callable[[dict], tuple]
    fault: str | None = None
    fresh: Callable[[], dict] | None = None  # the same in a fresh process (cli)


def _xb():
    # imported on first use: the warm set-up times the first import
    import extbounds

    return extbounds


def _draws(rng, count):
    """(eps, seed for v, seed for y) per operation, in a fixed order."""
    import numpy as np

    lo, hi = (math.log(e) for e in EPS_RANGE)
    out = []
    for _ in range(count):
        eps = float(np.exp(rng.uniform(lo, hi)))
        s_v, s_y = (int(s) for s in rng.integers(0, 2**31, size=2))
        out.append((eps, s_v, s_y))
    return out


def _rng(seed, stream):
    import numpy as np

    return np.random.default_rng([seed, stream])


def _term_problems(label, terms, total):
    residual, flux, interface, boundary = terms
    if total != residual + flux + interface + boundary:
        return [f"{label}: total {total!r} is not the float sum of its terms {terms!r}"]
    return []


def _report_problems(label, rep, exact_flux_I):
    terms = (rep.residual, rep.flux, rep.interface, rep.boundary)
    found = _term_problems(label, terms, rep.total)
    if exact_flux_I and rep.residual != 0.0:
        found.append(f"{label}: estimate I with the exact flux has residual "
                     f"{rep.residual!r}, not 0.0")
    return found


def _zero_problems(label, rep, error):
    """eps = 0: every term vanishes (the flux gap up to rounding) and the
    error is exactly zero."""
    found = []
    if (rep.residual, rep.interface, rep.boundary) != (0.0, 0.0, 0.0):
        found.append(f"{label}: eps = 0 gives nonzero terms {rep.as_dict()['terms']}")
    if not rep.flux <= ZERO_RTOL * rep.scale:
        found.append(f"{label}: eps = 0 gives flux term {rep.flux!r}")
    if error != 0.0:
        found.append(f"{label}: eps = 0 gives true error {error!r}")
    return found


def _report_fingerprint(out):
    rep = out["report"]
    return (rep.residual, rep.flux, rep.interface, rep.boundary, rep.total,
            out["error"], out.get("lower"))


# ---------------------------------------------------------------------------
# warm workloads: set-up


def warm_setup(names):
    """Import, build every problem at the CLI resolution, and derive one
    constants bundle per problem, each a step of a ``speed.Clock``.
    Returns the problems, the bundles and the clock."""
    import speed

    clock = speed.Clock()
    xb = clock.time(_xb)
    mps, bundles = {}, {}
    for name in names:
        mps[name] = clock.time(xb.builtin, name, **RESOLUTION)
        bundles[name] = clock.time(xb.constants_bundle, mps[name].problem)
    return mps, bundles, clock


def setup_problems(mps, bundles):
    """Closed-form checks of every constant of the warm set-up."""
    from reference import check_bundle

    found = []
    for name, mp in mps.items():
        found += check_bundle(name, bundles[name], mp.domain, mp.problem.A)
    return found


# ---------------------------------------------------------------------------
# warm: the majorant stream

# (estimate, perturbation of v, flux) per problem
MAJORANT_KINDS = (
    ("I", "interior_bump", "bump"),
    ("II", "boundary_mode", "exact"),
    ("III", "interior_bump", "broken"),
    ("I", "boundary_mode", "exact"),
)


def _majorant_op(mp, name, estimate, eps, v_mode, flux, s_v, s_y, fault=None):
    xb = _xb()
    label = f"majorant {name} {estimate} v={v_mode} y={flux} eps={eps:.4g}"

    def run():
        v = xb.perturb(mp, "v", eps, v_mode, s_v)
        if flux == "exact":
            ys = (mp.exact_flux,)
        elif flux == "bump":
            ys = (xb.perturb(mp, "y", eps, "interior_bump", s_y),)
        else:
            ys = xb.perturb(mp, "y_broken", eps, "interface_jump", s_y)
        # looked up per call, so that a tracer installed later sees it
        report = getattr(xb, f"estimate_{estimate}")(mp.problem, v, *ys)
        return {"v": v, "report": report, "error": xb.true_error(mp, v)}

    def check(out):
        from reference import bracket_problems, reference_error

        rep = out["report"]
        found = _report_problems(label, rep, estimate == "I" and flux == "exact")
        if eps == 0.0:
            return found + _zero_problems(label, rep, out["error"])
        ref, acc = reference_error(mp, out["v"])
        return found + bracket_problems(label, ref, acc, upper=rep.total)

    return Op(label, run, check, _report_fingerprint, fault)


def majorant_ops(mps, seed, tiny=False):
    kinds = MAJORANT_KINDS[:1] if tiny else MAJORANT_KINDS
    names = ("N3_harmonic", "N2_log") if tiny else CATALOG
    draws = iter(_draws(_rng(seed, 1), len(CATALOG) * len(MAJORANT_KINDS)))
    ops = []
    for name in names:
        for estimate, v_mode, flux in kinds:
            eps, s_v, s_y = next(draws)
            ops.append(_majorant_op(mps[name], name, estimate, eps, v_mode, flux, s_v, s_y))
        ops.append(_majorant_op(mps[name], name, "I", 0.0, "interior_bump", "exact", 0, 0))
    # fixed inputs: the default CLI scenario on every problem
    for name in names:
        ops.append(_majorant_op(mps[name], name, "I", 0.1, "interior_bump", "exact", 0, 0,
                                fault=QUADRATURE_FAULT))
    return ops


# ---------------------------------------------------------------------------
# warm: the sandwich stream


def _sandwich_op(mp, name, basis_size, eps, s_v, s_y, include_error=False, fault=None):
    xb = _xb()
    n_radial, degree = basis_size
    label = (f"sandwich {name} basis={n_radial}x{degree}"
             f"{'+error' if include_error else ''} eps={eps:.4g}")

    def run():
        v = xb.perturb(mp, "v", eps, "interior_bump", s_v)
        y = mp.exact_flux if include_error else xb.perturb(mp, "y", eps, "interior_bump", s_y)
        basis = xb.default_basis(mp.domain, n_radial, degree)
        if include_error:
            basis = basis.extended(mp.exact_u - v)
        mrep = xb.minorant_report(mp.problem, v, basis)
        report = xb.estimate_I(mp.problem, v, y)
        return {"v": v, "report": report, "lower": math.sqrt(mrep.value),
                "error": xb.true_error(mp, v)}

    def check(out):
        from reference import bracket_problems, reference_error

        rep = out["report"]
        found = _report_problems(label, rep, include_error)
        ref, acc = reference_error(mp, out["v"])
        return found + bracket_problems(label, ref, acc, lower=out["lower"], upper=rep.total)

    return Op(label, run, check, _report_fingerprint, fault)


def sandwich_ops(mps, seed, tiny=False):
    draws = _draws(_rng(seed, 2), len(SANDWICH_CASES))
    ops = [_sandwich_op(mps[name], name, size, *draw)
           for (name, size), draw in zip(SANDWICH_CASES, draws)
           if not tiny or (name, size) == ("N2_log", (4, 1))]
    # fixed inputs: the default CLI scenario with u - v appended to the basis
    for name in ("N2_log",) if tiny else ("N3_harmonic", "N2_log"):
        ops.append(_sandwich_op(mps[name], name, (4, 1), 0.1, 0, 0,
                                include_error=True, fault=MINORANT_FAULT))
    return ops


# ---------------------------------------------------------------------------
# cli


def peak_rss_mb():
    """Peak RSS of this process's own address space (``VmHWM``).  Unlike
    ``ru_maxrss``, it does not count the parent's memory that a process
    started by ``vfork`` and ``exec`` inherits in its accounting."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd):
    """Run one child process to its end; returns (exit code, stdout,
    stderr)."""
    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=cli_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read()


def child_json(argv, cwd):
    """Run a timing child that prints one JSON object on its last line."""
    code, out, err = run_child(argv, cwd)
    if code != 0:
        raise RuntimeError(f"{argv[2:]} exited with {code}: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def _schema_problems(label, payload, schema_name):
    import jsonschema

    schema = json.loads((SCHEMAS / schema_name).read_text())
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return [f"{label}: {schema_name}: {exc.message}"]
    return []


class CliChecks:
    """Checks of CLI outputs against the closed forms and the reference
    error.  ``v`` is rebuilt through the public API with the CLI's mapping
    from config to approximation: target v perturbs v with the config
    seed; targets y and y_broken perturb v as an interior bump with
    seed + 1.  The rebuilt v must reproduce the reported true error."""

    def __init__(self):
        self._mps = {}

    def problem(self, name, radius=None):
        key = (name, radius)
        if key not in self._mps:
            xb = _xb()
            mp = xb.builtin(name, **RESOLUTION)
            if radius is not None:  # the exact solution does not depend on R
                dom = xb.ExteriorDomain(mp.domain.dimension, mp.domain.a, radius)
                quads = xb.make_bundle(dom, RESOLUTION["radial_order"],
                                       RESOLUTION["angular_order"], RESOLUTION["shells"])
                mp = replace(mp, problem=replace(mp.problem, domain=dom, quads=quads))
            self._mps[key] = mp
        return self._mps[key]

    def approximation(self, mp, cfg):
        pert = cfg.get("perturbation", {})
        eps, seed = pert.get("epsilons", [0.1])[0], pert.get("seed", 0)
        if pert.get("target", "v") == "v":
            return _xb().perturb(mp, "v", eps, pert.get("mode", "interior_bump"), seed)
        return _xb().perturb(mp, "v", eps, "interior_bump", seed + 1)

    def reference(self, label, mp, cfg, reported_error, lower=None, upper=None):
        from reference import bracket_problems, reference_error

        v = self.approximation(mp, cfg)
        found = []
        own = _xb().true_error(mp, v)
        if own != reported_error:
            found.append(f"{label}: reported true error {reported_error!r} differs from "
                         f"true_error of the rebuilt approximation {own!r}")
        ref, acc = reference_error(mp, v)
        return found + bracket_problems(label, ref, acc, lower=lower, upper=upper)

    def constants(self, label, mp, named, modes):
        """``named`` maps constant names to reported values."""
        from reference import check_above, check_equal, closed_form_constants

        dom, A = mp.domain, mp.problem.A
        exact = closed_form_constants(dom.dimension, dom.a, dom.R, A.c_A, A.c_A_plus, modes)
        exact["c_o"] = exact["c_o_eigen"]
        found = []
        for key, value in named.items():
            if key in ("poincare", "exterior_poincare"):
                found += check_equal(f"{label} {key}", value, exact["poincare"])
            elif key == "interior_weight_formula":
                found += check_equal(f"{label} {key}", value, exact[key])
            elif key in exact:
                found += check_above(f"{label} {key}", value, exact[key])
            elif isinstance(value, (int, float)):
                found.append(f"{label}: no closed form for constant {key!r}")
        return found


def clear_program_caches():
    """Empty every cache of the program, so that the next call pays what a
    fresh process pays: each ``functools`` cache and each module-level
    dict whose name contains ``CACHE`` in the ``extbounds`` modules."""
    for name, module in list(sys.modules.items()):
        if name == "extbounds" or name.startswith("extbounds."):
            for attr, value in list(vars(module).items()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                elif "CACHE" in attr and isinstance(value, dict):
                    value.clear()


def _cli_op(index, command, cfg, checks, fault=None):
    label = f"cli {command} {cfg.get('problem', 'default config')}"
    cwd = RUN_DIR / f"cmd{index}"
    argv = [command, "--config", str(cwd / "config.json"), "--out", str(cwd)]

    def prepare():
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        (cwd / "config.json").write_text(json.dumps(cfg, sort_keys=True))

    def outputs(code, out, err):
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())
                 if p.suffix in (".json", ".csv") and p.name != "config.json"}
        return {"code": code, "stdout": out, "stderr": err, "files": files,
                "command": command}

    def run():
        """The command in this process, after its caches were emptied."""
        prepare()
        clear_program_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = importlib.import_module("extbounds.cli").main(argv)
        return outputs(code, out.getvalue(), err.getvalue())

    def fresh():
        """The command in a fresh interpreter (``child.py cli``, which
        runs ``extbounds.cli.main`` and records its peak RSS); returns its
        outputs, wall time and peak RSS."""
        prepare()
        rss_file = RUN_DIR / f"rss{index}.json"
        start = perf_counter()
        code, out, err = run_child([sys.executable, str(CHILD), "cli", str(rss_file), *argv], cwd)
        wall = perf_counter() - start
        rss = json.loads(rss_file.read_text())["rss_mb"]
        return {**outputs(code, out, err), "wall_s": wall, "rss_mb": rss}

    def fingerprint(out):
        digest = hashlib.sha256()
        for name, data in out["files"].items():
            digest.update(name.encode() + b"\0" + data)
        return out["code"], out["stdout"], digest.hexdigest()

    def check(out):
        found = []
        if out["stderr"].strip():
            found.append(f"{label}: stderr: {out['stderr'].strip()[-300:]}")
        try:
            found += _CLI_CHECKS[command](label, cfg, out, checks)
        except (KeyError, ValueError) as exc:
            found.append(f"{label}: output unreadable: {exc!r}")
        return found

    return Op(label, run, check, fingerprint, fault, fresh)


def _exit_problems(label, code, ok):
    if code != (0 if ok else 1):
        return [f"{label}: exit code {code} with guarantee_ok={ok}"]
    return []


def _check_majorant(label, cfg, out, checks):
    payload = json.loads(out["files"]["report.json"])
    found = _schema_problems(label, payload, "report.schema.json")
    found += _exit_problems(label, out["code"], payload["guarantee_ok"])
    rep = payload["report"]
    terms = tuple(rep["terms"][k] for k in ("residual", "flux", "interface", "boundary"))
    found += _term_problems(label, terms, rep["total"])
    exact_flux = cfg["perturbation"]["target"] == "v"
    if rep["estimate"].split("-")[0] == "I" and exact_flux and terms[0] != 0.0:
        found.append(f"{label}: estimate I with the exact flux has residual {terms[0]!r}")
    mp = checks.problem(cfg["problem"])
    named = {k: v for k, v in rep["constants"].items() if not isinstance(v, str)}
    found += checks.constants(label, mp, named, max(8, RESOLUTION["trace_degree"]))
    return found + checks.reference(label, mp, cfg, payload["true_error"], upper=rep["total"])


def _check_lower(label, cfg, out, checks):
    """``minorant`` and ``sandwich``: lower (and upper) around the reference."""
    payload = json.loads(out["files"]["report.json"])
    found = _schema_problems(label, payload, "report.schema.json")
    found += _exit_problems(label, out["code"], payload["guarantee_ok"])
    mp = checks.problem(cfg.get("problem", "N3_harmonic"))
    return found + checks.reference(label, mp, cfg, payload["true_error"],
                                    lower=payload["lower"], upper=payload.get("upper"))


def _check_sweep(label, cfg, out, checks):
    rows = list(csv.DictReader(io.StringIO(out["files"]["sweep.csv"].decode())))
    found = [] if out["code"] == 0 else [f"{label}: exit code {out['code']}"]
    if [float(r["epsilon_or_R"]) for r in rows] != cfg["sweep"]["values"]:
        found.append(f"{label}: rows {[r['epsilon_or_R'] for r in rows]} do not match "
                     f"the radii {cfg['sweep']['values']}")
    for row in rows:
        radius = float(row["epsilon_or_R"])
        terms = tuple(float(row[k]) for k in ("residual", "flux", "interface", "boundary"))
        found += _term_problems(f"{label} R={radius}", terms, float(row["total"]))
        mp = checks.problem(cfg["problem"], radius)
        found += checks.reference(f"{label} R={radius}", mp, cfg, float(row["true_error"]),
                                  upper=float(row["total"]))
    return found


def _check_constants(label, cfg, out, checks):
    payload = json.loads(out["files"]["constants.json"])
    found = _schema_problems(label, payload, "constants.schema.json")
    found += [] if out["code"] == 0 else [f"{label}: exit code {out['code']}"]
    mp = checks.problem(cfg["problem"])
    for entry in payload["constants"]:
        modes = entry["params"].get("modes", max(8, RESOLUTION["trace_degree"]))
        found += checks.constants(label, mp, {entry["name"]: entry["value"]}, modes)
    return found


def expected_poincare_counts(count):
    """Records and identities ``verify-poincare`` writes for
    ``poincare.count``: three power-weight and three log-weight betas, two
    half-line betas plus one wide bump each, three chain links per bump in
    N = 3 and in N = 2; identities for max(10, count // 10) bumps in each
    dimension plus the half line."""
    return 14 * count + 2, 2 * max(10, count // 10) + 1


POINCARE_LINE = re.compile(r"poincare suite: (\d+) inequality checks \((\d+) failures\), "
                           r"(\d+) identity checks \((\d+) failures\)")


def _check_poincare(label, cfg, out, checks):
    want_records, want_ids = expected_poincare_counts(cfg["poincare"]["count"])
    match = POINCARE_LINE.search(out["stdout"])
    if match is None:
        return [f"{label}: no summary line in {out['stdout'][-200:]!r}"]
    records, failures, ids, id_failures = (int(g) for g in match.groups())
    rows = out["files"]["poincare.csv"].decode().count("\n") - 1
    found = [] if out["code"] == 0 else [f"{label}: exit code {out['code']}"]
    if (records, ids, rows) != (want_records, want_ids, want_records):
        found.append(f"{label}: {records} checks, {rows} csv rows, {ids} identities; "
                     f"expected {want_records}, {want_records}, {want_ids}")
    if failures or id_failures:
        found.append(f"{label}: {failures} inequality and {id_failures} identity failures")
    return found


_CLI_CHECKS = {
    "majorant": _check_majorant,
    "minorant": _check_lower,
    "sandwich": _check_lower,
    "sweep": _check_sweep,
    "constants": _check_constants,
    "verify-poincare": _check_poincare,
}

# (command, config) per operation; the seed fills perturbation.epsilons/seed.
# Estimate II and N3_decay run in the warm workload only: every command here
# pays about 3 s of cold constants, and a check's time limit allows 8 per round.
CLI_COMMANDS = (
    ("majorant", {"problem": "N3_harmonic", "estimate": "I",
                  "perturbation": {"target": "y", "mode": "interior_bump"}}),
    ("majorant", {"problem": "N3_anisotropic", "estimate": "III",
                  "perturbation": {"target": "y_broken", "mode": "interface_jump"}}),
    ("majorant", {"problem": "N2_log", "estimate": "I",
                  "perturbation": {"target": "v", "mode": "boundary_mode"}}),
    ("sweep", {"problem": "N3_harmonic", "estimate": "I",
               "perturbation": {"target": "y", "mode": "interior_bump"},
               "sweep": {"kind": "radius", "values": SWEEP_RADII}}),
    ("constants", {"problem": "N3_anisotropic"}),
    ("verify-poincare", {"poincare": {"count": POINCARE_COUNT}}),
)
# fixed inputs: the default scenario with u - v in the minorant basis
CLI_FAULTS = (
    ("minorant", {"minorant": {"include_error_in_basis": True}}, MINORANT_FAULT),
    ("sandwich", {"minorant": {"include_error_in_basis": True}}, MINORANT_FAULT),
)


def cli_ops(seed, checks, tiny=False):
    draws = iter(_draws(_rng(seed, 3), len(CLI_COMMANDS)))
    commands = [CLI_COMMANDS[2], CLI_COMMANDS[5]] if tiny else CLI_COMMANDS
    ops = []
    for command, base in commands:
        eps, s_v, _ = next(draws)
        cfg = json.loads(json.dumps(base))
        if command == "verify-poincare":
            cfg["perturbation"] = {"seed": s_v}
            if tiny:
                cfg["poincare"]["count"] = 2
        elif command != "constants":
            cfg["perturbation"].update(epsilons=[eps], seed=s_v)
        ops.append(_cli_op(len(ops), command, cfg, checks))
    for command, cfg, fault in CLI_FAULTS[:1] if tiny else CLI_FAULTS:
        ops.append(_cli_op(len(ops), command, cfg, checks, fault))
    return ops


def clean_work():
    shutil.rmtree(RUN_DIR, ignore_errors=True)
