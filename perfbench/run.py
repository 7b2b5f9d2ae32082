"""Benchmark of extbounds: warm estimate and sandwich streams, CLI commands
with cold constants.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

    warm    constants warm: a majorant stream (perturb -> estimate
            I/II/III -> true_error) and a sandwich stream
            (default_basis -> minorant_report -> estimate_I -> true_error)
    cli     ``extbounds.cli.main`` per command, with the program's caches
            emptied before each, so that every command pays cold constants

A run repeats whole rounds of the workload's fixed operation list until
``--seconds`` have passed.  Times are scaled to the machine's reference
speed (speed.py).  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` rounds
alternate between untraced and traced, and the object holds the
per-layer metrics, per round, plus the tracing overhead.  The spans of
a traced run are written to ``.perfbench/trace/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the program's dense and banded solves are small, and a
# second BLAS thread would tie every time to both CPUs of a shared machine,
# which the calibration (speed.py) cannot follow.  Children inherit this.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402  (after the thread settings, before numpy)
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import METRIC_NAMES, UNITS, Tracer, layer_metrics, spans_to_rows  # noqa: E402

sys.path.insert(0, str(wl.SRC))

WORKLOADS = ("warm", "cli")
SETUP_CHILDREN = 1  # warm set-ups in fresh interpreters, besides the in-process one
IMPORT_CHILDREN = 3  # cli: fresh interpreters timing ``import extbounds.cli``
CLI_MIN_ROUNDS = 2  # a cli run's median takes two rounds of commands (README.md)
E2E_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
TIMES = ("setup_s", "run_s", "op_p50_ms")  # scaled to the reference speed (speed.py)
TRACE_DIR = wl.WORK / "trace"


@dataclass
class Measured:
    """What a workload function hands back for evaluation and output."""

    ops: list
    rounds: list
    setup: list  # (set-up or import time in s, the same scaled to the reference speed)
    peak_rss_mb: float
    setup_problems: list
    layers: dict  # per-layer metrics outside the rounds
    setup_spans: list


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.clock = speed.Clock()  # one step per operation
        self.results = []
        self.errors = []
        self.layers = dict.fromkeys(METRIC_NAMES, 0.0)
        self.spans = []


def run_rounds(ops, seconds, tracer, min_rounds=1):
    """Whole rounds of ``ops`` until ``seconds`` have passed and at least
    ``min_rounds`` ran; with a tracer, rounds alternate untraced/traced and
    at least one of each runs.  Each operation is a step of the round's
    clock; a round's time is the sum of its operations' times."""
    rounds = []
    start = perf_counter()
    while True:
        rnd = Round(tracer is not None and len(rounds) % 2 == 1)
        for index, op in enumerate(ops):
            try:
                out, error = rnd.clock.time(_execute, rnd, index, op, tracer), None
            except Exception:  # a crashing operation counts as failed
                out, error = None, traceback.format_exc(limit=3)
            rnd.results.append(out)
            rnd.errors.append(error)
        rounds.append(rnd)
        enough = len(rounds) >= (2 if tracer else min_rounds)
        if perf_counter() - start >= seconds and enough:
            return rounds


def _execute(rnd, index, op, tracer):
    if not rnd.traced:
        return op.run()
    tracer.op = index
    tracer.install()
    try:
        return op.run()
    finally:
        tracer.uninstall()
        spans = tracer.take()
        rnd.spans.append((index, spans_to_rows(spans)))
        for key, value in layer_metrics(spans).items():
            rnd.layers[key] += value


def evaluate(ops, rounds):
    """(failed operation count, unexpected problems, notes).  An operation
    fails in a round when it raised, when its outputs differ from the
    first round's, or when its first-round outputs fail a check."""
    failed = 0
    unexpected, notes = [], []
    for i, op in enumerate(ops):
        first = rounds[0].results[i]
        try:
            problems = [rounds[0].errors[i]] if first is None else op.check(first)
        except Exception:
            problems = [f"{op.label}: check crashed: {traceback.format_exc(limit=3)}"]
        for k, rnd in enumerate(rounds):
            out = rnd.results[i]
            bad = list(problems)
            if out is None:
                bad.append(rnd.errors[i])
            elif first is not None and op.fingerprint(out) != op.fingerprint(first):
                bad.append(f"{op.label}: round {k} outputs differ from round 0")
            if bad:
                failed += 1
                if op.fault is None:
                    unexpected.extend(b for b in bad if b not in unexpected)
        if op.fault is not None:
            notes.append(f"{op.label}: {'fails as expected' if problems else 'PASSES'} "
                         f"(known fault: {op.fault})")
            for line in problems:
                notes.append(f"    {line}")
    return failed, unexpected, notes


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile_note(latencies):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 40:
        return f"{n} ops (fewer than 40: median only)"
    q = int(100 * (n - 10) / n)
    xs = sorted(latencies)
    value = xs[min(n - 1, -(-q * n // 100) - 1)]
    return f"{n} ops, p{q} {1000 * value:.1f} ms"


# ---------------------------------------------------------------------------
# workloads


def warm(seed, seconds, trace, tiny):
    names = ("N3_harmonic", "N2_log") if tiny else wl.CATALOG
    tracer = Tracer() if trace else None
    if tracer:
        import extbounds  # noqa: F401  (imported before the tracer wraps it)

        tracer.install()
    mps, bundles, clock = wl.warm_setup(names)
    setup = [(sum(clock.raw), sum(clock.scaled))]
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    elif not tiny:
        cwd = wl.RUN_DIR / "setup"
        cwd.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_CHILDREN):
            out = wl.child_json([sys.executable, str(wl.CHILD), "setup", *names], cwd)
            setup.append((out["seconds"], out["scaled"]))

    ops = wl.majorant_ops(mps, seed, tiny) + wl.sandwich_ops(mps, seed, tiny)
    rounds = run_rounds(ops, seconds, tracer)
    peak = wl.peak_rss_mb()
    return Measured(ops, rounds, setup, peak, wl.setup_problems(mps, bundles),
                    layer_metrics(setup_spans), [(None, spans_to_rows(setup_spans))])


def cli(seed, seconds, trace, tiny):
    cwd = wl.RUN_DIR / "import"
    cwd.mkdir(parents=True, exist_ok=True)
    imports = []
    for _ in range(2 if tiny else IMPORT_CHILDREN):
        out = wl.child_json([sys.executable, str(wl.CHILD), "import"], cwd)
        imports.append((out["seconds"], out["scaled"]))
    import extbounds.cli  # noqa: F401  (imported before a tracer wraps it)

    ops = wl.cli_ops(seed, wl.CliChecks(), tiny)
    rounds = run_rounds(ops, seconds, Tracer() if trace else None,
                        1 if tiny else CLI_MIN_ROUNDS)
    peak = wl.peak_rss_mb()
    layers = dict.fromkeys(METRIC_NAMES, 0.0)
    layers["cli.import.s"] = _median([t for t, _ in imports])
    problems = []
    if trace:  # what a CLI user pays: each command once in a fresh process
        for op, first in zip(ops, rounds[0].results):
            out = op.fresh()
            if first is not None and op.fingerprint(out) != op.fingerprint(first):
                problems.append(f"{op.label}: a fresh process gives other outputs")
            layers[f"cli.{out['command']}.s"] += out["wall_s"]
            key = f"cli.{out['command']}.rss_mb"
            layers[key] = max(layers[key], out["rss_mb"])
    return Measured(ops, rounds, imports, peak, problems, layers, [])


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result object, human-readable lines)."""
    try:
        if workload == "cli":
            m = cli(seed, seconds, trace, tiny)
        else:
            m = warm(seed, seconds, trace, tiny)
        failed, unexpected, notes = evaluate(m.ops, m.rounds)
    finally:
        wl.clean_work()
    ops, rounds = m.ops, m.rounds
    untraced = [r for r in rounds if not r.traced]
    attempted = len(ops) * len(rounds)
    lines = [f"{workload}: seed {seed}, {len(ops)} ops per round, {len(rounds)} rounds, "
             f"{attempted} attempted, {failed} failed"]
    lines += notes
    lines += [f"PROBLEM {p}" for p in m.setup_problems + unexpected]
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = dict(m.layers)
        for key in METRIC_NAMES:
            metrics[key] += statistics.fmean(r.layers[key] for r in traced)
        metrics["trace.run_s"] = _median([sum(r.clock.scaled) for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(
            [sum(r.clock.scaled) for r in untraced])
        units = UNITS
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        rows = [{"round": None, "op": op, "spans": s} for op, s in m.setup_spans]
        rows += [{"round": k, "op": op, "spans": s}
                 for k, r in enumerate(rounds) for op, s in r.spans]
        (TRACE_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "metrics": metrics, "rounds": rows}))
    else:
        raw = {
            "setup_s": _median([t for t, _ in m.setup]),
            "run_s": _median([sum(r.clock.raw) for r in untraced]),
            "op_p50_ms": 1000.0 * _median([t for r in untraced for t in r.clock.raw]),
        }
        scaled = [t for r in untraced for t in r.clock.scaled]
        metrics = {
            "setup_s": _median([t for _, t in m.setup]),
            "run_s": _median([sum(r.clock.scaled) for r in untraced]),
            "op_p50_ms": 1000.0 * _median(scaled),
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = E2E_UNITS
        scales = [s for r in untraced for s in r.clock.scales]
        lines.append(f"speed scale of the operations: median {_median(scales):.3f}, "
                     f"range {min(scales):.3f}..{max(scales):.3f} (reference "
                     f"calibration {1000 * speed.REFERENCE_S:.2f} ms); unscaled: "
                     + ", ".join(f"{k} {raw[k]:.6g} {units[k]}" for k in TIMES))
        lines.append(f"op latency (scaled): {_percentile_note(scaled)}")
        for i, op in enumerate(ops):
            ms = 1000.0 * _median([r.clock.scaled[i] for r in untraced])
            lines.append(f"  {ms:9.1f} ms  {op.label}")
    for key, value in metrics.items():
        lines.append(f"{key} {value:.6g} {units[key]}")
    result = {
        "correct": not (m.setup_problems or unexpected),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in (wl.SRC / "extbounds", wl.SCHEMAS) if not p.is_dir()]
    if missing or importlib.util.find_spec("extbounds") is None:
        print(f"program sources not found: {missing or 'extbounds'}; run from the root "
              "of an extbounds checkout", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
