"""Time the benchmark operations of two checkouts side by side in one
process, and check that both give the same outputs.

    python tests/paired_ops.py --parent SRC --change SRC --workload warm|cli --rounds N
                               [--calibrate] [--count MODULE.FUNCTION]

loads the ``extbounds`` package of each ``SRC`` (a checkout's ``src``
directory) as its own set of modules, builds the workload's operations
from ``perfbench/workloads.py`` (this checkout's, which it only imports)
for each, and runs them interleaved: after an untimed warm-up round,
each operation runs on the change and then on the parent in even
rounds, the other way round in odd ones (ABBA).  Timing both sides in
one process, operation by operation, leaves a shared machine's drift
out of their ratio, which timings of separate processes do not.  Each
operation's fingerprint (its report values, or a CLI command's exit
code, stdout and output files; the exception of one that raises) must
be the same on both sides in every round, the warm-up included; the
first difference is printed and the exit code is 1.

With ``--calibrate`` each operation runs right after two samples of the
benchmark's calibration loop (``perfbench/speed.py``'s ``sample``, which
it only imports), as each timed step of ``perfbench/run.py`` does, so
that the pairs see the benchmark's regime: an operation that runs back
to back with the others finds its caches warmer than there.

It prints, per operation, the median over the rounds of the change's
time over the parent's and the rounds the change won, then the ratio of
the round totals per round and the rounds it won, and each side's
``op_p50``: the median of every operation time over the rounds, as
``perfbench/run.py`` takes it (here unscaled).

With ``--count MODULE.FUNCTION`` (a function of the package, such as
``fields.term_products``) each side's function is wrapped wherever a
module of its package binds it, and each operation's line also gives the
calls one run of it made on each side, the mean over the timed rounds;
both sides then pay the wrapper in their times.  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py sets before numpy is imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIDES = ("parent", "change")
SEED = 4242


def _package(name: str) -> bool:
    return name == "extbounds" or name.startswith("extbounds.")


def load(src: str) -> dict:
    """The modules of the ``extbounds`` package under ``src``, every one
    imported, and taken out of ``sys.modules`` again."""
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        importlib.import_module("extbounds.cli")
        for path in sorted((Path(src) / "extbounds").glob("*.py")):
            if path.stem != "__init__":
                importlib.import_module(f"extbounds.{path.stem}")
    finally:
        sys.path.pop(0)
    modules = {name: mod for name, mod in sys.modules.items() if _package(name)}
    for name in modules:
        del sys.modules[name]
    return modules


def use(modules: dict) -> None:
    """Make ``modules`` the ``extbounds`` package that imports find."""
    for name in [n for n in sys.modules if _package(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def counter(modules: dict, name: str) -> list:
    """Count the calls of the package function ``name`` ("module.function")
    of ``modules``: it is replaced by a counting wrapper wherever a module
    binds it.  Returns the one-item list that holds the count."""
    module, _, attr = name.rpartition(".")
    fn, count = getattr(modules[f"extbounds.{module}"], attr), [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    for mod in modules.values():
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, counted)
    return count


def operations(wl, workload: str) -> list:
    """The workload's operations on the package in ``sys.modules``."""
    if workload == "warm":
        mps, _, _ = wl.warm_setup(wl.CATALOG)
        return wl.majorant_ops(mps, SEED) + wl.sandwich_ops(mps, SEED)
    return wl.cli_ops(SEED, wl.CliChecks())


def run(op) -> tuple:
    """(seconds, fingerprint) of one run of ``op``; a raising operation
    has its exception's type and text as its fingerprint."""
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation fails on both sides alike
        return perf_counter() - start, (type(exc).__name__, str(exc))
    return perf_counter() - start, op.fingerprint(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the src directory of the parent")
    parser.add_argument("--change", required=True, help="the src directory of the change")
    parser.add_argument("--workload", required=True, choices=("warm", "cli"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--calibrate", action="store_true",
                        help="take two calibration samples before each operation")
    parser.add_argument("--count", metavar="MODULE.FUNCTION",
                        help="count each operation's calls of this package function")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, str(PERFBENCH))
    wl = importlib.import_module("workloads")
    sample = importlib.import_module("speed").sample if args.calibrate else None

    packages = {side: load(src) for side, src in zip(SIDES, (args.parent, args.change))}
    counts = {side: counter(packages[side], args.count) if args.count else [0]
              for side in SIDES}
    ops = {}
    for side in SIDES:
        use(packages[side])
        ops[side] = operations(wl, args.workload)
    labels = [op.label for op in ops["parent"]]
    times = {side: [[0.0] * len(labels) for _ in range(args.rounds)] for side in SIDES}
    calls = {side: [0] * len(labels) for side in SIDES}  # over the timed rounds
    first: list = [None] * len(labels)  # the parent's fingerprints of the warm-up round
    try:
        for rnd in range(-1, args.rounds):  # round -1 warms up and is not timed
            order = SIDES if rnd % 2 else SIDES[::-1]  # the parent first in rounds -1, 1, ...
            for i, label in enumerate(labels):
                for side in order:
                    use(packages[side])
                    if sample:
                        sample()
                        sample()
                    before = counts[side][0]
                    seconds, found = run(ops[side][i])
                    if rnd >= 0:
                        times[side][rnd][i] = seconds
                        calls[side][i] += counts[side][0] - before
                    if first[i] is None:
                        first[i] = found
                    elif found != first[i]:
                        print(f"round {rnd}, {label}: the {side}'s outputs differ from the "
                              f"parent's in the warm-up round:\n  {found!r}\n  {first[i]!r}")
                        return 1
    finally:
        wl.clean_work()

    print(f"{args.workload}: {len(labels)} operations, {args.rounds} rounds, every "
          "fingerprint equal on both sides")
    print("change/parent  wins  parent ms  " + (f"{args.count} parent change  " if args.count
                                                else "") + "operation")
    for i, label in enumerate(labels):
        ratios = [times["change"][k][i] / times["parent"][k][i] for k in range(args.rounds)]
        wins = sum(r < 1.0 for r in ratios)
        parent_ms = 1000.0 * statistics.median(times["parent"][k][i] for k in range(args.rounds))
        counted = "".join(f"{calls[side][i] / args.rounds:6.2f} " for side in SIDES)
        print(f"{statistics.median(ratios):13.3f}  {wins:2d}/{args.rounds}  {parent_ms:9.2f}  "
              + (f"{counted:>{len(args.count) + 15}} " if args.count else "") + label)
    rounds = [sum(times["change"][k]) / sum(times["parent"][k]) for k in range(args.rounds)]
    print("per round: " + " ".join(f"{r:.3f}" for r in rounds))
    print(f"round ratio median {statistics.median(rounds):.3f}, change better in "
          f"{sum(r < 1.0 for r in rounds)} of {args.rounds}")
    p50 = {side: 1000.0 * statistics.median(t for row in times[side] for t in row)
           for side in SIDES}
    print(f"op_p50 parent {p50['parent']:.3f} ms, change {p50['change']:.3f} ms, "
          f"change/parent {p50['change'] / p50['parent']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
