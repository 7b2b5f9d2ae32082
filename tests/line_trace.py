"""List the statements of ``src/extbounds`` that no run of the byte check
reaches.

    python tests/line_trace.py --src SRC

starts ``sys.settrace`` before ``extbounds`` is imported from ``SRC`` (a
checkout's ``src`` directory), runs every entry of ``cli_outputs.RUNS`` in
this one process as ``python -m extbounds.cli`` would, each in a fresh
temporary directory, and prints ``file:line: source`` for each statement
that no run reached, then a count.  Docstrings and declarations (``def``,
``class``, ``global``, a bare annotation) are left out, ``try`` has no
line of its own, and a compound statement is reached when its header is.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

from cli_outputs import RUNS

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal,
           ast.Try)


def statements(path: Path) -> dict:
    """The first line of each statement of the file -> the lines whose
    events reach it: a simple statement's own, a compound one's header."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def trace(package: str, reached: set):
    """A ``sys.settrace`` function that records (file, line) of every line
    event in the files under ``package``."""

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    return calls


def run_all(workdir: Path) -> list:
    """Run every entry of ``RUNS`` as ``python -m extbounds.cli``; the exit
    codes."""
    codes = []
    for n, (command, config, extra) in enumerate(RUNS):
        run = workdir / str(n)
        run.mkdir()
        if isinstance(config, Path):
            config = config.read_text()
        elif isinstance(config, dict):
            config = json.dumps(config)
        (run / "config.json").write_text(config)
        os.chdir(run)
        sys.argv = ["extbounds", command, "--config", "config.json", "--out", ".", *extra]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                runpy.run_module("extbounds.cli", run_name="__main__", alter_sys=True)
            except SystemExit as done:
                codes.append(done.code)
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    args = parser.parse_args(argv)
    src = os.path.realpath(args.src)
    package = os.path.join(src, "extbounds") + os.sep
    sys.path.insert(0, src)
    reached: set = set()
    sys.settrace(trace(package, reached))
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            codes = run_all(Path(tmp))
    finally:
        sys.settrace(None)
        os.chdir(cwd)
    unreached = 0
    for path in sorted(Path(package).glob("*.py")):
        lines = path.read_text().splitlines()
        for first, span in sorted(statements(path).items()):
            if not any((str(path), line) in reached for line in span):
                unreached += 1
                print(f"{path.name}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} statements unreached by {len(codes)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
