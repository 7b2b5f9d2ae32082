"""Child processes of the benchmark, each started in a fresh interpreter.

    python3 perfbench/child.py import
        time ``import extbounds.cli`` (numpy, which the calibration uses,
        is imported first); prints {"seconds": ..., "scaled": ...}
    python3 perfbench/child.py setup PROBLEM...
        time the warm set-up of these problems (import, ``builtin`` at the
        CLI resolution, one ``constants_bundle`` each); prints
        {"seconds": ..., "scaled": ...}
    python3 perfbench/child.py cli RSS_FILE COMMAND --config ... --out ...
        run ``extbounds.cli.main`` as ``python3 -m extbounds.cli`` would,
        then write {"rss_mb": peak RSS} to RSS_FILE; exits with the CLI's
        code

``scaled`` is the time scaled to the reference speed (speed.py), with
calibration samples taken in the child itself.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        import extbounds.cli
        from workloads import peak_rss_mb

        code = extbounds.cli.main(rest[1:])
        Path(rest[0]).write_text(json.dumps({"rss_mb": peak_rss_mb()}))
        return code
    if mode == "import":
        import speed

        clock = speed.Clock()
        clock.time(importlib.import_module, "extbounds.cli")
    elif mode == "setup":
        from workloads import warm_setup

        _, _, clock = warm_setup(rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps({"seconds": sum(clock.raw), "scaled": sum(clock.scaled)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
