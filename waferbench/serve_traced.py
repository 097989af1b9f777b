"""Launcher: ``repro serve`` with the per-layer wrappers installed.

    python3 waferbench/serve_traced.py STATS_PATH serve --port 0 ...

SIGUSR1 zeroes the layer counters (start of the measured window); SIGUSR2
writes a counter snapshot to ``STATS_PATH.snapshot``. When the server stops,
the wrappers are uninstalled and the problems found restoring the original
functions are written to ``STATS_PATH``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import LayerTracer  # noqa: E402


def _write(path: str, document) -> None:
    with open(path + ".tmp", "w") as handle:
        json.dump(document, handle)
    os.replace(path + ".tmp", path)


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from repro.runner.cli import main as cli_main
    tracer = LayerTracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    signal.signal(signal.SIGUSR2, lambda *_: _write(stats_path + ".snapshot",
                                                    tracer.snapshot()))
    try:
        return cli_main(argv)
    finally:
        _write(stats_path, {"problems": tracer.uninstall()})


if __name__ == "__main__":
    sys.exit(main())
