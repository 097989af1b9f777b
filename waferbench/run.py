"""The benchmark's one command: run a workload, check it, print its metrics.

    python3 waferbench/run.py --workload grid_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("grid_sweep", "dlws_search", "serve_mixed")


def _units() -> dict:
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program source at {common.SRC}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    # SIGTERM unwinds through the ``finally`` blocks that stop child servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    units = _units()
    os.makedirs(common.SCRATCH, exist_ok=True)
    try:
        if args.workload == "serve_mixed":
            import serve
            result = serve.run(args.seed, args.seconds, bool(args.trace))
        else:
            import inproc
            result = inproc.run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    finally:
        common.stop_all()
        shutil.rmtree(common.SCRATCH, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
