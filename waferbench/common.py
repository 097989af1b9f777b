"""Pieces shared by the in-process and the serving workloads."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import calib

#: Root of the checkout: the directory holding ``src/repro``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch space for stores and traces, inside the checkout.
SCRATCH = os.path.join(ROOT, ".bench_build", "waferbench")

#: The paper's reported average speedup of TEMP over prior systems.
PAPER_SPEEDUP = 1.7

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5


#: Every child process this run started; :func:`stop_all` ends them.
_CHILDREN: List[subprocess.Popen] = []


def _default_sigint() -> None:
    # A shell starting this benchmark in the background may have set SIGINT
    # to ignored, which children inherit; the servers need it to drain.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def spawn(command: List[str], **kwargs) -> subprocess.Popen:
    """Start a program child process from the checkout root, ``src`` on
    its path and SIGINT at its default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               preexec_fn=_default_sigint, **kwargs)
    _CHILDREN.append(process)
    return process


def stop_all() -> None:
    """Stop every child process still running."""
    for process in _CHILDREN:
        stop(process)


def stop(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Stop a child process (SIGINT, so a server drains) and wait until it
    has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def read_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def median_setup(spawn_until_ready: Callable[[], float],
                 repeats: int = SETUP_REPEATS) -> float:
    """Calibrated median of ``repeats`` set-up times (seconds).

    ``spawn_until_ready`` starts a program process, returns the seconds
    until it was ready, and stops it. The kernel runs before and after each
    spawn, never while the child starts.
    """
    times = []
    before = calib.calibrate()
    for _ in range(repeats):
        seconds = spawn_until_ready()
        after = calib.calibrate()
        times.append(calib.scale(seconds, (before + after) / 2))
        before = after
    return calib.median(times)


def spawn_library_ready() -> float:
    """Seconds from spawning a Python process to a built ``PlanService``."""
    code = ("from repro.api import PlanService\n"
            "PlanService()\n"
            "print('ready', flush=True)\n")
    start = time.perf_counter()
    process = spawn([sys.executable, "-c", code], stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(
                f"program did not start: {process.stderr.read().strip()}")
    finally:
        stop(process)
    return elapsed


def count_failures(problem_lists: Iterable[List[str]]) -> int:
    """How many items had problems; the first few are printed."""
    failed = 0
    for problems in problem_lists:
        if problems:
            failed += 1
            if failed <= 5:
                print(f"  FAILED: {'; '.join(problems)}")
    return failed


def distribution(name: str, values_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p95 of calibrated latencies, printed with their sample accounting."""
    p50 = calib.percentile(values_ms, 0.5)
    p95 = calib.percentile(values_ms, 0.95)
    print(f"  {name}: n={len(values_ms)}  p50={p50:.3f} ms "
          f"({calib.above(values_ms, p50)} above)  p95={p95:.3f} ms "
          f"({calib.above(values_ms, p95)} above)")
    return {"latency_p50_ms": p50, "latency_p95_ms": p95}


def temp_speedup(payloads: Dict[tuple, Dict[str, object]]) -> float:
    """Geomean over the Table II models of TEMP's modelled throughput over
    the best non-OOM baseline's, from ``{(model, system): payload}``."""
    ratios = []
    for model in sorted({model for model, _ in payloads}):
        temp = payloads[(model, "TEMP")]
        baselines = [payload["throughput"]
                     for (other, system), payload in payloads.items()
                     if other == model and system != "TEMP"
                     and not payload["oom"]]
        ratios.append(temp["throughput"] / max(baselines))
    return calib.geomean(ratios)


def fidelity_line(speedup: float) -> None:
    """Print TEMP's modelled speedup next to the paper's."""
    gap = speedup / PAPER_SPEEDUP - 1.0
    print(f"  fidelity: temp_speedup={speedup:.4f} vs the paper's "
          f"{PAPER_SPEEDUP}x average ({gap:+.1%}); modelled throughput "
          "only, not validated against real hardware")


def sim_tokens(payloads: Sequence[Dict[str, object]]) -> float:
    """Geomean modelled training throughput of the non-OOM plans."""
    return calib.geomean([payload["throughput"] for payload in payloads
                          if not payload["oom"] and payload["throughput"]])


def load_golden_fig13() -> Dict[tuple, Dict[str, object]]:
    """Rows of the reduced Fig. 13 golden, keyed by ``(model, system)``."""
    path = os.path.join(ROOT, "tests", "golden", "goldens", "fig13.json")
    with open(path) as handle:
        rows = json.load(handle)["rows"]
    return {(row["model"], row["system"]): row for row in rows}


def kernel_summary(kernels_ms: List[float]) -> None:
    """Print the raw calibration-kernel spread of a run."""
    print(f"  calibration kernel: median={calib.median(kernels_ms):.3f} ms "
          f"min={min(kernels_ms):.3f} max={max(kernels_ms):.3f} "
          f"(n={len(kernels_ms)}, reference {calib.C_REF_MS} ms)")
