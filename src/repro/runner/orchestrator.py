"""The sweep orchestrator: grid → cells → (parallel) execution → manifest.

A figure's grid is expanded into cells (one dict of parameters each) and the
cells are executed either in-process (``jobs=1``) or across a
``concurrent.futures.ProcessPoolExecutor``. Each worker process builds one
:class:`~repro.runner.context.RunContext` in its initializer, so every cell
the worker executes shares a single :class:`~repro.api.service.PlanService`
(plan cache, wafer and cost-table memos) instead of re-deriving execution
plans per cell.

Determinism contract: cells are independent and the service's state is a
pure memoisation layer, so the manifest ``rows`` of a parallel run are
bit-identical to a serial run — results are collected in grid order
regardless of completion order. ``tests/runner/test_orchestrator.py`` pins
this for a real figure.
"""

from __future__ import annotations

import copy
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import __version__
from repro.obs.tracing import (configure_tracing, get_tracer, span,
                               tracing_enabled)
from repro.runner.context import RunContext
from repro.runner.manifest import MANIFEST_VERSION, finite, write_manifest
from repro.runner.registry import Experiment, get_experiment
from repro.server.resilience import is_retryable_exception

#: Per-process context of pool workers (created by :func:`_init_worker`).
_WORKER_CONTEXT: Optional[RunContext] = None


@dataclass
class CellOutcome:
    """Execution record of one grid cell.

    ``cache_stats``/``pid`` snapshot the executing process's plan-cache
    counters right after the cell: counters are cumulative per process, so
    the manifest aggregation keeps the *last* snapshot per pid and sums
    across pids — giving fleet-wide hit rates under ``--jobs > 1`` instead
    of just the parent's (historically empty) counters.
    """

    params: Dict[str, object]
    rows: List[Dict[str, object]]
    wall_seconds: float
    oom_rows: int
    error: Optional[str] = None
    retries: int = 0
    cache_stats: Optional[Dict[str, int]] = None
    pid: int = 0
    # Buffered span records drained from a pool worker's tracer; the parent
    # re-emits them into its own sink so one --trace file covers the fleet.
    spans: Optional[List[Dict[str, object]]] = None


def execute_cell(
    experiment: Experiment, params: Dict[str, object], ctx: RunContext,
    max_retries: int = 1,
) -> CellOutcome:
    """Run one cell and account for its wall time and OOM rows.

    A raising cell is retried up to ``max_retries`` times when the failure
    classifies as *retryable* under the server resilience taxonomy (a
    transient infrastructure hiccup, not a deterministic evaluation error);
    still-failing and terminal cells are recorded (traceback in ``error``)
    instead of aborting the sweep — the manifest validator and the CLI
    surface them. Cells are deterministic, so a retried success is
    bit-identical to a first-try success and serial≡parallel row parity is
    unaffected.
    """
    start = time.perf_counter()
    rows: List[Dict[str, object]] = []
    error = None
    attempts = 0
    # Chaos/unit harnesses drive cells with stub experiments lacking ids.
    with span("runner.cell", figure=getattr(experiment, "figure", "?"),
              params=dict(params)):
        while True:
            attempts += 1
            try:
                raw_rows = experiment.cell(ctx, **params)
                rows = [finite({**params, **row}) for row in raw_rows]
                error = None
                break
            except Exception as exc:
                rows = []
                error = traceback.format_exc(limit=8)
                if attempts <= max_retries and is_retryable_exception(exc):
                    continue
                break
    wall = time.perf_counter() - start
    oom_rows = sum(1 for row in rows if row.get("oom"))
    # Chaos/unit harnesses drive cells with a stub context; they simply
    # contribute no cache snapshot.
    service = getattr(ctx, "service", None)
    return CellOutcome(params=params, rows=rows, wall_seconds=wall,
                       oom_rows=oom_rows, error=error, retries=attempts - 1,
                       cache_stats=(service.plan_cache.stats()
                                    if service is not None else None),
                       pid=os.getpid())


def _init_worker(reduced: bool, trace: bool = False) -> None:
    """Pool initializer: one shared RunContext per worker process."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = RunContext(reduced=reduced)
    if trace:
        # Workers buffer spans in memory; each cell's batch rides back on
        # the CellOutcome and the parent re-emits it into the trace file.
        configure_tracing(buffered=True)


def _run_cell_in_worker(figure: str, params: Dict[str, object],
                        reduced: bool) -> CellOutcome:
    """Top-level (picklable) pool task: execute one cell of ``figure``."""
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None:
        _WORKER_CONTEXT = RunContext(reduced=reduced)
    outcome = execute_cell(get_experiment(figure), params, _WORKER_CONTEXT)
    if tracing_enabled():
        outcome.spans = get_tracer().drain()
    return outcome


def run_experiment(
    figure: str,
    reduced: bool = False,
    jobs: int = 1,
    output_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    context: Optional[RunContext] = None,
) -> Dict:
    """Run one figure's grid and build (optionally write) its manifest.

    Args:
        figure: registered figure id (e.g. ``"fig19"``).
        reduced: use the reduced grid instead of the paper-fidelity one.
        jobs: worker processes; ``1`` executes in-process.
        output_dir: when given, the manifest is written to
            ``<output_dir>/<figure>.json``.
        progress: optional callback receiving one line per completed cell.
        pool: optional externally-owned executor (see :func:`run_all`); its
            workers keep their plan caches warm across figures, so grids
            sharing evaluations (e.g. Figs. 13/14) don't re-derive plans.
        context: optional shared context for the serial path, same purpose.

    Returns:
        The manifest dict (identical to what is written to disk).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    experiment = get_experiment(figure)
    cells = experiment.cells(reduced)

    start = time.perf_counter()
    if (jobs == 1 or len(cells) <= 1) and pool is None:
        ctx = context if context is not None else RunContext(reduced=reduced)
        outcomes = []
        for params in cells:
            outcome = execute_cell(experiment, params, ctx)
            outcomes.append(outcome)
            _report(progress, figure, outcome)
    else:
        owns_pool = pool is None
        if owns_pool:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(cells)),
                initializer=_init_worker,
                initargs=(reduced, tracing_enabled()),
            )
        try:
            # executor.map preserves submission order, so rows come back in
            # grid order and match a serial run exactly.
            outcomes = []
            for outcome in pool.map(
                _run_cell_in_worker,
                [figure] * len(cells), cells, [reduced] * len(cells),
            ):
                if outcome.spans:
                    tracer = get_tracer()
                    for record in outcome.spans:
                        tracer.emit(record)
                    outcome.spans = None
                outcomes.append(outcome)
                _report(progress, figure, outcome)
        finally:
            if owns_pool:
                pool.shutdown()
    total_seconds = time.perf_counter() - start

    manifest = _build_manifest(experiment, outcomes, reduced=reduced,
                               jobs=jobs, total_seconds=total_seconds)
    if output_dir is not None:
        write_manifest(manifest, output_dir)
    return manifest


@contextmanager
def sweep_resources(jobs: int, reduced: bool):
    """Worker pool (``jobs > 1``) or shared serial context for a sweep.

    Yields ``(pool, context)`` — exactly one of the two is not ``None``.
    Sharing them across several ``run_experiment`` calls keeps the
    per-worker plan caches warm between figures that evaluate the same
    (model, spec) cells — e.g. Fig. 14 reads power off the same searches
    Fig. 13 reads latency off.
    """
    if jobs > 1:
        pool = ProcessPoolExecutor(max_workers=jobs,
                                   initializer=_init_worker,
                                   initargs=(reduced, tracing_enabled()))
        try:
            yield pool, None
        finally:
            pool.shutdown()
    else:
        yield None, RunContext(reduced=reduced)


def run_all(
    figures: Optional[List[str]] = None,
    reduced: bool = False,
    jobs: int = 1,
    output_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict]:
    """Run several figures (all registered ones by default) in id order."""
    from repro.runner.registry import figure_ids

    targets = list(figures) if figures is not None else figure_ids()
    manifests: Dict[str, Dict] = {}
    with sweep_resources(jobs, reduced) as (pool, context):
        for figure in targets:
            manifests[figure] = run_experiment(
                figure, reduced=reduced, jobs=jobs, output_dir=output_dir,
                progress=progress, pool=pool, context=context)
    return manifests


def _report(progress: Optional[Callable[[str], None]], figure: str,
            outcome: CellOutcome) -> None:
    if progress is None:
        return
    status = "FAILED" if outcome.error else (
        f"{len(outcome.rows)} rows"
        + (f", {outcome.oom_rows} OOM" if outcome.oom_rows else ""))
    params = ", ".join(f"{k}={v}" for k, v in outcome.params.items())
    progress(f"  [{figure}] {params}: {status} ({outcome.wall_seconds:.2f}s)")


def aggregate_cache_stats(outcomes: List[CellOutcome]) -> Dict[str, object]:
    """Fleet-wide plan-cache counters from per-cell snapshots.

    Counters are cumulative within a process, so only the last snapshot of
    each pid contributes; sums across pids are the whole fleet's totals.
    The parent process of a pooled run executes no cells, so its (empty)
    counters rightly never appear.
    """
    latest: Dict[int, Dict[str, int]] = {}
    for outcome in outcomes:
        if outcome.cache_stats is not None:
            latest[outcome.pid] = outcome.cache_stats
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for snapshot in latest.values():
        for key in totals:
            totals[key] += int(snapshot.get(key, 0))
    lookups = totals["hits"] + totals["misses"]
    return {
        "processes": len(latest),
        **totals,
        "hit_rate": round(totals["hits"] / lookups, 4) if lookups else 0.0,
    }


def _build_manifest(
    experiment: Experiment,
    outcomes: List[CellOutcome],
    reduced: bool,
    jobs: int,
    total_seconds: float,
) -> Dict:
    cell_seconds = [outcome.wall_seconds for outcome in outcomes]
    return {
        "version": MANIFEST_VERSION,
        "repro_version": __version__,
        "figure": experiment.figure,
        "paper": experiment.paper,
        "title": experiment.title,
        "module": experiment.module,
        "reduced": reduced,
        "jobs": jobs,
        # Deep-copied: the manifest must not alias the registry's grid.
        "grid": copy.deepcopy(experiment.grid(reduced)),
        "schema": list(experiment.schema),
        "cells": [
            {
                "params": outcome.params,
                "wall_seconds": round(outcome.wall_seconds, 6),
                "num_rows": len(outcome.rows),
                "oom_rows": outcome.oom_rows,
                "error": outcome.error,
            }
            for outcome in outcomes
        ],
        "rows": [row for outcome in outcomes for row in outcome.rows],
        "plan_cache": aggregate_cache_stats(outcomes),
        "timings": {
            "total_seconds": round(total_seconds, 6),
            "max_cell_seconds": round(max(cell_seconds), 6) if cell_seconds else 0.0,
            "mean_cell_seconds": (
                round(sum(cell_seconds) / len(cell_seconds), 6)
                if cell_seconds else 0.0),
        },
    }
