"""The portfolio sweep engine: scenario families through the plan scheduler.

This is the batch backbone of the plan server. A
:class:`~repro.api.portfolio.Portfolio` expands into ordered points; the
engine de-duplicates them via :meth:`Scenario.cache_key
<repro.api.scenario.Scenario.cache_key>` and streams the unique scenarios
through an existing :class:`~repro.server.scheduler.PlanScheduler` — so the
in-flight dedup map, the hardware-spec grouping, the warm worker pool, and
the cross-restart :class:`~repro.server.store.ResultStore` are all reused
for free. Every point gets its own :class:`PointOutcome` (duplicates share
the payload of one evaluation).

Three front ends drive it:

* :func:`run_portfolio_local` — ``repro sweep <name>`` without a server:
  spins up a private scheduler for the sweep's lifetime.
* :class:`PortfolioManager` — ``POST /v1/portfolio`` on the HTTP server:
  one polled job per submitted portfolio, with incremental progress
  counters while the sweep runs.
* :func:`build_sweep_manifest` — turns the outcomes into a
  ``results/<figure>.json`` manifest compatible with
  :mod:`repro.runner.manifest` (validated by ``repro check`` and pinned
  row-identical to the orchestrator path for registered portfolios).
"""

from __future__ import annotations

import asyncio
import copy
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional

from repro import __version__
from repro.api.portfolio import Portfolio, PortfolioError, PortfolioPoint
from repro.obs.tracing import span
from repro.server.resilience import RetryPolicy
from repro.server.scheduler import PlanRequestError, PlanScheduler

#: Default cap on points one portfolio may expand to (server guard).
MAX_POINTS = 4096

#: Finished jobs kept for polling before the oldest are evicted.
MAX_FINISHED_JOBS = 64

#: Default shed-retry policy of sweeps: a sweep is a batch producer, so it
#: backs off patiently when admission control pushes back.
SWEEP_RETRY = RetryPolicy(max_attempts=6, base_delay=0.05, max_delay=1.0)


@dataclass
class PointOutcome:
    """Served result of one portfolio point.

    ``source`` is the scheduler trace (``store`` / ``inflight`` /
    ``evaluated``) of the point's unique scenario, ``"duplicate"`` when the
    point shared another point's evaluation, or ``"failed"`` when the
    request could not be served at all (payload is then a structured
    ``{"error": ...}`` document).
    """

    index: int
    params: Dict[str, object]
    payload: Dict[str, object]
    source: str
    wall_seconds: float
    key: str


async def sweep_portfolio(
    scheduler: PlanScheduler,
    portfolio: Portfolio,
    points: Optional[List[PortfolioPoint]] = None,
    on_unique: Optional[Callable[[int, int, PointOutcome], None]] = None,
    max_points: Optional[int] = MAX_POINTS,
    retry: Optional[RetryPolicy] = None,
    max_concurrency: Optional[int] = None,
) -> List[PointOutcome]:
    """Serve every point of ``portfolio`` through ``scheduler``.

    Args:
        scheduler: a started :class:`PlanScheduler` (owned by the caller).
        portfolio: the family to sweep.
        points: pre-expanded points (skips re-expansion when the caller
            already validated them).
        on_unique: optional callback invoked after each *unique* scenario
            resolves, with ``(completed_unique, total_unique, outcome)`` —
            the incremental-progress hook of the HTTP job and the CLI.
        max_points: expansion cap (``None`` disables it).
        retry: backoff policy for points shed by admission control
            (defaults to :data:`SWEEP_RETRY`); a point still shed after it
            is exhausted becomes a ``"failed"`` outcome.
        max_concurrency: optional cap on simultaneously submitted unique
            points — the sweep's own backpressure valve. Defaults to the
            scheduler's ``max_queue`` when one is set, so a sweep never
            floods its own admission controller.

    Returns:
        One :class:`PointOutcome` per point, in point order. Per-scenario
        failures come back as structured error payloads; only a scheduler
        shutdown or an exhausted shed-retry mid-sweep surfaces as error
        payloads with source ``"failed"``. The call itself does not raise
        for bad scenarios.
    """
    if points is None:
        points = portfolio.expand(max_points=max_points)
    if retry is None:
        retry = SWEEP_RETRY
    if max_concurrency is None:
        max_concurrency = scheduler.max_queue
    gate = (asyncio.Semaphore(max_concurrency)
            if max_concurrency is not None else None)
    unique: Dict[str, List[PortfolioPoint]] = {}
    for point in points:
        unique.setdefault(point.cache_key(), []).append(point)
    total = len(unique)
    completed = 0

    async def _submit(scenario) -> tuple:
        attempt = 0
        while True:
            try:
                return await scheduler.submit_traced(scenario)
            except PlanRequestError as error:
                # Shed points back off and re-enter; everything else
                # (shutdown, deadline) is final for this point.
                attempt += 1
                if (error.kind != "overloaded"
                        or attempt >= retry.max_attempts):
                    return error.payload, "failed"
                await asyncio.sleep(retry.delay(attempt))

    async def _serve(key: str) -> Dict[str, object]:
        nonlocal completed
        first = unique[key][0]
        start = time.perf_counter()
        with span("sweep.point", cache_key=key, fanout=len(unique[key])):
            if gate is not None:
                async with gate:
                    payload, source = await _submit(first.scenario)
            else:
                payload, source = await _submit(first.scenario)
        wall = time.perf_counter() - start
        outcome = PointOutcome(
            index=first.index, params=first.params, payload=payload,
            source=source, wall_seconds=wall, key=key)
        completed += 1
        if on_unique is not None:
            on_unique(completed, total, outcome)
        return {"payload": payload, "source": source, "wall": wall}

    served = dict(zip(unique, await asyncio.gather(
        *(_serve(key) for key in unique))))

    outcomes: List[PointOutcome] = []
    seen_keys: set = set()
    for point in points:
        key = point.cache_key()
        result = served[key]
        duplicate = key in seen_keys
        seen_keys.add(key)
        outcomes.append(PointOutcome(
            index=point.index,
            params=point.params,
            payload=copy.deepcopy(result["payload"]),
            source="duplicate" if duplicate else result["source"],
            # A duplicate point cost nothing: its evaluation's wall time is
            # accounted to the first point sharing the key, so manifest
            # cell timings stay comparable to the orchestrator's.
            wall_seconds=0.0 if duplicate else result["wall"],
            key=key,
        ))
    return outcomes


def run_portfolio_local(
    portfolio: Portfolio,
    jobs: int = 1,
    store=None,
    batch_window: float = 0.005,
    max_batch: int = 16,
    points: Optional[List[PortfolioPoint]] = None,
    on_unique: Optional[Callable[[int, int, PointOutcome], None]] = None,
    max_points: Optional[int] = MAX_POINTS,
) -> List[PointOutcome]:
    """Sweep ``portfolio`` on a private scheduler (the offline CLI path).

    ``jobs``/``store``/``batch_window``/``max_batch`` configure the
    short-lived :class:`PlanScheduler` exactly like ``repro serve`` would;
    ``points`` skips re-expansion when the caller already holds them. The
    scheduler's service (one per pool worker with ``jobs > 1``) shares
    wafers with their routes, and solver cost tables, across the points it
    evaluates.
    """
    if points is None:
        points = portfolio.expand(max_points=max_points)

    async def _run() -> List[PointOutcome]:
        async with PlanScheduler(store=store, jobs=jobs,
                                 batch_window=batch_window,
                                 max_batch=max_batch) as scheduler:
            return await sweep_portfolio(
                scheduler, portfolio, points=points, on_unique=on_unique,
                max_points=max_points)

    return asyncio.run(_run())


# Manifest building ---------------------------------------------------------------


def default_row(params: Mapping[str, object],
                payload: Mapping[str, object]) -> Dict[str, object]:
    """Ad-hoc row mapper: the whole result payload (minus param collisions).

    Used when a portfolio mirrors no registered figure: the row is the
    point's params merged with every :class:`PlanResult` field.
    """
    return {key: value for key, value in payload.items()
            if key not in params}


def _default_schema(portfolio: Portfolio) -> List[str]:
    """Row columns of an ad-hoc sweep manifest (params + PlanResult)."""
    from repro.api.service import PlanResult

    param_names = [axis.name for axis in portfolio.axes if axis.record]
    return param_names + [
        result_field.name for result_field in fields(PlanResult)
        if result_field.name not in param_names]


def build_sweep_manifest(
    portfolio: Portfolio,
    outcomes: List[PointOutcome],
    reduced: bool = False,
    jobs: int = 1,
    total_seconds: float = 0.0,
    mode: str = "local",
    experiment=None,
    row_builder: Optional[Callable[[Mapping, Mapping],
                                   Dict[str, object]]] = None,
) -> Dict[str, object]:
    """The sweep's ``results/<figure>.json`` manifest document.

    For a registered portfolio (``experiment`` given), the manifest borrows
    the figure's identity and schema and its rows are pinned row-identical
    to ``repro run <figure>``; otherwise the identity is the portfolio's own
    and the schema is params + the :class:`PlanResult` fields.

    Error payloads become failed cells (``error`` set, no row) — the same
    accounting :mod:`repro.runner.orchestrator` gives a raising cell, so
    :func:`repro.runner.manifest.validate_manifest` surfaces them.
    """
    from repro.runner.manifest import MANIFEST_VERSION, finite

    if row_builder is None:
        row_builder = default_row
    cells: List[Dict[str, object]] = []
    rows: List[Dict[str, object]] = []
    source_counts: Dict[str, int] = {}
    for outcome in outcomes:
        source_counts[outcome.source] = \
            source_counts.get(outcome.source, 0) + 1
        error = None
        cell_rows: List[Dict[str, object]] = []
        if "error" in outcome.payload:
            error = str(outcome.payload["error"].get("message",
                                                     outcome.payload["error"]))
        else:
            cell_rows.append(finite({**outcome.params,
                                     **row_builder(outcome.params,
                                                   outcome.payload)}))
        cells.append({
            "params": dict(outcome.params),
            "wall_seconds": round(outcome.wall_seconds, 6),
            "num_rows": len(cell_rows),
            "oom_rows": sum(1 for row in cell_rows if row.get("oom")),
            "error": error,
        })
        rows.extend(cell_rows)

    if experiment is not None:
        identity = {
            "figure": experiment.figure,
            "paper": experiment.paper,
            "title": experiment.title,
            "module": experiment.module,
        }
        schema = list(experiment.schema)
    else:
        identity = {
            "figure": portfolio.name,
            "paper": "portfolio",
            "title": portfolio.description or portfolio.describe(),
            "module": "repro.api.portfolio",
        }
        schema = _default_schema(portfolio)

    cell_seconds = [cell["wall_seconds"] for cell in cells]
    return {
        "version": MANIFEST_VERSION,
        "repro_version": __version__,
        **identity,
        "reduced": reduced,
        "jobs": jobs,
        "grid": [dict(outcome.params) for outcome in outcomes],
        "schema": schema,
        "cells": cells,
        "rows": rows,
        "timings": {
            "total_seconds": round(total_seconds, 6),
            "max_cell_seconds": (round(max(cell_seconds), 6)
                                 if cell_seconds else 0.0),
            "mean_cell_seconds": (
                round(sum(cell_seconds) / len(cell_seconds), 6)
                if cell_seconds else 0.0),
        },
        "sweep": {
            "portfolio": portfolio.name,
            "expansion": portfolio.expansion,
            "mode": mode,
            "points": len(outcomes),
            "unique": len({outcome.key for outcome in outcomes}),
            "sources": source_counts,
        },
    }


# HTTP job management -------------------------------------------------------------


class PortfolioJob:
    """One polled portfolio sweep running on the server."""

    def __init__(self, job_id: str, portfolio: Portfolio,
                 points: List[PortfolioPoint]) -> None:
        self.id = job_id
        self.portfolio = portfolio
        self.points = points
        self.unique = len({point.cache_key() for point in points})
        self.completed = 0
        self.status = "running"
        self.error: Optional[str] = None
        self.outcomes: Optional[List[PointOutcome]] = None
        self.started = time.perf_counter()
        self.elapsed_seconds = 0.0
        self.task: Optional[asyncio.Task] = None

    def on_unique(self, completed: int, total: int,
                  outcome: PointOutcome) -> None:
        self.completed = completed

    def finish(self, outcomes: List[PointOutcome]) -> None:
        self.outcomes = outcomes
        self.status = "done"
        self.elapsed_seconds = time.perf_counter() - self.started

    def fail(self, message: str) -> None:
        self.error = message
        self.status = "failed"
        self.elapsed_seconds = time.perf_counter() - self.started

    def summary(self) -> Dict[str, object]:
        """The progress document (one poll's worth of state)."""
        elapsed = (self.elapsed_seconds if self.status != "running"
                   else time.perf_counter() - self.started)
        document: Dict[str, object] = {
            "job": self.id,
            "portfolio": self.portfolio.name,
            "status": self.status,
            "points": len(self.points),
            "unique": self.unique,
            "completed": self.completed,
            "elapsed_seconds": round(elapsed, 6),
        }
        if self.error is not None:
            document["error"] = self.error
        return document

    def status_document(self) -> Dict[str, object]:
        """The full poll response (results attached once done)."""
        document = self.summary()
        if self.outcomes is not None:
            document["params"] = [dict(outcome.params)
                                  for outcome in self.outcomes]
            document["results"] = [copy.deepcopy(outcome.payload)
                                   for outcome in self.outcomes]
            document["sources"] = [outcome.source
                                   for outcome in self.outcomes]
            document["wall_seconds"] = [round(outcome.wall_seconds, 6)
                                        for outcome in self.outcomes]
            document["errors"] = sum(1 for outcome in self.outcomes
                                     if "error" in outcome.payload)
        return document


class PortfolioManager:
    """The ``/v1/portfolio`` job table of one :class:`PlanServer`.

    Jobs run as asyncio tasks over the server's shared scheduler; finished
    jobs stay pollable until :data:`MAX_FINISHED_JOBS` newer ones evict
    them. ``close()`` waits for running sweeps (their requests are already
    in the scheduler, which drains on close anyway).
    """

    def __init__(self, scheduler: PlanScheduler,
                 max_points: int = MAX_POINTS,
                 max_finished_jobs: int = MAX_FINISHED_JOBS) -> None:
        self.scheduler = scheduler
        self.max_points = max_points
        self.max_finished_jobs = max_finished_jobs
        self._jobs: Dict[str, PortfolioJob] = {}
        self._next_id = 1

    def start_job(self, document: object) -> Dict[str, object]:
        """Parse, expand, and launch one portfolio sweep.

        Raises:
            PlanRequestError: on a malformed document or an over-cap
                expansion (structured 400 payload, never a traceback).
        """
        try:
            portfolio = Portfolio.from_dict(document)
            points = portfolio.expand(max_points=self.max_points)
        except PortfolioError as error:
            raise PlanRequestError(str(error),
                                   kind="PortfolioError") from None
        job_id = f"sweep-{self._next_id}"
        self._next_id += 1
        job = PortfolioJob(job_id, portfolio, points)
        self._jobs[job_id] = job
        job.task = asyncio.create_task(self._run(job))
        self._evict_finished()
        return job.summary()

    async def _run(self, job: PortfolioJob) -> None:
        try:
            outcomes = await sweep_portfolio(
                self.scheduler, job.portfolio, points=job.points,
                on_unique=job.on_unique, max_points=None)
            job.finish(outcomes)
        except Exception as error:  # defensive: a bug must not hang pollers
            job.fail(f"{type(error).__name__}: {error}")

    def get(self, job_id: str) -> Dict[str, object]:
        """The poll response of one job.

        Raises:
            PlanRequestError: (404) for an unknown or evicted job id.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise PlanRequestError(f"no portfolio job {job_id!r}",
                                   kind="not_found", status=404)
        return job.status_document()

    def jobs(self) -> Dict[str, object]:
        """Summaries of every known job (the ``GET /v1/portfolio`` body)."""
        return {"jobs": [job.summary() for job in self._jobs.values()]}

    def stats(self) -> Dict[str, object]:
        """Counter snapshot folded into ``GET /metrics``."""
        by_status: Dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {"jobs": len(self._jobs), **by_status}

    def _evict_finished(self) -> None:
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.status != "running"]
        excess = len(finished) - self.max_finished_jobs
        for job_id in finished[:max(excess, 0)]:
            del self._jobs[job_id]

    async def close(self) -> None:
        """Wait for every running sweep to settle (idempotent)."""
        tasks = [job.task for job in self._jobs.values()
                 if job.task is not None and not job.task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
