"""Candidate pruning and the one rule that ends every search.

The search space of hybrid configurations grows combinatorially with the die
count (Challenge 3 of the paper). :func:`~repro.parallelism.baselines.candidate_specs`
enumerates it; :func:`prune_specs` drops configurations whose estimated
per-die footprint already exceeds the HBM capacity by a wide margin. Every
search (single-wafer baselines, DLWS finalists) then simulates the survivors
with :func:`simulate_with_fallback` and keeps what :func:`pick_best` picks:
the fastest fit, or the least-over-capacity candidate when none fits (the
paper's OOM bars).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.costmodel.tables import PlanCache
from repro.hardware.config import WaferConfig
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
from repro.workloads.models import ModelConfig

#: A simulation report (wafer or GPU cluster): it has ``oom`` and
#: ``step_time``, and :func:`pick_best` also reads ``memory_pressure``.
Report = TypeVar("Report")


def prune_specs(
    specs: Iterable[ParallelSpec],
    model: ModelConfig,
    wafer: WaferConfig,
    memory_margin: float = 1.5,
    plan_cache: Optional[PlanCache] = None,
) -> List[ParallelSpec]:
    """Drop configurations that cannot possibly fit in memory.

    Args:
        specs: candidate configurations.
        model: the model being trained.
        wafer: wafer configuration providing the per-die HBM capacity.
        memory_margin: configurations whose estimated footprint exceeds
            ``memory_margin x capacity`` are pruned outright (mildly
            over-capacity candidates are kept so the simulator can report them
            as OOM, matching how the paper presents OOM bars).
        plan_cache: shared execution-plan cache; callers that analyse the
            surviving specs again (finalist ranking, simulation) pass their
            cache here so every plan is derived exactly once. A private cache
            is used when omitted.

    Returns:
        The surviving configurations, in the original order.
    """
    if memory_margin <= 0:
        raise ValueError(f"memory_margin must be positive, got {memory_margin}")
    # Explicit None check: an empty PlanCache is falsy (it has __len__).
    if plan_cache is None:
        plan_cache = PlanCache()
    capacity = wafer.die.hbm.capacity
    survivors: List[ParallelSpec] = []
    for spec in specs:
        plan = plan_cache.analyze(model, spec)
        if plan.memory.total <= capacity * memory_margin:
            survivors.append(spec)
            continue
        # A configuration may still become feasible once activation
        # checkpointing is enabled; keep it if the checkpointed footprint is
        # within the margin.
        checkpointed = plan_cache.analyze(
            model, spec, activation_checkpointing=True)
        if checkpointed.memory.total <= capacity * memory_margin:
            survivors.append(spec)
    return survivors


def simulate_with_fallback(
    simulate_plan: Callable[[ExecutionPlan], Report],
    plan_cache: PlanCache,
    model: ModelConfig,
    spec: ParallelSpec,
    num_devices: int,
    allow_checkpointing: bool,
) -> Report:
    """Simulate one spec, retrying with activation checkpointing on OOM.

    ``simulate_plan(plan)`` is the platform's simulator (a wafer or the GPU
    cluster); the checkpointed report replaces the first one only when it
    fits in memory.
    """
    plan = plan_cache.analyze(model, spec, num_devices=num_devices)
    report = simulate_plan(plan)
    if report.oom and allow_checkpointing:
        checkpointed = simulate_plan(plan_cache.analyze(
            model, spec, num_devices=num_devices,
            activation_checkpointing=True))
        if not checkpointed.oom:
            report = checkpointed
    return report


def pick_best(
    specs: Sequence[ParallelSpec],
    simulate: Callable[[ParallelSpec], Report],
) -> Tuple[Optional[ParallelSpec], Optional[Report], bool, Dict[str, Report]]:
    """Simulate every spec and pick the winner.

    The fastest report that fits in memory wins. When every report is OOM,
    the one with the lowest ``memory_pressure`` wins instead. Either way the
    earlier spec wins a tie.

    Returns:
        ``(spec, report, oom, reports)``: the winner, its report, whether it
        is OOM, and every report keyed by spec label. An empty ``specs``
        gives ``(None, None, True, {})``.
    """
    outcomes = [(spec, simulate(spec)) for spec in specs]
    reports = {spec.label(): report for spec, report in outcomes}
    # min keeps the first of equal keys: the earlier spec wins a tie.
    fitting = [outcome for outcome in outcomes if not outcome[1].oom]
    if fitting:
        spec, report = min(fitting, key=lambda outcome: outcome[1].step_time)
        return spec, report, False, reports
    if outcomes:
        spec, report = min(outcomes,
                           key=lambda outcome: outcome[1].memory_pressure)
        return spec, report, True, reports
    return None, None, True, reports
