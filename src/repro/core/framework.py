"""The baseline evaluation engine behind the Scenario API.

:func:`run_baseline_scenario` is the engine room of
:meth:`repro.api.PlanService.evaluate` for single-wafer searches: it
consumes a :class:`~repro.api.scenario.Scenario`, enumerates the scheme's
candidate configurations, simulates each with the requested mapping engine,
and keeps the best-performing configuration that does not run out of memory
(reporting the OOM if none fits). :func:`simulate_fixed_spec` is the
no-search variant for scenarios that pin one :class:`ParallelSpec`.

Both take a ``simulate(spec, allow_checkpointing)`` callable instead of a
simulator, which the plan service binds to its shared wafer and plan cache;
:func:`~repro.solver.search_space.simulate_with_fallback` is the computation
behind it, and :func:`~repro.solver.search_space.pick_best` the rule that
picks the winner.
The TEMP framework itself (TATP + TCME + DLWS, with its +TATP / +TCME
ablation switches) is a scenario too: see
:meth:`~repro.api.scenario.SolverSpec.for_framework`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.costmodel.tables import PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.simulation.simulator import SimulationReport
from repro.solver.search_space import pick_best, prune_specs
from repro.workloads.models import ModelConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario

#: ``simulate(spec, allow_checkpointing) -> report`` for one scenario's
#: model, wafer, simulator knobs, and mapping engine.
Simulate = Callable[[ParallelSpec, bool], SimulationReport]


@dataclass
class BaselineResult:
    """Best configuration found for one (scheme, mapping engine) pair."""

    scheme: BaselineScheme
    engine: str
    model: ModelConfig
    best_spec: Optional[ParallelSpec]
    report: Optional[SimulationReport]
    oom: bool
    candidates_evaluated: int
    all_reports: Dict[str, SimulationReport] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Readable label like "mesp+gmap" used in figures."""
        return f"{self.scheme.value}+{self.engine}"


def scheme_max_tp(scheme: BaselineScheme, model: ModelConfig) -> int:
    """The tensor-parallel cap a scheme's recipe allows on ``model``.

    Megatron recipes keep the tensor-parallel degree within one
    high-bandwidth group of 8; TEMP's own space may push TP (and TATP)
    further.
    """
    if scheme in (BaselineScheme.MEGATRON1, BaselineScheme.MESP):
        return min(8, model.num_heads)
    return min(32, model.num_heads)


def run_baseline_scenario(
    scenario: "Scenario",
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
    simulate: Simulate,
) -> BaselineResult:
    """Run the single-wafer baseline search described by ``scenario``.

    Every candidate configuration of the scheme is analysed and simulated
    on ``wafer``; the fastest configuration that fits in memory wins. When
    no configuration fits, the result is flagged OOM and carries the
    least-over-capacity report (this is how the OOM bars of Fig. 13 are
    produced). ``plan_cache`` shares memoised ``analyze_model`` results
    across evaluations; it is pure memoisation, so results are identical
    with a private or a shared cache.
    """
    solver = scenario.solver
    scheme = solver.resolved_scheme()
    engine = solver.engine
    model = scenario.workload.resolve()
    num_devices = wafer.num_dies
    # Pruning and the simulation loop below analyse the same specs; the plan
    # cache derives each execution plan exactly once.
    with span("evaluate.candidates", scheme=scheme.value):
        all_specs = candidate_specs(
            scheme, num_devices,
            max_tp=scheme_max_tp(scheme, model),
            max_tatp=solver.max_tatp,
            pipeline_degrees=solver.pipeline_degrees,
        )
        specs = prune_specs(all_specs, model, wafer.config, memory_margin=2.0,
                            plan_cache=plan_cache)
        if not specs and all_specs:
            # Every configuration is hopelessly over capacity (e.g. Megatron-1
            # on a 175B model); keep the least-infeasible one so the OOM bar
            # can still be reported.
            specs = [min(
                all_specs,
                key=lambda s: plan_cache.analyze(
                    model, s, num_devices=num_devices).memory.total)]
        max_candidates = solver.max_candidates
        if max_candidates is not None and len(specs) > max_candidates:
            specs = downsample_specs(specs, max_candidates)

    # Full activation recomputation is part of every scheme's toolbox except
    # Megatron-1's, whose replication-reliant execution the paper evaluates
    # with its published (selective-recompute-only) recipe.
    allow_checkpointing = scheme is not BaselineScheme.MEGATRON1

    with span("evaluate.simulate", candidates=len(specs)):
        best_spec, report, oom, reports = pick_best(
            specs, lambda spec: simulate(spec, allow_checkpointing))
    return BaselineResult(
        scheme=scheme, engine=engine, model=model, best_spec=best_spec,
        report=report, oom=oom, candidates_evaluated=len(specs),
        all_reports=reports)


def simulate_fixed_spec(scenario: "Scenario",
                        simulate: Simulate) -> BaselineResult:
    """Evaluate the one pinned configuration of a fixed-spec scenario.

    No search happens: the solver spec's ``fixed_spec`` is analysed and
    simulated as-is (with the usual activation-checkpointing retry on OOM,
    unless the scenario disables ``allow_checkpoint_fallback``).
    """
    solver = scenario.solver
    spec = solver.resolve_fixed_spec()
    with span("evaluate.simulate", spec=spec.label()):
        report = simulate(spec, solver.allow_checkpoint_fallback)
    return BaselineResult(
        scheme=solver.resolved_scheme(),
        engine=solver.engine,
        model=scenario.workload.resolve(),
        best_spec=spec,
        report=report,
        oom=report.oom,
        candidates_evaluated=1,
        all_reports={spec.label(): report},
    )


def downsample_specs(specs: List[ParallelSpec], limit: int) -> List[ParallelSpec]:
    """Evenly subsample a candidate list while keeping both endpoints."""
    if limit >= len(specs):
        return specs
    if limit == 1:
        return [specs[0]]
    # Spread limit indices over [0, len-1] inclusive; the stride is >= 1
    # (limit < len), so the rounded indices are strictly increasing and the
    # last one lands exactly on len(specs) - 1.
    stride = (len(specs) - 1) / (limit - 1)
    return [specs[min(round(index * stride), len(specs) - 1)]
            for index in range(limit)]
