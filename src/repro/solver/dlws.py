"""The Dual-Level Wafer Solver (DLWS).

DLWS orchestrates the full search for one model on one wafer:

1. enumerate and prune candidate configurations (:func:`candidate_specs`,
   :func:`~repro.solver.search_space.prune_specs`),
2. build the representative-layer compute graph and cut it at residual-free
   boundaries,
3. run the dynamic program to get a strong per-operator assignment,
4. refine it with the genetic algorithm,
5. evaluate the best whole-model configurations through the full simulator and
   return the winner (:func:`~repro.solver.search_space.pick_best`) together
   with its simulation report.

Steps 3-4 use the fast analytical/learned cost model; only a handful of
finalists reach the simulator, which is how the solver stays ~200x faster than
exhaustive/ILP search while matching its quality.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.costmodel.tables import CostTables, PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.dp import optimize_segments
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import pick_best, prune_specs, simulate_with_fallback
from repro.workloads.models import ModelConfig
from repro.workloads.transformer import representative_layer_graph

#: ``(model, candidates) -> CostTables``: where a solve gets its cost tables.
TablesProvider = Callable[[ModelConfig, Sequence[ParallelSpec]], CostTables]


def build_cost_tables(
    wafer: WaferScaleChip,
    config: SimulatorConfig,
    model: ModelConfig,
    candidates: Sequence[ParallelSpec],
) -> CostTables:
    """Fresh cost tables of ``model``'s representative layer on ``wafer``.

    The fabric's analytic hop model prices the collectives: 1 on the default
    mesh, higher on fabrics whose canonical die groups cannot ring cheaply.
    """
    return CostTables(
        representative_layer_graph(model), list(candidates), wafer.config,
        config, hop_factor=wafer.topology.collective_hop_factor())


@dataclass
class SolverResult:
    """Outcome of one DLWS run."""

    model: ModelConfig
    best_spec: ParallelSpec
    best_report: SimulationReport
    candidates_considered: int
    finalists_simulated: int
    dp_cost: float
    ga_cost: float
    search_seconds: float
    evaluations: int
    reports: Dict[str, SimulationReport] = field(default_factory=dict)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0


class DualLevelWaferSolver:
    """Search for the optimal hybrid configuration of a model on a wafer."""

    def __init__(
        self,
        wafer: Optional[WaferScaleChip] = None,
        config: Optional[SimulatorConfig] = None,
        genetic_config: Optional[GeneticConfig] = None,
        num_finalists: int = 8,
        mapping_engine: str = "tcme",
        tables_provider: Optional[TablesProvider] = None,
    ) -> None:
        if num_finalists < 1:
            raise ValueError("num_finalists must be at least 1")
        self.wafer = wafer or WaferScaleChip()
        self.config = config or SimulatorConfig()
        self.genetic_config = genetic_config or GeneticConfig(generations=12,
                                                              population_size=16)
        self.num_finalists = num_finalists
        self.mapping_engine = mapping_engine
        # The plan service passes a provider that shares tables across
        # solves (PlanService._tables_for); alone, a solver builds its own.
        self.tables_provider = tables_provider or functools.partial(
            build_cost_tables, self.wafer, self.config)
        self.simulator = WaferSimulator(self.wafer, self.config)

    def solve(
        self,
        model: ModelConfig,
        scheme: BaselineScheme = BaselineScheme.TEMP,
        max_tatp: int = 32,
        pipeline_degrees: Sequence[int] = (1,),
    ) -> SolverResult:
        """Find the best configuration of ``model`` on this solver's wafer."""
        start = time.perf_counter()
        num_devices = self.wafer.num_dies
        # One plan cache per solve: pruning, finalist ranking, and finalist
        # simulation all share a single analyze_model result per (model, spec).
        plan_cache = PlanCache()
        with span("solver.prune"):
            candidates = candidate_specs(
                scheme, num_devices, max_tp=min(32, model.num_heads),
                max_tatp=max_tatp, pipeline_degrees=pipeline_degrees)
            pruned = prune_specs(candidates, model, self.wafer.config,
                                 plan_cache=plan_cache)
            if pruned:
                candidates = pruned

        # One set of vectorized cost tables feeds both solver levels. The
        # tables carry the representative graph they were built over (the
        # plan service's memo may hand back an earlier solve's), so the
        # solve adopts that graph too.
        with span("solver.tables", candidates=len(candidates)):
            tables = self.tables_provider(model, candidates)
            layer_graph = tables.graph

        # Level 1: dynamic program over the representative layer.
        with span("solver.dp", candidates=len(candidates)):
            dp_result = optimize_segments(
                layer_graph, candidates, self.wafer.config, self.config,
                memory_limit=self.wafer.config.die.hbm.capacity,
                tables=tables)

        # Level 2: genetic refinement of the DP assignment.
        with span("solver.ga",
                  generations=self.genetic_config.generations):
            refiner = GeneticRefiner(
                layer_graph, candidates, self.wafer.config, self.config,
                genetic_config=self.genetic_config, tables=tables)
            ga_result = refiner.refine(
                initial_assignment=dp_result.assignment)

        # Finalists: whole-model candidates ranked by the fast cost model, then
        # validated through the full simulator with the TCME mapping.
        finalists = self._select_finalists(model, candidates, plan_cache)
        simulate_plan = functools.partial(self.simulator.simulate,
                                          engine=self.mapping_engine)
        with span("solver.simulate", finalists=len(finalists)):
            best_spec, best_report, _, reports = pick_best(
                finalists, lambda spec: simulate_with_fallback(
                    simulate_plan, plan_cache, model, spec, num_devices,
                    allow_checkpointing=False))

        elapsed = time.perf_counter() - start
        return SolverResult(
            model=model,
            best_spec=best_spec,
            best_report=best_report,
            candidates_considered=len(candidates),
            finalists_simulated=len(finalists),
            dp_cost=dp_result.total_cost,
            ga_cost=ga_result.cost,
            search_seconds=elapsed,
            evaluations=dp_result.evaluations + ga_result.evaluations,
            reports=reports,
            plan_cache_hits=plan_cache.hits,
            plan_cache_misses=plan_cache.misses,
        )

    def _select_finalists(
        self,
        model: ModelConfig,
        candidates: Sequence[ParallelSpec],
        plan_cache: PlanCache,
    ) -> List[ParallelSpec]:
        """Rank candidates with the fast analytical plan and keep the best few."""
        scored: List[tuple] = []
        capacity = self.wafer.config.die.hbm.capacity
        for spec in candidates:
            plan = plan_cache.analyze(model, spec, num_devices=self.wafer.num_dies)
            fits = plan.memory.total <= capacity
            score = self._fast_score(plan)
            scored.append((not fits, score, spec))
        scored.sort(key=lambda item: (item[0], item[1]))
        finalists = [spec for _, _, spec in scored[: self.num_finalists]]
        return finalists

    def _fast_score(self, plan: ExecutionPlan) -> float:
        """Cheap step-time proxy: compute time + critical wire time."""
        sustained = self.wafer.config.die.peak_flops * self.config.base_mfu
        compute = plan.flops_per_device / sustained
        bandwidth = self.wafer.config.d2d.bandwidth
        critical = plan.critical_comm_bytes() / bandwidth
        exposed = max(0.0, plan.overlap_comm_bytes() / bandwidth - compute)
        return compute + critical + exposed
