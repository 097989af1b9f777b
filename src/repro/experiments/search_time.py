"""§VIII-H: search-time comparison of the DLS algorithm vs exhaustive search.

The paper's dual-level search finds the optimal configuration in minutes,
more than 200x faster than the ILP formulation. This runner measures both the
wall-clock time and the number of cost-model evaluations of (a) the dual-level
DP + GA search and (b) an exhaustive joint enumeration (the ILP stand-in),
over the same representative-layer graph and candidate space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.core.framework import downsample_specs
from repro.costmodel.tables import CostTables
from repro.hardware.config import default_wafer_config
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.runner.registry import register
from repro.simulation.config import SimulatorConfig
from repro.solver.dp import optimize_segments
from repro.solver.exhaustive import ExhaustiveSolver
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import prune_specs
from repro.workloads.models import get_model
from repro.workloads.transformer import representative_layer_graph


def scenario_for_search(model: str, max_candidates: int, exhaustive_cap: int,
                        ga_generations: int) -> Scenario:
    """The :class:`Scenario` of one search-time comparison cell.

    ``exhaustive_cap`` bounds only the exhaustive baseline, not the plan
    request, so it stays a cell parameter.
    """
    return Scenario(
        workload=WorkloadSpec(model=model),
        solver=SolverSpec(scheme="temp", engine="tcme",
                          max_candidates=max_candidates,
                          ga_generations=ga_generations),
    )


@dataclass
class SearchTimeResult:
    """Search time and quality of both solvers on one model."""

    model: str
    num_candidates: int
    num_operators: int
    dls_seconds: float
    dls_cost: float
    dls_evaluations: int
    exhaustive_seconds: float
    exhaustive_cost: float
    exhaustive_evaluations: int
    exhaustive_truncated: bool
    exhaustive_total_space: int

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the dual-level search over the exhaustive one."""
        if self.dls_seconds <= 0:
            return float("inf")
        return self.exhaustive_seconds / self.dls_seconds

    @property
    def projected_exhaustive_seconds(self) -> float:
        """Exhaustive time extrapolated to the full joint space."""
        if self.exhaustive_evaluations <= 0:
            return 0.0
        per_evaluation = self.exhaustive_seconds / self.exhaustive_evaluations
        return per_evaluation * self.exhaustive_total_space

    @property
    def projected_speedup(self) -> float:
        """DLS speedup against the full (untruncated) exhaustive search."""
        if self.dls_seconds <= 0:
            return float("inf")
        return self.projected_exhaustive_seconds / self.dls_seconds


def run_search_time_comparison(
    model_name: str = "gpt3-76b",
    num_dies: int = 32,
    max_candidates: int = 12,
    exhaustive_cap: int = 20000,
    config: Optional[SimulatorConfig] = None,
    ga_generations: int = 10,
) -> SearchTimeResult:
    """Compare the dual-level search against exhaustive enumeration."""
    config = config or SimulatorConfig()
    wafer_config = default_wafer_config()
    model = get_model(model_name)
    candidates = candidate_specs(BaselineScheme.TEMP, num_dies,
                                 max_tp=min(32, model.num_heads))
    candidates = downsample_specs(
        prune_specs(candidates, model, wafer_config) or candidates,
        max_candidates)

    graph = representative_layer_graph(model)

    # Dual-level search: DP followed by GA refinement, both levels reading the
    # same vectorized cost tables. Table construction is part of the timed
    # region — it is work the scalar implementation performed inside the DP.
    start = time.perf_counter()
    tables = CostTables(graph, candidates, wafer_config, config)
    dp_result = optimize_segments(graph, candidates, wafer_config, config,
                                  tables=tables)
    refiner = GeneticRefiner(
        graph, candidates, wafer_config, config,
        genetic_config=GeneticConfig(generations=ga_generations,
                                     population_size=12),
        tables=tables)
    ga_result = refiner.refine(initial_assignment=dp_result.assignment)
    dls_seconds = time.perf_counter() - start

    # Exhaustive (ILP stand-in), capped so the benchmark terminates.
    exhaustive = ExhaustiveSolver(wafer_config, config,
                                  max_evaluations=exhaustive_cap)
    exhaustive_result = exhaustive.search(graph, candidates)

    return SearchTimeResult(
        model=model_name,
        num_candidates=len(candidates),
        num_operators=graph.num_nodes,
        dls_seconds=dls_seconds,
        dls_cost=min(dp_result.total_cost, ga_result.cost),
        dls_evaluations=dp_result.evaluations + ga_result.evaluations,
        exhaustive_seconds=exhaustive_result.elapsed_seconds,
        exhaustive_cost=exhaustive_result.cost,
        exhaustive_evaluations=exhaustive_result.evaluations,
        exhaustive_truncated=exhaustive_result.truncated,
        exhaustive_total_space=ExhaustiveSolver.total_combinations(
            graph.num_nodes, len(candidates)),
    )


@register(
    figure="search_time",
    paper="§VIII-H",
    title="Search time: dual-level search vs exhaustive enumeration",
    default_grid=[{"model": "gpt3-76b", "max_candidates": 12,
                   "exhaustive_cap": 20000, "ga_generations": 10}],
    reduced_grid=[{"model": "gpt3-6.7b", "max_candidates": 6,
                   "exhaustive_cap": 2000, "ga_generations": 4}],
    schema=("model", "max_candidates", "exhaustive_cap", "ga_generations",
            "num_candidates", "num_operators", "dls_seconds", "dls_cost",
            "dls_evaluations", "exhaustive_seconds", "exhaustive_cost",
            "exhaustive_evaluations", "exhaustive_truncated",
            "exhaustive_total_space", "projected_speedup"),
    entrypoints=("run_search_time_comparison",),
    description="Wall-clock time and cost-model evaluation counts of the "
                "DP+GA dual-level search against a capped exhaustive joint "
                "enumeration (the ILP stand-in). Timing columns are "
                "wall-clock measurements and vary between runs.",
    scenario=scenario_for_search,
)
def search_time_cell(ctx, model, max_candidates, exhaustive_cap,
                     ga_generations):
    """The single timed comparison cell of §VIII-H."""
    scenario = scenario_for_search(model, max_candidates, exhaustive_cap,
                                   ga_generations)
    result = run_search_time_comparison(
        model_name=scenario.workload.model,
        max_candidates=scenario.solver.max_candidates,
        exhaustive_cap=exhaustive_cap,
        ga_generations=scenario.solver.ga_generations,
    )
    return [{
        "num_candidates": result.num_candidates,
        "num_operators": result.num_operators,
        "dls_seconds": result.dls_seconds,
        "dls_cost": result.dls_cost,
        "dls_evaluations": result.dls_evaluations,
        "exhaustive_seconds": result.exhaustive_seconds,
        "exhaustive_cost": result.exhaustive_cost,
        "exhaustive_evaluations": result.exhaustive_evaluations,
        "exhaustive_truncated": result.exhaustive_truncated,
        "exhaustive_total_space": result.exhaustive_total_space,
        "projected_speedup": result.projected_speedup,
    }]
