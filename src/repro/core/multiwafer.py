"""Multi-wafer evaluation (Fig. 19).

Models too large for a single wafer are split across several wafers with
pipeline parallelism; intra-wafer execution uses whichever scheme is being
evaluated. The step time of a pipelined run is

    ``stage_time * (num_microbatches + pp - 1) / num_microbatches``

plus the inter-stage activation transfers, where ``stage_time`` is the
single-wafer (or sub-wafer) simulation of one pipeline stage's share of the
layers. The wafers of the chain are identical, so every stage is simulated
on one wafer: the plan service's memoised wafer for the hardware spec.
TEMP's advantage on multi-wafer systems comes from needing a *lower*
pipeline degree (TATP covers more parallelism inside a wafer), which shrinks
the bubble term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.costmodel.tables import PlanCache
from repro.hardware.multiwafer import MultiWaferSystem
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.search_space import prune_specs
from repro.workloads.models import ModelConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario


@dataclass
class MultiWaferResult:
    """Best pipelined configuration of a scheme on a multi-wafer system."""

    scheme: BaselineScheme
    engine: str
    model: ModelConfig
    num_wafers: int
    best_spec: Optional[ParallelSpec]
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    throughput: float
    oom: bool
    report: Optional[SimulationReport] = None

    def breakdown(self) -> Dict[str, float]:
        """Latency breakdown matching Fig. 19's bars."""
        return {
            "compute": self.compute_time,
            "communication": self.comm_time,
            "bubble": self.bubble_time,
        }


def pipeline_degrees_for(scheme: BaselineScheme, num_wafers: int) -> List[int]:
    """Pipeline degrees a scheme considers on ``num_wafers`` wafers.

    A stage cannot span wafers, so PP is a multiple of the wafer count (the
    paper observes PP = k*N). TEMP covers more parallelism inside a wafer
    with TATP, so its candidates are {N, 2N} while baselines explore
    {N, 2N, 4N}.
    """
    if num_wafers < 1:
        raise ValueError("num_wafers must be >= 1")
    if scheme is BaselineScheme.TEMP:
        return [num_wafers, 2 * num_wafers]
    return [num_wafers, 2 * num_wafers, 4 * num_wafers]


def run_multiwafer_scenario(
    scenario: "Scenario",
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
) -> MultiWaferResult:
    """Run the multi-wafer (pipelined) search described by ``scenario``.

    The scenario's hardware spec supplies the wafer count and the number of
    pipeline microbatches; the solver spec supplies scheme, engine, and the
    TATP cap. Every wafer of the chain is identical, so each pipeline stage
    is simulated on ``wafer``, one wafer of the hardware spec (the plan
    service's memoised one). ``plan_cache`` shares memoised
    ``analyze_model`` results across evaluations (pure memoisation).
    """
    solver = scenario.solver
    hardware = scenario.hardware
    scheme = solver.resolved_scheme()
    engine = solver.engine
    model = scenario.workload.resolve()
    num_wafers = hardware.num_wafers
    num_microbatches = hardware.num_microbatches
    config = hardware.resolve_simulator() or SimulatorConfig()
    system = MultiWaferSystem(num_wafers, wafer_config=wafer.config)
    simulator = WaferSimulator(wafer, config)
    dies_per_wafer = wafer.config.num_dies

    best: Optional[MultiWaferResult] = None
    fallback: Optional[MultiWaferResult] = None

    for pp in pipeline_degrees_for(scheme, num_wafers):
        stage_dies = system.total_dies // pp
        if stage_dies < 1 or stage_dies > dies_per_wafer:
            continue
        specs = candidate_specs(
            scheme, system.total_dies,
            max_tp=min(32, model.num_heads),
            max_tatp=solver.max_tatp,
            pipeline_degrees=(pp,),
        )
        specs = prune_specs(specs, model, wafer.config, memory_margin=2.0,
                            plan_cache=plan_cache)
        for spec in specs:
            result = _evaluate_spec(
                scheme, engine, model, spec, system, simulator, config,
                num_microbatches, plan_cache)
            if result.oom:
                if fallback is None or result.step_time < fallback.step_time:
                    fallback = result
                continue
            if best is None or result.step_time < best.step_time:
                best = result
    if best is not None:
        return best
    if fallback is not None:
        return fallback
    raise ValueError(
        f"no feasible configuration found for {model.name} on {num_wafers} wafers")


def _evaluate_spec(
    scheme: BaselineScheme,
    engine: str,
    model: ModelConfig,
    spec: ParallelSpec,
    system: MultiWaferSystem,
    simulator: WaferSimulator,
    config: SimulatorConfig,
    num_microbatches: int,
    plan_cache: PlanCache,
) -> MultiWaferResult:
    """Simulate one pipelined configuration on the multi-wafer system."""
    plan = plan_cache.analyze(
        model, spec, num_devices=spec.total_degree,
        num_microbatches=num_microbatches)
    report = simulator.simulate(plan, engine=engine)

    # The intra-stage simulation already contains the bubble for spec.pp; the
    # inter-stage transfers crossing wafers add the inter-wafer link cost.
    boundary_bytes = (
        model.batch_size / max(spec.data_parallel_degree, 1) / num_microbatches
        * model.seq_length / max(spec.sequence_split_degree, 1)
        * model.hidden_size * model.dtype.bytes
    )
    cross_wafer_time = 0.0
    for stage in range(spec.pp - 1):
        if system.stage_boundary_crosses_wafer(stage, spec.pp):
            cross_wafer_time += 2 * num_microbatches * \
                system.inter_stage_transfer_time(stage, spec.pp, boundary_bytes)

    step_time = report.step_time + cross_wafer_time
    throughput = model.tokens_per_batch / step_time if step_time > 0 else 0.0
    return MultiWaferResult(
        scheme=scheme,
        engine=engine,
        model=model,
        num_wafers=system.num_wafers,
        best_spec=spec,
        step_time=step_time,
        compute_time=report.compute_time,
        comm_time=report.total_comm_time + cross_wafer_time,
        bubble_time=report.bubble_time,
        throughput=throughput,
        oom=report.oom,
        report=report,
    )
