"""Fig. 19: multi-wafer scalability.

Larger-than-one-wafer models (GPT-3 175B on two wafers, Grok-1 341B and
Llama3 405B on four, a 504B GPT-3 variant on six) are trained with pipeline
parallelism across wafers. The baselines are forced into high pipeline
degrees (and hence large bubbles) because they lack a wafer-tailored
parallelism; TEMP's TATP keeps the pipeline degree low and wins by 1.2-1.6x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.parallelism.baselines import BaselineScheme
from repro.runner.registry import register
from repro.workloads.models import MULTI_WAFER_MODELS

#: The (scheme, engine, label) grid of Fig. 19 (same systems as Fig. 13).
MULTI_WAFER_GRID = [
    (BaselineScheme.MEGATRON1, "smap", "Mega+SMap"),
    (BaselineScheme.MEGATRON1, "gmap", "Mega+GMap"),
    (BaselineScheme.MESP, "smap", "MeSP+SMap"),
    (BaselineScheme.MESP, "gmap", "MeSP+GMap"),
    (BaselineScheme.FSDP, "smap", "FSDP+SMap"),
    (BaselineScheme.FSDP, "gmap", "FSDP+GMap"),
    (BaselineScheme.TEMP, "tcme", "TEMP"),
]

#: Label -> (scheme, engine) lookup of the Fig. 19 systems.
_SYSTEM_TABLE = {label: (scheme, engine)
                 for scheme, engine, label in MULTI_WAFER_GRID}


def scenario_for_multiwafer(model: str, system: str,
                            num_wafers: Optional[int] = None,
                            num_microbatches: int = 16) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 19.

    ``num_wafers`` defaults to the paper's wafer count for the model
    (:data:`MULTI_WAFER_MODELS`).
    """
    try:
        scheme, engine = _SYSTEM_TABLE[system]
    except KeyError:
        known = ", ".join(label for _, _, label in MULTI_WAFER_GRID)
        raise KeyError(
            f"unknown system {system!r}; expected one of {known}") from None
    if num_wafers is None:
        num_wafers = MULTI_WAFER_MODELS[model]
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=HardwareSpec(num_wafers=num_wafers,
                              num_microbatches=num_microbatches),
        solver=SolverSpec(scheme=scheme.value, engine=engine),
    )


@dataclass
class MultiWaferCell:
    """One (model, system) cell of Fig. 19."""

    model: str
    system: str
    num_wafers: int
    spec: str
    pp_degree: int
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    throughput: float
    oom: bool


@dataclass
class MultiWaferStudy:
    """All cells of Fig. 19."""

    cells: List[MultiWaferCell] = field(default_factory=list)

    def cell(self, model: str, system: str) -> MultiWaferCell:
        """Look up one cell."""
        for candidate in self.cells:
            if candidate.model == model and candidate.system == system:
                return candidate
        raise KeyError(f"no cell for model={model} system={system}")

    def systems(self) -> List[str]:
        """System labels in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.system not in ordered:
                ordered.append(cell.system)
        return ordered

    def models(self) -> List[str]:
        """Model names in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.model not in ordered:
                ordered.append(cell.model)
        return ordered

    def temp_speedup(self, model: str, system: str) -> float:
        """TEMP speedup over ``system`` for ``model``."""
        baseline = self.cell(model, system)
        temp = self.cell(model, "TEMP")
        if temp.step_time <= 0 or baseline.oom:
            return 0.0
        return baseline.step_time / temp.step_time


def run_multiwafer_study(
    models: Optional[Dict[str, int]] = None,
    systems: Optional[Sequence[Tuple[BaselineScheme, str, str]]] = None,
    num_microbatches: int = 16,
) -> MultiWaferStudy:
    """Run the Fig. 19 study on one :class:`PlanService`.

    Args:
        models: mapping of model name -> wafer count (defaults to the paper's
            four models).
        systems: (scheme, engine, label) triples to evaluate.
        num_microbatches: pipeline microbatches per step.
    """
    model_map = dict(models) if models is not None else dict(MULTI_WAFER_MODELS)
    grid = list(systems) if systems is not None else list(MULTI_WAFER_GRID)
    service = PlanService()
    study = MultiWaferStudy()
    for name, num_wafers in model_map.items():
        for scheme, engine, label in grid:
            scenario = Scenario(
                workload=WorkloadSpec(model=name),
                hardware=HardwareSpec(num_wafers=num_wafers,
                                      num_microbatches=num_microbatches),
                solver=SolverSpec(scheme=scheme.value, engine=engine),
            )
            study.cells.append(evaluate_pipelined_cell(
                scenario, label, service=service))
    return study


def evaluate_pipelined_cell(
    scenario: Scenario,
    label: str,
    service: Optional[PlanService] = None,
) -> MultiWaferCell:
    """Evaluate one (model, system) scenario of Fig. 19."""
    service = service or PlanService()
    result = service.evaluate(scenario)
    return MultiWaferCell(
        model=result.model,
        system=label,
        num_wafers=result.num_wafers,
        spec=result.spec if result.spec else "-",
        pp_degree=result.pp_degree,
        step_time=result.step_time,
        compute_time=result.compute_time,
        comm_time=result.comm_time,
        bubble_time=result.bubble_time,
        throughput=result.throughput,
        oom=result.oom,
    )


@register(
    figure="fig19",
    paper="Fig. 19",
    title="Multi-wafer scalability (pipeline parallelism across wafers)",
    default_grid={"model": list(MULTI_WAFER_MODELS),
                  "system": [label for _, _, label in MULTI_WAFER_GRID]},
    reduced_grid={"model": ["gpt3-175b"],
                  "system": [label for _, _, label in MULTI_WAFER_GRID]},
    schema=("model", "system", "num_wafers", "spec", "pp_degree",
            "step_time", "compute_time", "comm_time", "bubble_time",
            "throughput", "oom"),
    entrypoints=("run_multiwafer_study",),
    description="Larger-than-one-wafer models are pipelined across 2-6 "
                "wafers; TEMP keeps the pipeline degree (and the bubble) "
                "low because TATP covers more parallelism inside a wafer.",
    scenario=scenario_for_multiwafer,
)
def multiwafer_cell(ctx, model, system):
    """One (model, system) cell of Fig. 19."""
    cell = evaluate_pipelined_cell(
        scenario_for_multiwafer(model, system), system, service=ctx.service)
    return [{
        "num_wafers": cell.num_wafers,
        "spec": cell.spec,
        "pp_degree": cell.pp_degree,
        "step_time": cell.step_time,
        "compute_time": cell.compute_time,
        "comm_time": cell.comm_time,
        "bubble_time": cell.bubble_time,
        "throughput": cell.throughput,
        "oom": cell.oom,
    }]
