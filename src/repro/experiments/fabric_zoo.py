"""Fabric zoo: which interconnect fabric wins for which workload.

A paper-style design-space study over the topology zoo
(:mod:`repro.hardware.topologies`): every registered fabric family is
evaluated on the same wafer geometry under pinned, communication-heavy
parallelisations, and the study reports which fabric wins per workload.

The parallelisation is pinned per workload (``fixed_spec``) rather than
searched, for the same reason NoC papers sweep fixed traffic patterns:
the solver's free search steers communication onto die groups that ring
cheaply on *any* fabric, which hides exactly the fabric differences the
study is after. The pinned specs force row-spanning tensor-parallel
groups (``tp=8``: torus wrap links close them into rings, express links
shorten the chain closure) and deck-spanning groups (``tp=32``: the
stacked mesh pays weighted vertical hops, the chiplet fabric pays
backbone escapes), so each family's hop model shows up in the collective
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanResult, PlanService
from repro.runner.registry import register

#: Fabric label -> ``HardwareSpec.topology`` spec of each studied fabric.
#: ``mesh`` stays ``None`` (the default fabric, and the cache-key baseline).
FABRICS: Dict[str, Optional[Dict[str, object]]] = {
    "mesh": None,
    "torus": {"name": "torus"},
    "mesh3d": {"name": "mesh3d", "layers": 2},
    "chiplet": {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 2,
                "gateways": 2},
    "express": {"name": "express", "stride": 2},
}

#: Model -> pinned communication-heavy parallelisation of its study row.
#: ``tp=8`` rows exercise in-plane ring closure; ``tp=32`` spans decks and
#: chiplet boundaries.
WORKLOAD_SPECS: Dict[str, Dict[str, int]] = {
    "gpt3-6.7b": {"dp": 4, "tp": 8},
    "llama2-7b": {"dp": 4, "tp": 8},
    "llama3-70b": {"dp": 1, "tp": 32},
}

#: Model list of the full study, in presentation order.
MODELS = list(WORKLOAD_SPECS)

#: Single-model list used by fast test runs and the reduced CI grid.
FAST_MODELS = ["gpt3-6.7b"]


def scenario_for_fabric(model: str, fabric: str) -> Scenario:
    """The :class:`Scenario` of one (model, fabric) cell of the study."""
    try:
        topology = FABRICS[fabric]
    except KeyError:
        known = ", ".join(FABRICS)
        raise KeyError(
            f"unknown fabric {fabric!r}; expected one of {known}") from None
    try:
        fixed_spec = WORKLOAD_SPECS[model]
    except KeyError:
        known = ", ".join(WORKLOAD_SPECS)
        raise KeyError(
            f"no pinned parallelisation for model {model!r}; "
            f"expected one of {known}") from None
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=HardwareSpec(topology=topology),
        solver=SolverSpec(scheme="temp", engine="tcme",
                          fixed_spec=dict(fixed_spec)),
    )


@dataclass
class FabricCell:
    """One (model, fabric) cell of the study."""

    model: str
    fabric: str
    spec: str
    oom: bool
    step_time: float
    compute_time: float
    comm_time: float
    memory_gb: float
    throughput: float


@dataclass
class FabricZooStudy:
    """All cells of the study plus the per-workload winners."""

    cells: List[FabricCell] = field(default_factory=list)

    def models(self) -> List[str]:
        """Model names in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.model not in ordered:
                ordered.append(cell.model)
        return ordered

    def fabrics(self) -> List[str]:
        """Fabric labels in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.fabric not in ordered:
                ordered.append(cell.fabric)
        return ordered

    def cell(self, model: str, fabric: str) -> FabricCell:
        """Look up one cell."""
        for candidate in self.cells:
            if candidate.model == model and candidate.fabric == fabric:
                return candidate
        raise KeyError(f"no cell for model={model} fabric={fabric}")

    def winner(self, model: str) -> str:
        """The fabric with the highest non-OOM throughput for ``model``."""
        best: Optional[FabricCell] = None
        for fabric in self.fabrics():
            cell = self.cell(model, fabric)
            if cell.oom:
                continue
            if best is None or cell.throughput > best.throughput:
                best = cell
        if best is None:
            raise ValueError(f"every fabric OOMs on {model}")
        return best.fabric

    def winners(self) -> Dict[str, str]:
        """Per-workload winning fabric — the study's headline result."""
        return {model: self.winner(model) for model in self.models()}

    def speedup_over_mesh(self, model: str) -> Dict[str, float]:
        """Per-fabric step-time speedup over the mesh baseline for ``model``."""
        mesh = self.cell(model, "mesh")
        speedups: Dict[str, float] = {}
        for fabric in self.fabrics():
            cell = self.cell(model, fabric)
            if not cell.oom and not mesh.oom and cell.step_time > 0:
                speedups[fabric] = mesh.step_time / cell.step_time
        return speedups


def evaluate_fabric(
    model: str,
    fabric: str,
    service: Optional[PlanService] = None,
) -> FabricCell:
    """Evaluate one (model, fabric) cell of the study."""
    if service is None:
        service = PlanService()
    result = service.evaluate(scenario_for_fabric(model, fabric))
    return _cell_from(model, fabric, result)


def run_fabric_zoo(
    models: Optional[Sequence[str]] = None,
    fabrics: Optional[Sequence[str]] = None,
) -> FabricZooStudy:
    """Run the fabric-zoo study grid on one :class:`PlanService`.

    Args:
        models: model names to evaluate (defaults to :data:`MODELS`).
        fabrics: fabric labels to evaluate (defaults to all of
            :data:`FABRICS`).

    Returns:
        The populated :class:`FabricZooStudy`.
    """
    model_names = list(models) if models is not None else list(MODELS)
    fabric_names = list(fabrics) if fabrics is not None else list(FABRICS)
    service = PlanService()
    study = FabricZooStudy()
    for model in model_names:
        for fabric in fabric_names:
            study.cells.append(evaluate_fabric(model, fabric, service=service))
    return study


def _cell_from(model: str, fabric: str, result: PlanResult) -> FabricCell:
    return FabricCell(
        model=model,
        fabric=fabric,
        spec=result.spec if result.spec else "-",
        oom=result.oom,
        step_time=result.step_time,
        compute_time=result.compute_time,
        comm_time=result.comm_time,
        memory_gb=result.memory_gb,
        throughput=result.throughput,
    )


def format_table(study: FabricZooStudy) -> str:
    """Human-readable table of the study."""
    lines = ["model            fabric    spec                              "
             "OOM   step(s)  comm(s)  tok/s"]
    for cell in study.cells:
        lines.append(
            f"{cell.model:<16} {cell.fabric:<9} {cell.spec:<33} "
            f"{'yes' if cell.oom else 'no ':<5} {cell.step_time:8.3f} "
            f"{cell.comm_time:8.3f} {cell.throughput:10.0f}")
    lines.append("winners: " + ", ".join(
        f"{model}: {fabric}" for model, fabric in study.winners().items()))
    return "\n".join(lines)


@register(
    figure="fabric_zoo",
    paper="§ topology zoo",
    title="Fabric zoo: which interconnect fabric wins per workload",
    default_grid={"model": list(MODELS), "fabric": list(FABRICS)},
    reduced_grid={"model": list(FAST_MODELS), "fabric": list(FABRICS)},
    schema=("model", "fabric", "spec", "oom", "step_time", "compute_time",
            "comm_time", "memory_gb", "throughput"),
    entrypoints=("run_fabric_zoo",),
    description="Every registered interconnect fabric (mesh, torus, stacked "
                "3D mesh, hierarchical chiplet, express mesh) evaluated "
                "under pinned communication-heavy parallelisations, "
                "reporting per-workload throughput and the winning fabric.",
    scenario=scenario_for_fabric,
)
def fabric_cell(ctx, model, fabric):
    """One (model, fabric) cell of the fabric-zoo study."""
    cell = evaluate_fabric(model, fabric, service=ctx.service)
    return [{
        "spec": cell.spec,
        "oom": cell.oom,
        "step_time": cell.step_time,
        "compute_time": cell.compute_time,
        "comm_time": cell.comm_time,
        "memory_gb": cell.memory_gb,
        "throughput": cell.throughput,
    }]
