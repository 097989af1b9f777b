"""End-to-end wafer simulator.

:class:`WaferSimulator` combines the compute, communication, memory, and power
models into a single :class:`SimulationReport` for one training step of an
execution plan mapped onto a wafer. The report carries every metric the
paper's figures plot: step time with its breakdown, peak per-die memory and
OOM status, throughput, D2D bandwidth utilisation, and the power breakdown
with power efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.wafer import WaferScaleChip
from repro.mapping.engines import MappingResult, get_engine
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.communication import bottleneck_time, task_time
from repro.simulation.compute import compute_time, compute_utilization
from repro.simulation.config import SimulatorConfig
from repro.simulation.memory import dram_traffic_bytes, fits_in_memory, memory_pressure
from repro.simulation.power import PowerBreakdown, power_breakdown, power_efficiency
from repro.workloads.training import MemoryFootprint


@dataclass
class SimulationReport:
    """Every metric of one simulated training step.

    Times are in seconds, memory in bytes, throughput in tokens/second, power
    in watts, and power efficiency in tokens/second/watt.
    """

    model_name: str
    spec_label: str
    engine: str
    compute_time: float
    critical_comm_time: float
    overlap_comm_time: float
    exposed_comm_time: float
    bubble_time: float
    step_time: float
    memory: MemoryFootprint
    memory_pressure: float
    oom: bool
    throughput: float
    compute_utilization: float
    bandwidth_utilization: float
    power: PowerBreakdown
    power_efficiency: float
    comm_time_by_dimension: Dict[str, float] = field(default_factory=dict)
    tatp_hop_factor: int = 1
    contention_factor: float = 1.0

    @property
    def total_comm_time(self) -> float:
        """Critical plus exposed communication time."""
        return self.critical_comm_time + self.exposed_comm_time

    def breakdown(self) -> Dict[str, float]:
        """Step-time breakdown used by the latency figures."""
        return {
            "compute": self.compute_time,
            "communication": self.total_comm_time,
            "bubble": self.bubble_time,
        }

    def normalized_breakdown(self) -> Dict[str, float]:
        """Breakdown normalised to the step time (sums to 1.0)."""
        if self.step_time <= 0:
            return {key: 0.0 for key in self.breakdown()}
        return {key: value / self.step_time for key, value in self.breakdown().items()}


class WaferSimulator:
    """Analytical simulator of LLM training steps on a wafer-scale chip."""

    def __init__(
        self,
        wafer: Optional[WaferScaleChip] = None,
        config: Optional[SimulatorConfig] = None,
    ) -> None:
        self.wafer = wafer or WaferScaleChip()
        self.config = config or SimulatorConfig()

    def simulate(self, plan: ExecutionPlan,
                 engine: str = "tcme") -> SimulationReport:
        """Simulate one training step of ``plan``.

        Args:
            plan: the execution plan produced by the strategy analysis.
            engine: name of the mapping engine that places ``plan`` on the
                wafer first.

        Returns:
            The :class:`SimulationReport` of the step.
        """
        mapping = get_engine(engine).map(plan, self.wafer)
        return self._simulate_mapped(plan, mapping)

    # Internals --------------------------------------------------------------------

    def _simulate_mapped(
        self, plan: ExecutionPlan, mapping: MappingResult
    ) -> SimulationReport:
        wafer_config = self.wafer.config
        die = wafer_config.die
        spec = plan.spec
        layers_per_stage = max(1, plan.model.num_layers // spec.pp)

        # Computation ---------------------------------------------------------------
        effective_peak = self._slowest_die_flops(mapping)
        comp_time = compute_time(
            plan.flops_per_device,
            die,
            self.config,
            num_layers=layers_per_stage,
            tatp_rounds=plan.tatp_rounds_per_layer,
            peak_flops_override=effective_peak,
        )

        # Critical-path communication -------------------------------------------------
        critical_time = 0.0
        comm_by_dimension: Dict[str, float] = {}
        for task in plan.comm_tasks:
            hop_factor = mapping.hop_factor_for(task)
            one = task_time(task, wafer_config.d2d, self.config,
                            hop_factor=hop_factor)
            total = one * task.count
            critical_time += total
            key = task.dimension or task.kind.value
            comm_by_dimension[key] = comm_by_dimension.get(key, 0.0) + total
        critical_floor = bottleneck_time(
            max(mapping.link_loads.critical.values(), default=0.0),
            wafer_config.d2d, self.config)
        critical_time = max(critical_time, critical_floor)

        # Overlappable communication ---------------------------------------------------
        contention = self._overlap_contention_factor(mapping)
        overlap_time = 0.0
        for task in plan.overlap_tasks:
            hop_factor = mapping.hop_factor_for(task)
            one = task_time(task, wafer_config.d2d, self.config,
                            hop_factor=hop_factor,
                            contention_factor=contention)
            total = one * task.count
            overlap_time += total
            key = task.dimension or task.kind.value
            comm_by_dimension[key] = comm_by_dimension.get(key, 0.0) + total
        # Multi-hop relays concentrate streaming traffic on shared links; the
        # busiest such link bounds how fast the overlappable phase can drain.
        overlap_floor = bottleneck_time(
            self._overlap_max_link_load(mapping), wafer_config.d2d, self.config)
        overlap_time = max(overlap_time, overlap_floor)
        hideable = comp_time * self.config.overlap_efficiency
        exposed_time = max(0.0, overlap_time - hideable)

        # Pipeline bubble ---------------------------------------------------------------
        busy_time = comp_time + critical_time + exposed_time
        bubble_time = self._bubble_time(spec.pp, plan.num_microbatches, busy_time)
        step_time = busy_time + bubble_time

        # Memory --------------------------------------------------------------------------
        footprint = plan.memory
        oom = not fits_in_memory(footprint, die)
        pressure = memory_pressure(footprint, die)

        # Throughput and utilisation ---------------------------------------------------------
        tokens = plan.model.tokens_per_batch
        throughput = tokens / step_time if step_time > 0 else 0.0
        comp_util = compute_utilization(
            plan.flops_per_device * plan.num_devices, step_time, die,
            num_dies=plan.num_devices)
        bw_util = mapping.link_loads.utilization(
            self.wafer.topology, step_time, wafer_config.d2d.bandwidth)

        # Power -------------------------------------------------------------------------------
        total_flops = plan.flops_per_device * plan.num_devices
        dram_bytes = dram_traffic_bytes(plan) * plan.num_devices
        comm_link_bytes = mapping.link_loads.total_bytes()
        power = power_breakdown(
            total_flops, dram_bytes, comm_link_bytes, step_time, wafer_config)
        efficiency = power_efficiency(throughput, power.total)

        return SimulationReport(
            model_name=plan.model.name,
            spec_label=spec.label(),
            engine=mapping.engine,
            compute_time=comp_time,
            critical_comm_time=critical_time,
            overlap_comm_time=overlap_time,
            exposed_comm_time=exposed_time,
            bubble_time=bubble_time,
            step_time=step_time,
            memory=footprint,
            memory_pressure=pressure,
            oom=oom,
            throughput=throughput,
            compute_utilization=comp_util,
            bandwidth_utilization=bw_util,
            power=power,
            power_efficiency=efficiency,
            comm_time_by_dimension=comm_by_dimension,
            tatp_hop_factor=mapping.tatp_hop_factor,
            contention_factor=contention,
        )

    def _slowest_die_flops(self, mapping: MappingResult) -> float:
        """Peak FLOPS of the slowest die in the mapping (fault derating)."""
        if not mapping.dies:
            return 0.0
        return min(self.wafer.die(die_id).peak_flops for die_id in mapping.dies)

    @staticmethod
    def _overlap_max_link_load(mapping: MappingResult) -> float:
        """Busiest-link byte load contributed by overlappable traffic."""
        total = mapping.link_loads.loads
        critical = mapping.link_loads.critical
        worst = 0.0
        for link, load in total.items():
            overlap_load = load - critical.get(link, 0.0)
            worst = max(worst, overlap_load)
        return worst

    @staticmethod
    def _overlap_contention_factor(mapping: MappingResult) -> float:
        """Slowdown of overlappable traffic from links shared with critical traffic."""
        total = mapping.link_loads.loads
        critical = mapping.link_loads.critical
        factor = 1.0
        for link, load in total.items():
            overlap_load = load - critical.get(link, 0.0)
            if overlap_load <= 0:
                continue
            factor = max(factor, load / overlap_load)
        return factor

    @staticmethod
    def _bubble_time(pp: int, microbatches: int, busy_time: float) -> float:
        """Pipeline bubble time for a 1F1B-style schedule."""
        if pp <= 1:
            return 0.0
        micro = max(1, microbatches)
        bubble_fraction = (pp - 1) / (micro + pp - 1)
        if bubble_fraction >= 1.0:
            return busy_time * (pp - 1)
        return busy_time * bubble_fraction / (1.0 - bubble_fraction)
