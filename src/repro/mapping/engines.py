"""Mapping engines: SMap, GMap, and the paper's TCME.

A mapping engine takes an :class:`~repro.parallelism.strategies.ExecutionPlan`
and a :class:`~repro.hardware.wafer.WaferScaleChip` and decides

1. which die each logical rank occupies (group formation),
2. how each communication task's traffic is routed on the mesh,

producing a :class:`MappingResult` with routed flows, per-task hop factors,
and link-load statistics the simulator turns into time.

The flows are the only traffic record: the
:class:`~repro.mapping.contention.LinkLoadMap` is built from them, and the
TCME optimizer rewrites them (and the load map with them) without touching
the per-task hop factors.

The three engines reproduce the evaluation's mapper axis:

* **SMap** — fixed dimension nesting order and naive row-major die ordering;
  no contention handling. Groups frequently end up as non-contiguous,
  "tetris-like" shapes, so TATP and ring collectives pay multi-hop penalties.
* **GMap** — Gemini-style: tries several dimension orderings and picks the
  cheapest by a simple traffic-distance estimate, over a row-major die
  ordering; still contention-agnostic.
* **TCME** — snake (boustrophedon) die ordering so consecutive ranks are
  always physically adjacent, traffic-aware ordering choice, and the
  five-phase :class:`~repro.mapping.optimizer.TrafficOptimizer` applied to the
  routed flows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.topologies import Topology
from repro.hardware.wafer import WaferScaleChip
from repro.mapping.collectives import expand_task
from repro.mapping.contention import LinkLoadMap
from repro.mapping.optimizer import OptimizationReport, TrafficOptimizer
from repro.mapping.routing import Flow
from repro.parallelism.comm import CommTask
from repro.parallelism.representation import (
    DEFAULT_DIMENSION_ORDER,
    build_parallel_groups,
)
from repro.parallelism.strategies import ExecutionPlan


@dataclass
class MappingResult:
    """Complete outcome of mapping a plan onto a wafer.

    Attributes:
        hop_factors: worst physical hops per logical step (>= 1) of each
            task, keyed by task label; the first task with a label wins.
        tatp_hop_factor: worst hop factor across TATP streaming tasks (1
            when there are none).
    """

    engine: str
    plan: ExecutionPlan
    dies: List[int]
    dimension_order: Tuple[str, ...]
    groups: Dict[str, List[List[int]]]
    flows: List[Flow]
    link_loads: LinkLoadMap
    hop_factors: Dict[str, int]
    tatp_hop_factor: int
    optimization: Optional[OptimizationReport] = None

    def hop_factor_for(self, task: CommTask) -> int:
        """Worst physical hops per logical step of ``task`` (>= 1)."""
        return self.hop_factors.get(task.label, 1)

    @property
    def max_link_load(self) -> float:
        """Bytes on the busiest link per training step."""
        return self.link_loads.max_load()

    @property
    def contention_imbalance(self) -> float:
        """Max-to-mean link load ratio (1.0 = perfectly balanced)."""
        return self.link_loads.imbalance()


class MappingEngine:
    """Base class of the three mapping engines."""

    #: Engine name used in reports ("smap", "gmap", "tcme").
    name: str = "base"

    #: Whether groups are reordered into physical rings / chains before
    #: routing; the naive SMap keeps the logical order it was handed.
    reorder_groups: bool = True

    def map(self, plan: ExecutionPlan, wafer: WaferScaleChip) -> MappingResult:
        """Map ``plan`` onto ``wafer`` and route its communication."""
        dies = self._die_ordering(wafer, plan)
        order = self._dimension_order(plan, wafer)
        return self._map_with(plan, wafer, dies, order)

    def _map_with(
        self,
        plan: ExecutionPlan,
        wafer: WaferScaleChip,
        dies: Sequence[int],
        order: Sequence[str],
    ) -> MappingResult:
        """Form groups over a concrete die ordering and route every task."""
        intra_spec = plan.spec.without_pipeline()
        stage_dies = list(dies)[: intra_spec.intra_stage_degree]
        groups = build_parallel_groups(intra_spec, stage_dies, order=order)
        flows: List[Flow] = []
        hop_factors: Dict[str, int] = {}
        tatp_hops: List[int] = []
        for task in plan.all_tasks:
            task_flows, hop_factor = expand_task(
                task, self._groups_for_task(task, groups, plan),
                wafer.topology, reorder_groups=self.reorder_groups)
            flows.extend(task_flows)
            hop_factors.setdefault(task.label, max(hop_factor, 1))
            if task.dimension == "tatp":
                tatp_hops.append(hop_factor)
        return MappingResult(
            engine=self.name,
            plan=plan,
            dies=stage_dies,
            dimension_order=tuple(order),
            groups=groups,
            flows=flows,
            link_loads=LinkLoadMap.from_flows(flows),
            hop_factors=hop_factors,
            tatp_hop_factor=max(tatp_hops, default=1),
        )

    # Hooks the engines specialise ------------------------------------------------

    def _die_ordering(self, wafer: WaferScaleChip, plan: ExecutionPlan) -> List[int]:
        """Order in which logical ranks are laid onto dies."""
        return wafer.healthy_dies()

    def _dimension_order(
        self, plan: ExecutionPlan, wafer: WaferScaleChip
    ) -> Tuple[str, ...]:
        """Nesting order of parallel dimensions (outermost first)."""
        return DEFAULT_DIMENSION_ORDER

    # Shared helpers ----------------------------------------------------------------

    @staticmethod
    def _groups_for_task(
        task: CommTask,
        groups: Dict[str, List[List[int]]],
        plan: ExecutionPlan,
    ) -> List[List[int]]:
        dimension = task.dimension
        if dimension in groups and groups[dimension]:
            return groups[dimension]
        if dimension == "pp":
            # Pipeline traffic crosses stage boundaries; on a single wafer the
            # stages are laid out contiguously, so model it as a chain across
            # the first die of each half of the mapping.
            dies = sorted({die for group_list in groups.values()
                           for group in group_list for die in group})
            if len(dies) >= 2:
                midpoint = len(dies) // 2
                return [[dies[0], dies[midpoint]]]
        return []

    @staticmethod
    def _estimate_traffic_by_dimension(plan: ExecutionPlan) -> Dict[str, float]:
        """Wire bytes per dimension, used to choose which dimension sits innermost."""
        traffic: Dict[str, float] = {}
        for task in plan.all_tasks:
            key = task.dimension or task.kind.value
            traffic[key] = traffic.get(key, 0.0) + task.bytes_per_device * task.count
        return traffic


class SMapEngine(MappingEngine):
    """Sequential mapper: fixed dimension order, row-major die ordering.

    SMap never adapts its strategy priority order to the workload, keeps the
    logical ordering of every group (no ring re-ordering), and performs no
    contention optimisation — the combination the paper identifies as its
    limitation.
    """

    name = "smap"
    reorder_groups = False

    def _dimension_order(
        self, plan: ExecutionPlan, wafer: WaferScaleChip
    ) -> Tuple[str, ...]:
        return DEFAULT_DIMENSION_ORDER


class ScatteredEngine(SMapEngine):
    """A mapper that deliberately scatters group members across the wafer.

    Logical neighbours land on dies that are far apart (stride-based
    interleaving), forcing every TATP relay and ring step onto multi-hop
    paths: the "logical ring" case of Fig. 7(c). Useful only as an adversary
    — it exists so the ring-utilisation study can request the scattered
    mapping by name through the Scenario API.
    """

    name = "scattered"

    def _die_ordering(self, wafer, plan):  # noqa: D102 - see class docstring
        dies = wafer.healthy_dies()
        half = (len(dies) + 1) // 2
        interleaved: List[int] = []
        for index in range(half):
            interleaved.append(dies[index])
            if index + half < len(dies):
                interleaved.append(dies[index + half])
        return interleaved


class GMapEngine(MappingEngine):
    """Gemini-style mapper: adaptive ordering, contention-agnostic routing."""

    name = "gmap"

    def _dimension_order(
        self, plan: ExecutionPlan, wafer: WaferScaleChip
    ) -> Tuple[str, ...]:
        traffic = self._estimate_traffic_by_dimension(plan)
        # Heaviest-traffic dimension innermost so its groups are physically
        # closest; dimensions without traffic keep their default position.
        ordered = sorted(
            DEFAULT_DIMENSION_ORDER,
            key=lambda name: traffic.get(name, 0.0),
        )
        return tuple(ordered)


class TCMEEngine(MappingEngine):
    """The paper's traffic-conscious mapping engine.

    TCME explores several spatial layouts (row-major, snake, and tiled die
    orderings crossed with traffic-sorted dimension nestings), keeps the one
    with the lowest tail-latency hop factor and bottleneck link load, and then
    runs the five-phase traffic-conscious optimizer on the winner's flows.
    """

    name = "tcme"

    def __init__(self, max_iterations: int = 32) -> None:
        self.max_iterations = max_iterations

    def map(self, plan: ExecutionPlan, wafer: WaferScaleChip) -> MappingResult:
        candidates = self._candidate_layouts(plan, wafer)
        best: Optional[MappingResult] = None
        best_key = None
        for dies, order in candidates:
            result = self._map_with(plan, wafer, dies, order)
            key = (result.tatp_hop_factor, result.max_link_load,
                   result.contention_imbalance)
            if best_key is None or key < best_key:
                best, best_key = result, key
        assert best is not None  # at least one candidate layout always exists
        optimizer = TrafficOptimizer(wafer.topology,
                                     max_iterations=self.max_iterations)
        flows, report = optimizer.optimize(best.flows)
        return replace(best, flows=flows,
                       link_loads=LinkLoadMap.from_flows(flows),
                       optimization=report)

    def _candidate_layouts(
        self, plan: ExecutionPlan, wafer: WaferScaleChip
    ) -> List[Tuple[List[int], Tuple[str, ...]]]:
        traffic = self._estimate_traffic_by_dimension(plan)
        traffic_sorted = tuple(sorted(
            DEFAULT_DIMENSION_ORDER, key=lambda name: traffic.get(name, 0.0)))
        dimension_orders = [DEFAULT_DIMENSION_ORDER, traffic_sorted]

        row_major = wafer.healthy_dies()
        snake = snake_order(wafer.topology)
        die_orders = [row_major, snake]
        inner_degree = max(
            plan.spec.tatp, plan.spec.tp, plan.spec.fsdp, plan.spec.sp,
            plan.spec.cp)
        if inner_degree > 1 and len(row_major) % inner_degree == 0:
            try:
                tiles = wafer.topology.partition_into_groups(inner_degree)
                tiled = [die for tile in tiles for die in tile]
                if len(tiled) == len(row_major):
                    die_orders.append(tiled)
            except ValueError:
                pass

        layouts: List[Tuple[List[int], Tuple[str, ...]]] = []
        for dies in die_orders:
            for order in dimension_orders:
                layouts.append((dies, order))
        return layouts


def snake_order(topology: Topology) -> List[int]:
    """Boustrophedon ordering of healthy dies: consecutive dies are adjacent.

    Row 0 runs left to right, row 1 right to left, and so on, so a group of
    consecutive positions always forms a physically contiguous chain (and a
    rectangle of full rows forms a contiguous ring).
    """
    ordering: List[int] = []
    for row in range(topology.rows):
        cols = range(topology.cols)
        if row % 2 == 1:
            cols = reversed(cols)
        for col in cols:
            die = topology.die_at(row, col)
            if topology.is_healthy(die):
                ordering.append(die)
    return ordering


_ENGINES = {
    "smap": SMapEngine,
    "gmap": GMapEngine,
    "tcme": TCMEEngine,
    "scattered": ScatteredEngine,
}


def get_engine(name: str) -> MappingEngine:
    """Instantiate a mapping engine by name ("smap", "gmap", "tcme", ...)."""
    key = name.lower()
    try:
        return _ENGINES[key]()
    except KeyError:
        available = ", ".join(sorted(_ENGINES))
        raise KeyError(f"unknown mapping engine '{name}'; available: {available}") from None
