"""The plan-service facade of the Scenario API.

:class:`PlanService` is the one front door to the framework's evaluation
paths and the only carrier of their shared state: it owns the
:class:`~repro.costmodel.tables.PlanCache`, caches resolved wafers and solver
cost tables per hardware spec, and dispatches a
:class:`~repro.api.scenario.Scenario` to the single-wafer search, the
pinned-spec simulation, the multi-wafer (pipelined) search, the
fault-tolerance evaluation, or the GPU comparator cluster.

``evaluate`` returns a :class:`PlanResult` — a flat, JSON-serializable record
with one stable schema across all paths (fields a path does not produce hold
zeros / ``None``). ``evaluate_raw`` returns the underlying rich result object
(:class:`~repro.core.framework.BaselineResult`,
:class:`~repro.core.multiwafer.MultiWaferResult`, ...) for callers that need
simulation reports or :class:`~repro.parallelism.spec.ParallelSpec` objects.

Scenarios evaluated on one service share work through two bounded LRU
memos, both pure memoisation of deterministic computations (so results are
bit-identical to a fresh service per scenario):

* **wafers** — one resolved wafer per geometry + fabric (a multi-wafer
  scenario simulates its stages on the memoised wafer of one chain member);
  its topology's :class:`~repro.hardware.topologies.base.RouteTables`
  memoise routes, ring orderings, and hop factors for every scenario
  evaluated on it;
* **tables** — one solver :class:`~repro.costmodel.tables.CostTables` per
  hardware document + model, re-sliced with
  :meth:`~repro.costmodel.tables.CostTables.subset` when a solve only
  narrows the candidate list.

The hardware document (the scenario's canonical ``hardware`` section) fixes
the wafer and the simulator knobs, which is what makes a cached table valid
for every scenario sharing it. Simulation reports are not memoised across
scenarios: a repeated scenario would then cost nothing, so the price of a
batch of scenarios would depend on how many of them happen to repeat.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.api.scenario import SCHEMA_VERSION, HardwareSpec, Scenario, ScenarioError
from repro.core.fault_tolerance import FaultToleranceResult, evaluate_with_faults
from repro.core.framework import (
    BaselineResult,
    Simulate,
    run_baseline_scenario,
    scheme_max_tp,
    simulate_fixed_spec,
)
from repro.core.multiwafer import MultiWaferResult, run_multiwafer_scenario
from repro.costmodel.tables import CostTables, PlanCache
from repro.hardware.gpu_cluster import GPUCluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span, tracing_enabled
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.simulation.config import SimulatorConfig
from repro.simulation.gpu import GPUClusterSimulator
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.dlws import (
    DualLevelWaferSolver,
    SolverResult,
    TablesProvider,
    build_cost_tables,
)
from repro.solver.genetic import GeneticConfig
from repro.solver.search_space import simulate_with_fallback
from repro.workloads.models import ModelConfig

_GB = 1024 ** 3

#: Entry bounds of the service memos (see :meth:`PlanService.stats`). A
#: wafer carries its route tables (about ``dies**2`` paths); a cost table
#: holds ``ops x specs`` matrices.
WAFER_MEMO_SIZE = 16
TABLES_MEMO_SIZE = 32

#: Result kinds a :class:`PlanResult` can carry.
RESULT_KINDS = ("single_wafer", "fixed_spec", "multi_wafer", "fault",
                "gpu_cluster")


def _serializable_fields(result) -> Dict[str, object]:
    """A result dataclass as a plain dict; non-finite floats become ``None``.

    Single home of the strict-JSON serialisation rule shared by
    :meth:`PlanResult.to_dict` and :meth:`SolverOutcome.to_dict`.
    """
    payload: Dict[str, object] = {}
    for result_field in fields(result):
        value = getattr(result, result_field.name)
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        payload[result_field.name] = value
    return payload


#: PlanResult fields every wafer path reads off its simulation report.
_REPORT_FIELDS = ("memory_gb", "compute_utilization", "bandwidth_utilization",
                  "compute_watts", "dram_watts", "comm_watts", "total_watts",
                  "power_efficiency")


def _report_fields(report: Optional[SimulationReport]) -> Dict[str, float]:
    """The :data:`_REPORT_FIELDS` of ``report``; zeros when there is none."""
    if report is None:
        return dict.fromkeys(_REPORT_FIELDS, 0.0)
    power = report.power
    return dict(zip(_REPORT_FIELDS, (
        report.memory.total / _GB, report.compute_utilization,
        report.bandwidth_utilization, power.compute, power.dram,
        power.communication, power.total, report.power_efficiency)))


@dataclass(frozen=True)
class PlanResult:
    """Flat, serializable outcome of ``PlanService.evaluate``.

    Times are seconds, memory is GiB, throughput is tokens/second, power is
    watts, energy is joules per training step. ``step_time`` may be
    ``inf`` when no configuration produced a report; :meth:`to_dict`
    serialises non-finite floats as ``None`` (strict JSON).
    """

    kind: str
    model: str
    scheme: str
    engine: str
    spec: Optional[str]
    oom: bool
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    memory_gb: float
    throughput: float
    compute_utilization: float
    bandwidth_utilization: float
    compute_watts: float
    dram_watts: float
    comm_watts: float
    total_watts: float
    energy_per_step: float
    power_efficiency: float
    candidates_evaluated: int
    num_wafers: int = 1
    pp_degree: int = 0
    relative_throughput: Optional[float] = None
    schema_version: int = SCHEMA_VERSION

    # Per-request stage timings, attached by PlanService.evaluate when
    # tracing is enabled. Deliberately an un-annotated class attribute —
    # NOT a dataclass field — so to_dict() payloads, the exact-field-set
    # schema check, and cross-path bit-identity are untouched.
    telemetry = None

    @property
    def label(self) -> str:
        """Readable system label like "mesp+gmap"."""
        return f"{self.scheme}+{self.engine}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dict (non-finite floats become ``None``)."""
        return _serializable_fields(self)

    # Builders --------------------------------------------------------------------

    @classmethod
    def from_baseline(cls, result: BaselineResult,
                      kind: str = "single_wafer") -> "PlanResult":
        """Wrap a single-wafer (or fixed-spec) search result."""
        report = result.report
        step_time = report.step_time if report else float("inf")
        return cls(
            kind=kind,
            model=result.model.name,
            scheme=result.scheme.value,
            engine=result.engine,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=result.oom,
            step_time=step_time,
            compute_time=report.compute_time if report else 0.0,
            comm_time=report.total_comm_time if report else 0.0,
            bubble_time=report.bubble_time if report else 0.0,
            throughput=report.throughput if report else 0.0,
            energy_per_step=(
                report.power.total * step_time
                if report and math.isfinite(step_time) else 0.0),
            candidates_evaluated=result.candidates_evaluated,
            pp_degree=result.best_spec.pp if result.best_spec else 0,
            **_report_fields(report),
        )

    @classmethod
    def from_multiwafer(cls, result: MultiWaferResult) -> "PlanResult":
        """Wrap a multi-wafer (pipelined) search result."""
        report = result.report
        return cls(
            kind="multi_wafer",
            model=result.model.name,
            scheme=result.scheme.value,
            engine=result.engine,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=result.oom,
            step_time=result.step_time,
            compute_time=result.compute_time,
            comm_time=result.comm_time,
            bubble_time=result.bubble_time,
            throughput=result.throughput,
            energy_per_step=(
                report.power.total * result.step_time if report else 0.0),
            candidates_evaluated=1,
            num_wafers=result.num_wafers,
            pp_degree=result.best_spec.pp if result.best_spec else 0,
            **_report_fields(report),
        )

    @classmethod
    def from_fault(cls, result: FaultToleranceResult, engine: str,
                   scheme: str) -> "PlanResult":
        """Wrap a fault-tolerance evaluation."""
        report = result.report
        return cls(
            kind="fault",
            model=result.model.name,
            scheme=scheme,
            engine=engine,
            spec=result.spec.label(),
            oom=report.oom,
            step_time=report.step_time,
            compute_time=report.compute_time,
            comm_time=report.total_comm_time,
            bubble_time=report.bubble_time,
            throughput=result.faulty_throughput,
            energy_per_step=report.power.total * report.step_time,
            candidates_evaluated=1,
            relative_throughput=result.relative_throughput,
            **_report_fields(report),
        )

    @classmethod
    def from_gpu(cls, model_name: str, scheme: str, engine: str,
                 step_time: float, throughput: float,
                 candidates_evaluated: int) -> "PlanResult":
        """Wrap a GPU-cluster comparator evaluation."""
        return cls(
            kind="gpu_cluster",
            model=model_name,
            scheme=scheme,
            engine=engine,
            spec=None,
            oom=not math.isfinite(step_time),
            step_time=step_time,
            compute_time=0.0,
            comm_time=0.0,
            bubble_time=0.0,
            throughput=throughput,
            energy_per_step=0.0,
            candidates_evaluated=candidates_evaluated,
            **_report_fields(None),
        )


@dataclass(frozen=True)
class SolverOutcome:
    """Flat, serializable outcome of ``PlanService.solve``."""

    model: str
    spec: Optional[str]
    oom: bool
    step_time: float
    throughput: float
    candidates_considered: int
    finalists_simulated: int
    dp_cost: float
    ga_cost: float
    evaluations: int
    search_seconds: float
    plan_cache_hits: int
    plan_cache_misses: int
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dict (non-finite floats become ``None``)."""
        return _serializable_fields(self)

    @classmethod
    def from_result(cls, result: SolverResult) -> "SolverOutcome":
        """Wrap a :class:`~repro.solver.dlws.SolverResult`."""
        report = result.best_report
        return cls(
            model=result.model.name,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=report.oom if report else True,
            step_time=report.step_time if report else float("inf"),
            throughput=report.throughput if report else 0.0,
            candidates_considered=result.candidates_considered,
            finalists_simulated=result.finalists_simulated,
            dp_cost=result.dp_cost,
            ga_cost=result.ga_cost,
            evaluations=result.evaluations,
            search_seconds=result.search_seconds,
            plan_cache_hits=result.plan_cache_hits,
            plan_cache_misses=result.plan_cache_misses,
        )


#: Union of rich result types ``evaluate_raw`` can return.
RawResult = Union[BaselineResult, MultiWaferResult, FaultToleranceResult,
                  PlanResult]


class _Memo:
    """A bounded LRU memo (the :class:`PlanCache` ``OrderedDict`` pattern)."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The entry under ``key`` (now most recent), or ``None``; uncounted."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Store ``value``, evicting the least recently used entry if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_build(self, key, build: Callable[[], object]):
        """The entry under ``key``, built (and counted a miss) when absent."""
        value = self.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = build()
        self.put(key, value)
        return value

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: ``hits``, ``misses``, ``entries``, ``evictions``."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries), "evictions": self.evictions}


def _hardware_key(scenario: Scenario) -> str:
    """Canonical JSON of the scenario's hardware section (the memo scope)."""
    return json.dumps(scenario.to_dict()["hardware"], sort_keys=True)


class PlanService:
    """Facade dispatching scenarios to the framework's evaluation paths.

    One service instance owns one :class:`PlanCache` plus the wafer and
    cost-table memos (see the module docstring), so every
    scenario it evaluates shares that work — the same sharing the sweep
    orchestrator gives each worker. All of it is pure memoisation: results
    are bit-identical with a private or a shared service.
    """

    def __init__(self) -> None:
        self.plan_cache = PlanCache()
        self.registry = MetricsRegistry()
        self._evaluations = self.registry.counter(
            "service.evaluations", help="PlanService.evaluate calls")
        self._evaluate_hist = self.registry.histogram(
            "service.evaluate_seconds",
            help="end-to-end PlanService.evaluate latency")
        self._wafers = _Memo(WAFER_MEMO_SIZE)
        self._tables = _Memo(TABLES_MEMO_SIZE)

    def stats(self) -> Dict[str, object]:
        """Plain-JSON service counters.

        ``plan_cache`` is :meth:`PlanCache.stats` (hit/miss/size),
        ``wafers_cached`` the number of distinct hardware geometries held,
        and ``memos`` the ``hits`` / ``misses`` / ``entries`` /
        ``evictions`` of the wafer and cost-table memos. Surfaced
        by ``repro plan --stats`` and the plan server's ``GET /metrics``.
        """
        return {
            "plan_cache": self.plan_cache.stats(),
            "wafers_cached": len(self._wafers),
            "memos": {"wafers": self._wafers.stats(),
                      "tables": self._tables.stats()},
        }

    # Memos ------------------------------------------------------------------------

    def wafer_for(self, hardware: HardwareSpec) -> WaferScaleChip:
        """A healthy wafer for ``hardware``, built once per geometry + fabric."""
        topology = (json.dumps(hardware.topology, sort_keys=True)
                    if hardware.topology is not None else None)
        key = (hardware.rows, hardware.cols, hardware.d2d_bandwidth,
               hardware.hbm_capacity, topology)
        return self._wafers.get_or_build(key, hardware.resolve_wafer)

    def _simulate_for(self, scenario: Scenario,
                      wafer: WaferScaleChip) -> Simulate:
        """``simulate(spec, allow_checkpointing)`` on the shared wafer and plan cache."""
        simulator = WaferSimulator(wafer, scenario.hardware.resolve_simulator())
        model = scenario.workload.resolve()
        engine = scenario.solver.engine

        def simulate(spec: ParallelSpec, allow_checkpointing: bool):
            return simulate_with_fallback(
                lambda plan: simulator.simulate(plan, engine=engine),
                self.plan_cache, model, spec, wafer.num_dies,
                allow_checkpointing)

        return simulate

    def _tables_for(self, scenario: Scenario, wafer: WaferScaleChip,
                    config: SimulatorConfig) -> TablesProvider:
        """The solver's ``(model, candidates) -> CostTables`` provider.

        A solve whose candidates the memoised tables of its (hardware,
        model) cover gets a :meth:`CostTables.subset` view of them: cells
        are gathered, never rebuilt, yet the view counts its
        ``cells_materialized`` (the solve's reported ``evaluations``) exactly
        like fresh tables would. Any other list builds fresh tables, which
        replace the memoised ones when they cover more specs.
        """
        hardware_key = _hardware_key(scenario)

        def provider(model: ModelConfig,
                     candidates: Sequence[ParallelSpec]) -> CostTables:
            key = (hardware_key, model)
            wanted = list(candidates)
            parent = self._tables.get(key)
            if parent is not None and all(spec in parent.spec_index
                                          for spec in wanted):
                self._tables.hits += 1
                return parent.subset(wanted)
            self._tables.misses += 1
            tables = build_cost_tables(wafer, config, model, wanted)
            if parent is None or len(wanted) > len(parent.candidates):
                self._tables.put(key, tables)
            return tables

        return provider

    # Entry points ----------------------------------------------------------------

    def evaluate(self, scenario: Scenario) -> PlanResult:
        """Evaluate ``scenario`` and return the flat :class:`PlanResult`.

        With tracing enabled the result additionally carries a
        ``telemetry`` attribute — ``{"evaluate_seconds", "stages"}`` with
        the wall time of each direct child stage span (candidate search,
        simulation, solver levels). It is not a dataclass field: the
        serialized payload stays bit-identical either way.
        """
        start = time.perf_counter()
        with span("service.evaluate",
                  model=scenario.workload.model) as evaluate_span:
            raw = self.evaluate_raw(scenario)
            if isinstance(raw, PlanResult):
                result = raw
            elif isinstance(raw, MultiWaferResult):
                result = PlanResult.from_multiwafer(raw)
            elif isinstance(raw, FaultToleranceResult):
                result = PlanResult.from_fault(
                    raw, engine=scenario.solver.engine,
                    scheme=scenario.solver.scheme)
            else:
                kind = ("fixed_spec"
                        if scenario.solver.fixed_spec is not None
                        else "single_wafer")
                result = PlanResult.from_baseline(raw, kind=kind)
        elapsed = time.perf_counter() - start
        self._evaluations.inc()
        self._evaluate_hist.observe(elapsed)
        if tracing_enabled():
            # object.__setattr__: PlanResult is frozen, and telemetry is a
            # per-instance annotation, not part of the result value.
            object.__setattr__(result, "telemetry", {
                "evaluate_seconds": round(elapsed, 9),
                "stages": {name: round(seconds, 9) for name, seconds
                           in sorted(evaluate_span.stages.items())},
            })
        return result

    def evaluate_raw(self, scenario: Scenario) -> RawResult:
        """Evaluate ``scenario`` and return the path's rich result object."""
        hardware = scenario.hardware
        if hardware.platform == "gpu_cluster":
            return self._evaluate_gpu(scenario)
        if hardware.num_wafers > 1:
            return run_multiwafer_scenario(scenario, self.plan_cache,
                                           self.wafer_for(hardware))
        if hardware.has_fault_study:
            return self._evaluate_faults(scenario)
        wafer = self.wafer_for(hardware)
        simulate = self._simulate_for(scenario, wafer)
        if scenario.solver.fixed_spec is not None:
            return simulate_fixed_spec(scenario, simulate)
        return run_baseline_scenario(scenario, self.plan_cache, wafer,
                                     simulate)

    def solve(self, scenario: Scenario) -> SolverOutcome:
        """Run the dual-level solver on ``scenario`` (flat outcome)."""
        return SolverOutcome.from_result(self.solve_raw(scenario))

    def solve_raw(self, scenario: Scenario) -> SolverResult:
        """Run the dual-level solver and return the rich result."""
        if scenario.hardware.platform != "wafer":
            raise ScenarioError(
                "the dual-level solver only runs on the wafer platform")
        with span("service.solve", model=scenario.workload.model):
            return self._solve_raw(scenario)

    def _solve_raw(self, scenario: Scenario) -> SolverResult:
        solver_spec = scenario.solver
        genetic_config = None
        if solver_spec.ga_generations is not None:
            genetic_config = GeneticConfig(
                generations=solver_spec.ga_generations)
        wafer = self.wafer_for(scenario.hardware)
        config = scenario.hardware.resolve_simulator() or SimulatorConfig()
        solver = DualLevelWaferSolver(
            wafer=wafer,
            config=config,
            genetic_config=genetic_config,
            num_finalists=solver_spec.num_finalists,
            mapping_engine=solver_spec.engine,
            tables_provider=self._tables_for(scenario, wafer, config),
        )
        return solver.solve(
            scenario.workload.resolve(),
            scheme=solver_spec.resolved_scheme(),
            max_tatp=solver_spec.max_tatp,
            pipeline_degrees=solver_spec.pipeline_degrees,
        )

    # Dispatch targets -------------------------------------------------------------

    def _evaluate_faults(self, scenario: Scenario) -> FaultToleranceResult:
        """Fault-tolerance path: pinned spec on a healthy vs faulty wafer."""
        solver = scenario.solver
        if solver.fixed_spec is None:
            raise ScenarioError(
                "fault-tolerance scenarios need solver.fixed_spec (the "
                "configuration to stress) — the fault path does not search")
        fault_model = scenario.hardware.resolve_fault_model(seed=solver.seed)
        return evaluate_with_faults(
            scenario.workload.resolve(),
            solver.resolve_fixed_spec(),
            fault_model,
            config=scenario.hardware.resolve_simulator(),
            engine=solver.engine,
            wafer_config=scenario.hardware.resolve_config(),
        )

    def _evaluate_gpu(self, scenario: Scenario) -> PlanResult:
        """GPU comparator path: best non-OOM configuration on the cluster."""
        model = scenario.workload.resolve()
        solver = scenario.solver
        scheme = solver.resolved_scheme()
        cluster = GPUCluster()
        simulator = GPUClusterSimulator(
            cluster, scenario.hardware.resolve_simulator())
        num_devices = cluster.num_devices
        specs = candidate_specs(
            scheme, num_devices, max_tp=scheme_max_tp(scheme, model),
            max_tatp=solver.max_tatp)
        reports = [simulate_with_fallback(
            simulator.simulate, self.plan_cache, model, spec, num_devices,
            allow_checkpointing=True) for spec in specs]
        # GPU reports carry no memory pressure, so no OOM fallback applies:
        # the fastest fitting report wins (the earliest on a tie).
        best = min((report for report in reports if not report.oom),
                   key=lambda report: report.step_time, default=None)
        best_time = best.step_time if best else float("inf")
        best_throughput = best.throughput if best else 0.0
        return PlanResult.from_gpu(
            model_name=model.name,
            scheme=solver.scheme,
            engine=solver.engine,
            step_time=best_time,
            throughput=best_throughput,
            candidates_evaluated=len(specs),
        )


def validate_result_payload(payload: Dict[str, object]) -> List[str]:
    """Schema-check one serialized :class:`PlanResult` document.

    Used by ``repro plan --validate`` and the CI smoke step: verifies the
    payload carries exactly the PlanResult fields, a supported
    ``schema_version``, a known ``kind``, and only finite (or null) numbers.

    Returns:
        A list of human-readable problems; empty when the payload is valid.
    """
    problems: List[str] = []
    expected = {result_field.name for result_field in fields(PlanResult)}
    missing = expected - set(payload)
    extra = set(payload) - expected
    if missing:
        problems.append(f"missing result keys: {', '.join(sorted(missing))}")
    if extra:
        problems.append(f"unexpected result keys: {', '.join(sorted(extra))}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"result schema_version {version!r} != {SCHEMA_VERSION}")
    kind = payload.get("kind")
    if "kind" in payload and kind not in RESULT_KINDS:
        problems.append(
            f"unknown result kind {kind!r}; expected one of "
            f"{', '.join(RESULT_KINDS)}")
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"non-finite value for {key!r}")
    return problems
