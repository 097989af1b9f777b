"""The typed, serializable plan-request tree of the Scenario API.

A :class:`Scenario` is the one request shape every entry point of the
framework speaks: the runner's cell runners, the ``repro plan`` CLI, and any
future server front-end all construct a Scenario and hand it to
:class:`repro.api.service.PlanService`. It is a frozen dataclass tree —

* :class:`WorkloadSpec` — what is being trained (a model-zoo name or inline
  hyper-parameters, plus batch/sequence/depth overrides),
* :class:`HardwareSpec` — what it runs on (wafer geometry and bandwidth
  overrides, multi-wafer and fault knobs, or the GPU comparator cluster),
* :class:`SolverSpec` — how the configuration is chosen (partitioning
  scheme, mapping engine, search caps, ablation switches, or a pinned
  parallel spec that skips the search entirely)

— with a strict ``to_dict``/``from_dict``/JSON round-trip: unknown keys are
rejected, ``schema_version`` mismatches raise, and
``Scenario.from_dict(s.to_dict()) == s`` holds for every scenario (pinned
over all registered experiment grids in ``tests/api/test_scenario.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.hardware.config import WaferConfig, default_wafer_config
from repro.hardware.faults import FaultModel
from repro.hardware.topologies import (
    DEFAULT_TOPOLOGY,
    Topology,
    build_topology,
    validate_topology_spec,
)
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import BaselineScheme
from repro.parallelism.spec import ParallelSpec
from repro.simulation.config import SimulatorConfig
from repro.workloads.models import ModelConfig, get_model

#: Version of the serialized scenario format. Bump on incompatible changes;
#: :func:`Scenario.from_dict` rejects documents of any other version.
SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """A scenario document or field is invalid."""


@dataclass(frozen=True)
class WorkloadSpec:
    """What is being trained.

    Exactly one of ``model`` (a model-zoo name, see
    :func:`repro.workloads.models.list_models`) or ``hyperparams`` (inline
    :class:`~repro.workloads.models.ModelConfig` fields, see
    :meth:`ModelConfig.from_dict`) must be set before :meth:`resolve` is
    called; the batch/sequence/depth overrides apply on top of either.
    """

    model: Optional[str] = None
    hyperparams: Optional[Mapping[str, object]] = None
    batch_size: Optional[int] = None
    seq_length: Optional[int] = None
    num_layers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hyperparams is not None:
            object.__setattr__(self, "hyperparams", dict(self.hyperparams))

    def resolve(self) -> ModelConfig:
        """Build the concrete :class:`ModelConfig` this spec describes."""
        if (self.model is None) == (self.hyperparams is None):
            raise ScenarioError(
                "workload needs exactly one of 'model' (zoo name) or "
                "'hyperparams' (inline ModelConfig fields)")
        if self.model is not None:
            try:
                base = get_model(self.model)
            except KeyError as error:
                raise ScenarioError(str(error.args[0])) from None
        else:
            try:
                base = ModelConfig.from_dict(self.hyperparams)
            except (TypeError, ValueError) as error:
                raise ScenarioError(f"invalid inline workload: {error}") from None
        return base.with_overrides(
            batch_size=self.batch_size,
            seq_length=self.seq_length,
            num_layers=self.num_layers,
        )


@dataclass(frozen=True)
class HardwareSpec:
    """What the workload runs on.

    Attributes:
        platform: ``"wafer"`` (the default wafer-scale chip) or
            ``"gpu_cluster"`` (the Fig. 15 A100 comparator).
        rows / cols: die grid geometry (Table I evaluates 4x8).
        d2d_bandwidth: optional per-link D2D bandwidth override in bytes/s.
        hbm_capacity: optional per-die HBM capacity override in bytes.
        base_mfu: optional sustained-MFU override of the simulator (the
            power/efficiency knob of :class:`SimulatorConfig`).
        num_wafers: >1 dispatches to the multi-wafer (pipelined) path.
        num_microbatches: pipeline microbatches of the multi-wafer path.
        link_fault_rate / core_fault_rate: when not ``None``, the scenario is
            a fault-tolerance evaluation at that rate (0.0 is a valid rate:
            the fault path runs with an empty fault model). Faults are
            sampled deterministically from the solver's ``seed``.
        topology: optional interconnect-fabric spec dict
            (``{"name": ..., **params}``, see
            :mod:`repro.hardware.topologies`). ``None`` means the default
            mesh; an explicit ``{"name": "mesh"}`` is equivalent but
            cache-key distinct. Non-mesh fabrics are single-wafer only and
            cannot be combined with fault injection (those paths model the
            mesh fabric).
    """

    platform: str = "wafer"
    rows: int = 4
    cols: int = 8
    d2d_bandwidth: Optional[float] = None
    hbm_capacity: Optional[float] = None
    base_mfu: Optional[float] = None
    num_wafers: int = 1
    num_microbatches: int = 16
    link_fault_rate: Optional[float] = None
    core_fault_rate: Optional[float] = None
    topology: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if self.platform not in ("wafer", "gpu_cluster"):
            raise ScenarioError(
                f"platform must be 'wafer' or 'gpu_cluster', got "
                f"{self.platform!r}")
        if self.rows < 1 or self.cols < 1:
            raise ScenarioError(
                f"die grid must be positive, got {self.rows}x{self.cols}")
        if self.topology is not None:
            object.__setattr__(self, "topology", dict(self.topology))
            try:
                validate_topology_spec(self.topology, self.rows, self.cols)
            except ValueError as error:
                raise ScenarioError(f"invalid topology: {error}") from None
        if self.num_wafers < 1:
            raise ScenarioError(f"num_wafers must be >= 1, got {self.num_wafers}")
        if self.num_microbatches < 1:
            raise ScenarioError("num_microbatches must be >= 1")
        for name in ("link_fault_rate", "core_fault_rate"):
            rate = getattr(self, name)
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ScenarioError(f"{name} must be in [0, 1], got {rate}")
        # The evaluation paths are mutually exclusive: reject combinations no
        # dispatch target implements rather than silently dropping a knob.
        if self.platform == "gpu_cluster":
            if self.num_wafers > 1:
                raise ScenarioError(
                    "the gpu_cluster platform has no multi-wafer path; "
                    "set num_wafers=1")
            if self.link_fault_rate is not None or self.core_fault_rate is not None:
                raise ScenarioError(
                    "fault injection is only modelled on the wafer platform")
            if self.topology is not None:
                raise ScenarioError(
                    "topology describes the wafer fabric and does not apply "
                    "to the gpu_cluster comparator")
            defaults = HardwareSpec.__dataclass_fields__
            if ((self.rows, self.cols) != (defaults["rows"].default,
                                           defaults["cols"].default)
                    or self.d2d_bandwidth is not None
                    or self.hbm_capacity is not None):
                raise ScenarioError(
                    "rows/cols/d2d_bandwidth/hbm_capacity describe the wafer "
                    "and are not applied to the gpu_cluster comparator; "
                    "leave them at their defaults")
        elif self.num_wafers > 1 and (self.link_fault_rate is not None
                                      or self.core_fault_rate is not None):
            raise ScenarioError(
                "fault injection on multi-wafer systems is not modelled; "
                "use num_wafers=1 for fault studies")
        # The fault path builds its own healthy and faulty mesh wafers, and
        # the multi-wafer path chains mesh wafers (it simulates a stage on the
        # service's wafer); only the single-wafer paths model other fabrics.
        if (self.topology is not None
                and self.topology.get("name") != DEFAULT_TOPOLOGY):
            if self.num_wafers > 1:
                raise ScenarioError(
                    "non-mesh topologies are single-wafer only; the "
                    "multi-wafer path models mesh wafers")
            if self.has_fault_study:
                raise ScenarioError(
                    "fault injection is only modelled on the mesh fabric; "
                    "drop the fault rates or use the mesh topology")

    @property
    def has_fault_study(self) -> bool:
        """Whether this scenario asks for the fault-tolerance path."""
        return self.link_fault_rate is not None or self.core_fault_rate is not None

    @property
    def num_dies(self) -> int:
        """Dies per wafer."""
        return self.rows * self.cols

    def resolve_config(self) -> WaferConfig:
        """The :class:`WaferConfig` (geometry + overrides) of one wafer."""
        return default_wafer_config(
            rows=self.rows, cols=self.cols,
            d2d_bandwidth=self.d2d_bandwidth,
            hbm_capacity=self.hbm_capacity,
        )

    def resolve_wafer(self) -> WaferScaleChip:
        """A healthy wafer built from :meth:`resolve_config`."""
        return WaferScaleChip(self.resolve_config(), topology=self.topology)

    def resolve_topology(self) -> "Topology":
        """The healthy interconnect fabric this spec describes."""
        return build_topology(self.topology, self.rows, self.cols)

    def resolve_simulator(self) -> Optional[SimulatorConfig]:
        """Simulator knobs, or ``None`` when the defaults apply unchanged."""
        if self.base_mfu is None:
            return None
        return SimulatorConfig(base_mfu=self.base_mfu)

    def resolve_fault_model(self, seed: int = 0) -> FaultModel:
        """Deterministically sample the fault model this spec describes."""
        model = FaultModel()
        if self.link_fault_rate:
            model = model.merged_with(FaultModel.sample_link_faults(
                self.rows, self.cols, self.link_fault_rate, seed=seed))
        if self.core_fault_rate:
            model = model.merged_with(FaultModel.sample_core_faults(
                self.num_dies, self.core_fault_rate, seed=seed))
        return model


#: Valid keys of :attr:`SolverSpec.fixed_spec` (ParallelSpec fields).
_FIXED_SPEC_KEYS = ("dp", "tp", "sp", "cp", "fsdp", "tatp", "pp",
                    "sp_within_tp", "zero1_optimizer")


@dataclass(frozen=True)
class SolverSpec:
    """How the parallel configuration is chosen.

    Attributes:
        scheme: partitioning scheme (a :class:`BaselineScheme` value:
            ``"temp"``, ``"mesp"``, ``"fsdp"``, ``"megatron1"``).
        engine: mapping engine name (``"tcme"``, ``"gmap"``, ``"smap"``,
            ``"scattered"``); informational for the GPU-cluster platform.
        max_tatp: cap on the TATP degree the search explores.
        pipeline_degrees: pipeline degrees combined with the intra-stage
            space (single-wafer runs keep the default ``(1,)``).
        max_candidates: optional cap on simulated candidates (evenly
            downsampled, endpoints kept).
        num_finalists: finalists the dual-level solver simulates.
        ga_generations: optional genetic-refinement generation override.
        seed: RNG seed for seeded sub-systems (fault sampling, cost-model
            training).
        fixed_spec: when set, the search is skipped and exactly this
            :class:`ParallelSpec` (given as a field dict) is evaluated.
        allow_checkpoint_fallback: retry an OOM fixed-spec evaluation with
            full activation checkpointing before reporting the OOM.
    """

    scheme: str = "temp"
    engine: str = "tcme"
    max_tatp: int = 32
    pipeline_degrees: Tuple[int, ...] = (1,)
    max_candidates: Optional[int] = None
    num_finalists: int = 8
    ga_generations: Optional[int] = None
    seed: int = 0
    fixed_spec: Optional[Mapping[str, object]] = None
    allow_checkpoint_fallback: bool = True

    def __post_init__(self) -> None:
        valid_schemes = tuple(scheme.value for scheme in BaselineScheme)
        if self.scheme not in valid_schemes:
            raise ScenarioError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{', '.join(valid_schemes)}")
        if not self.engine or not isinstance(self.engine, str):
            raise ScenarioError(f"engine must be a non-empty string, got "
                                f"{self.engine!r}")
        object.__setattr__(
            self, "pipeline_degrees",
            tuple(int(degree) for degree in self.pipeline_degrees))
        if self.fixed_spec is not None:
            fixed = dict(self.fixed_spec)
            unknown = sorted(set(fixed) - set(_FIXED_SPEC_KEYS))
            if unknown:
                raise ScenarioError(
                    f"unknown fixed_spec keys: {', '.join(unknown)}; valid: "
                    f"{', '.join(_FIXED_SPEC_KEYS)}")
            object.__setattr__(self, "fixed_spec", fixed)

    @classmethod
    def for_framework(
        cls,
        enable_tatp: bool = True,
        enable_tcme: bool = True,
        max_tatp: int = 32,
        pipeline_degrees: Sequence[int] = (1,),
        max_candidates: Optional[int] = None,
    ) -> "SolverSpec":
        """The TEMP framework's solver spec under its two ablation switches.

        This is the single home of the framework's scheme/engine resolution:
        disabling TATP drops the space to FSDP (and pins ``max_tatp`` to 1),
        disabling TCME falls back to the naive sequential mapper.
        """
        return cls(
            scheme=(BaselineScheme.TEMP if enable_tatp
                    else BaselineScheme.FSDP).value,
            engine="tcme" if enable_tcme else "smap",
            max_tatp=max_tatp if enable_tatp else 1,
            pipeline_degrees=tuple(pipeline_degrees),
            max_candidates=max_candidates,
        )

    def resolved_scheme(self) -> BaselineScheme:
        """The scheme as a :class:`BaselineScheme` member."""
        return BaselineScheme(self.scheme)

    def resolve_fixed_spec(self) -> ParallelSpec:
        """The pinned :class:`ParallelSpec` (requires ``fixed_spec``)."""
        if self.fixed_spec is None:
            raise ScenarioError("solver has no fixed_spec to resolve")
        try:
            return ParallelSpec(**self.fixed_spec)
        except (TypeError, ValueError) as error:
            raise ScenarioError(f"invalid fixed_spec: {error}") from None


@dataclass(frozen=True)
class Scenario:
    """One complete plan request: workload + hardware + solver."""

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario schema_version {self.schema_version!r} is not "
                f"supported; this build speaks version {SCHEMA_VERSION}")

    # Serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON document; inverse of :meth:`from_dict`."""
        return {
            "schema_version": self.schema_version,
            "workload": _section_to_dict(self.workload),
            "hardware": _section_to_dict(self.hardware),
            "solver": _section_to_dict(self.solver),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Strictly parse a scenario document.

        Raises:
            ScenarioError: on a non-mapping document, a missing or
                unsupported ``schema_version``, or any unknown key at any
                level. Missing sections (and missing fields inside a
                section) take their defaults.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario document must be a JSON object, got "
                f"{type(data).__name__}")
        remaining = dict(data)
        if "schema_version" not in remaining:
            raise ScenarioError("scenario document is missing 'schema_version'")
        version = remaining.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario schema_version {version!r} is not supported; "
                f"this build speaks version {SCHEMA_VERSION}")
        sections = {
            "workload": WorkloadSpec,
            "hardware": HardwareSpec,
            "solver": SolverSpec,
        }
        kwargs: Dict[str, object] = {}
        for name, section_cls in sections.items():
            raw = remaining.pop(name, None)
            if raw is None:
                continue
            kwargs[name] = _section_from_dict(section_cls, name, raw)
        if remaining:
            raise ScenarioError(
                f"unknown scenario keys: {', '.join(sorted(remaining))}; "
                f"expected schema_version, workload, hardware, solver")
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """The document as a JSON string (sorted keys, strict floats)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a JSON string through :meth:`from_dict`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """The canonical serialized form: sorted keys, no whitespace.

        Two scenarios have the same canonical JSON iff they are equal, no
        matter what key order their source documents used — this string is
        what :meth:`cache_key` hashes.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def cache_key(self) -> str:
        """Stable content hash of this scenario (64 hex chars, SHA-256).

        The key is derived from :meth:`canonical_json`, so it is invariant
        to document key ordering and changes whenever any spec field
        changes. It identifies a scenario across processes and restarts:
        the plan server's dedup map and result store are keyed by it.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    # Convenience -----------------------------------------------------------------

    def with_fixed_spec(self, spec: ParallelSpec) -> "Scenario":
        """A copy of this scenario pinned to one :class:`ParallelSpec`."""
        fixed = {name: value for name, value in spec.as_dict().items()
                 if value > 1}
        if spec.sp_within_tp:
            fixed["sp_within_tp"] = True
        if not spec.zero1_optimizer:
            fixed["zero1_optimizer"] = False
        return replace(self, solver=replace(self.solver, fixed_spec=fixed))

    def describe(self) -> str:
        """Compact one-line summary for logs and CLI output."""
        workload = self.workload.model or "<inline>"
        hardware = f"{self.hardware.rows}x{self.hardware.cols}"
        if self.hardware.num_wafers > 1:
            hardware += f"*{self.hardware.num_wafers}"
        if self.hardware.platform != "wafer":
            hardware = self.hardware.platform
        return (f"{workload} on {hardware} via "
                f"{self.solver.scheme}+{self.solver.engine}")


def _section_to_dict(section) -> Dict[str, object]:
    """One spec dataclass as a plain dict (tuples become lists)."""
    result: Dict[str, object] = {}
    for spec_field in dataclasses.fields(section):
        value = getattr(section, spec_field.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Mapping):
            value = dict(value)
        result[spec_field.name] = value
    return result


def _section_from_dict(section_cls, name: str, raw) -> object:
    """Strictly build one spec dataclass from its document section."""
    if not isinstance(raw, Mapping):
        raise ScenarioError(
            f"scenario section {name!r} must be an object, got "
            f"{type(raw).__name__}")
    known = {spec_field.name for spec_field in dataclasses.fields(section_cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ScenarioError(
            f"unknown {name} keys: {', '.join(unknown)}; valid: "
            f"{', '.join(sorted(known))}")
    try:
        return section_cls(**raw)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as error:
        # E.g. a wrong-typed field value ({"rows": "4"}) raising TypeError
        # inside __post_init__ — still a document problem, not a crash.
        raise ScenarioError(f"invalid {name} section: {error}") from None
