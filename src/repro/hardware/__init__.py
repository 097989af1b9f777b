"""Hardware models for wafer-scale chips (WSCs) and comparator systems.

This subpackage models the physical substrate the TEMP framework targets:

* :mod:`repro.hardware.config` — dataclasses mirroring Table I of the paper
  (die area, SRAM/HBM capacity, D2D bandwidth/latency/energy, compute power).
* :mod:`repro.hardware.topologies` — the topology zoo: registered
  interconnect fabric families (the paper's 2D mesh by default, plus torus,
  stacked 3D mesh, hierarchical chiplet, express-channel mesh) sharing one
  ``Topology`` protocol for links, routing, and ring enumeration.
* :mod:`repro.hardware.wafer` — the :class:`WaferScaleChip` system object that
  ties a configuration to a topology and exposes per-die resources.
* :mod:`repro.hardware.multiwafer` — multi-wafer systems connected by
  inter-wafer links (used by the Fig. 19 scalability study).
* :mod:`repro.hardware.gpu_cluster` — a switch-based GPU cluster comparator
  (A100-class) used by the Fig. 15 comparison.
* :mod:`repro.hardware.faults` — link/core fault injection used by the
  fault-tolerance study (Fig. 20).
"""

from repro.hardware.config import (
    ComputeDieConfig,
    GPUClusterConfig,
    GPUDeviceConfig,
    HBMConfig,
    LinkConfig,
    WaferConfig,
    default_wafer_config,
)
from repro.hardware.topologies import (
    Link,
    MeshTopology,
    Topology,
    build_topology,
    die_coord,
    die_id,
    topology_names,
)
from repro.hardware.wafer import Die, WaferScaleChip
from repro.hardware.multiwafer import MultiWaferSystem
from repro.hardware.gpu_cluster import GPUCluster
from repro.hardware.faults import FaultModel, FaultType

__all__ = [
    "ComputeDieConfig",
    "GPUClusterConfig",
    "GPUDeviceConfig",
    "HBMConfig",
    "LinkConfig",
    "WaferConfig",
    "default_wafer_config",
    "Link",
    "MeshTopology",
    "Topology",
    "build_topology",
    "topology_names",
    "die_id",
    "die_coord",
    "Die",
    "WaferScaleChip",
    "MultiWaferSystem",
    "GPUCluster",
    "FaultModel",
    "FaultType",
]
