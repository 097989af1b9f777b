"""Link-load accounting and bottleneck identification.

The contention model the simulator uses is load-based: every flow deposits its
per-step bytes on each link of its path; the busiest link bounds how fast the
communication phase can drain. The traffic-conscious optimizer's goal is to
minimise that maximum link load (Fig. 11's ``MaxLoadLink``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.topologies import Topology
from repro.mapping.routing import Flow

LinkKey = Tuple[int, int]


@dataclass
class LinkLoadMap:
    """Per-link byte loads accumulated from a set of flows.

    Attributes:
        loads: bytes per step on every loaded link, from all flows.
        critical: the same, from critical-path flows only (overlappable
            traffic such as TATP streams is left out).
    """

    loads: Dict[LinkKey, float]
    critical: Dict[LinkKey, float]

    @classmethod
    def from_flows(cls, flows: Iterable[Flow]) -> "LinkLoadMap":
        """Accumulate ``loads`` and ``critical`` in one pass over ``flows``."""
        loads: Dict[LinkKey, float] = {}
        critical: Dict[LinkKey, float] = {}
        for flow in flows:
            total = flow.total_bytes
            for link in flow.path:
                key = (link.src, link.dst)
                loads[key] = loads.get(key, 0.0) + total
                if flow.critical:
                    critical[key] = critical.get(key, 0.0) + total
        return cls(loads=loads, critical=critical)

    def max_load(self) -> float:
        """Bytes on the most congested link (0 when there is no traffic)."""
        return max(self.loads.values(), default=0.0)

    def max_load_link(self) -> Optional[LinkKey]:
        """The most congested link, or None when there is no traffic."""
        if not self.loads:
            return None
        return max(self.loads, key=self.loads.get)

    def mean_load(self) -> float:
        """Average bytes over loaded links."""
        if not self.loads:
            return 0.0
        return sum(self.loads.values()) / len(self.loads)

    def total_bytes(self) -> float:
        """Sum of bytes over all links (link-traversals, i.e. bytes x hops)."""
        return sum(self.loads.values())

    def imbalance(self) -> float:
        """Max-to-mean load ratio; 1.0 means perfectly balanced traffic."""
        mean = self.mean_load()
        if mean <= 0:
            return 1.0
        return self.max_load() / mean

    def utilization(
        self, topology: Topology, window_seconds: float, bandwidth: float
    ) -> float:
        """Average utilisation of all the fabric's links over a time window.

        Args:
            topology: the fabric whose link count normalises the figure.
            window_seconds: duration of the execution window.
            bandwidth: per-link bandwidth in bytes/second.
        """
        if window_seconds <= 0 or bandwidth <= 0:
            return 0.0
        total_capacity = len(topology.links()) * bandwidth * window_seconds
        if total_capacity <= 0:
            return 0.0
        return min(1.0, self.total_bytes() / total_capacity)


def flows_through(flows: Sequence[Flow], link: LinkKey) -> List[Flow]:
    """Flows whose path traverses ``link`` (the optimizer's ``HotPaths``)."""
    hot: List[Flow] = []
    for flow in flows:
        if any((hop.src, hop.dst) == link for hop in flow.path):
            hot.append(flow)
    return hot
