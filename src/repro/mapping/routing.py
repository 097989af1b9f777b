"""Link-level flows and their routes on the wafer fabric.

A :class:`Flow` is the unit the contention analysis works with: "this many
bytes travel from die A to die B along this path, `count` times per training
step". Collective expansion (:mod:`repro.mapping.collectives`) produces flows;
the traffic-conscious optimizer may later reroute them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.hardware.topologies import Link, Topology


@dataclass
class Flow:
    """A routed point-to-point traffic component.

    Attributes:
        src: source die id.
        dst: destination die id.
        num_bytes: bytes carried per execution.
        count: executions per training step.
        task_label: label of the communication task this flow belongs to.
        path: the directed links the flow traverses (empty when src == dst).
            Routed flows share the tuple with the topology's route tables.
        critical: whether the parent task sits on the critical path (False for
            overlappable traffic such as TATP streams).
    """

    src: int
    dst: int
    num_bytes: float
    count: float = 1.0
    task_label: str = ""
    path: Tuple[Link, ...] = ()
    critical: bool = True

    @property
    def total_bytes(self) -> float:
        """Bytes per step contributed by this flow."""
        return self.num_bytes * self.count

    @property
    def hops(self) -> int:
        """Number of links the flow traverses."""
        return len(self.path)

    def rerouted(self, path: Sequence[Link]) -> "Flow":
        """Return a copy of the flow following a different path."""
        if path and (path[0].src != self.src or path[-1].dst != self.dst):
            raise ValueError(
                f"path endpoints {path[0].src}->{path[-1].dst} do not match "
                f"flow {self.src}->{self.dst}")
        return replace(self, path=tuple(path))


def route_flow(
    topology: Topology,
    src: int,
    dst: int,
    num_bytes: float,
    count: float = 1.0,
    task_label: str = "",
    critical: bool = True,
) -> Flow:
    """Create a flow following the fabric's canonical route.

    On mesh-like fabrics the canonical route is dimension-ordered (XY); other
    families route by deterministic BFS. Falls back to a BFS shortest path
    when the canonical route is blocked by failed links.
    """
    if src == dst:
        path: Tuple[Link, ...] = ()
    else:
        tables = topology.route_tables
        cached = tables.paths.get((src, dst))
        if cached is not None:
            tables.hits += 1
            path = cached
        else:
            try:
                found = topology.xy_route(src, dst)
            except KeyError:
                found = topology.shortest_path(src, dst)
                if found is None:
                    raise ValueError(
                        f"no route between die {src} and die {dst} "
                        "(too many failed links)") from None
            path = tuple(found)
            tables.misses += 1
            tables.paths[(src, dst)] = path
    return Flow(
        src=src,
        dst=dst,
        num_bytes=num_bytes,
        count=count,
        task_label=task_label,
        path=path,
        critical=critical,
    )
