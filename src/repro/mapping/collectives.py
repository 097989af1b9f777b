"""Expansion of communication tasks into link-level flows.

Every :class:`~repro.parallelism.comm.CommTask` is expanded over each of its
concrete die groups into ordered ``(src, dst)`` pairs, each routed into one
flow:

* **ring collectives** (all-reduce, all-gather, reduce-scatter, broadcast) —
  consecutive members of the group's ring ordering, closed by the
  wrap-around. When the group admits a contiguous physical ring (see
  :meth:`Topology.contiguous_ring`), every flow is one hop; otherwise the
  flows follow multi-hop routes and the hop factor records the tail-latency
  penalty.
* **TATP streams** — bidirectional neighbour pairs along the group's chain
  ordering (Algorithm 1 only ever sends one hop along the chain).
* **P2P** — one pair per consecutive members, in the given order.

Ring and stream hop factors are measured with :meth:`Topology.hop_cost` —
the fabric's weighted hop model — so a chain step crossing, say, a vertical
TSV or a chiplet backbone wire is charged its latency factor. On the default
mesh ``hop_cost`` equals the Manhattan hop distance, keeping the seed
behaviour bit-identical. P2P hop factors are the routed path length.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.hardware.topologies import Topology
from repro.mapping.routing import Flow, route_flow
from repro.parallelism.comm import CollectiveType, CommTask


def order_group_for_ring(
    topology: Topology, group: Sequence[int]
) -> Tuple[List[int], bool]:
    """Order a die group for ring communication.

    Returns the ordering plus a flag saying whether it is a contiguous
    physical ring (every consecutive pair, including the wrap-around, is one
    hop apart). Non-ring groups fall back to a nearest-neighbour chain
    ordering that keeps logical neighbours as physically close as possible.
    """
    members = list(group)
    if len(members) <= 1:
        return members, True
    tables = topology.route_tables
    key = tuple(members)
    cached = tables.rings.get(key)
    if cached is not None:
        tables.hits += 1
        return list(cached[0]), cached[1]
    ring = topology.contiguous_ring(members)
    ordering, is_ring = ((ring, True) if ring is not None
                         else (_greedy_chain(topology, members), False))
    tables.misses += 1
    tables.rings[key] = (tuple(ordering), is_ring)
    return ordering, is_ring


def _greedy_chain(topology: Topology, members: Sequence[int]) -> List[int]:
    """Greedy nearest-neighbour ordering of a die group."""
    remaining = list(members)
    chain = [remaining.pop(0)]
    while remaining:
        last = chain[-1]
        nearest = min(remaining, key=lambda die: topology.hop_cost(last, die))
        remaining.remove(nearest)
        chain.append(nearest)
    return chain


def ring_hop_factor(
    topology: Topology, ordering: Sequence[int], closed: bool
) -> int:
    """Worst weighted hop cost between logically adjacent members of an
    ordering (see :meth:`Topology.hop_cost`)."""
    if len(ordering) <= 1:
        return 0
    tables = topology.route_tables
    key = (tuple(ordering), closed)
    cached = tables.ring_hops.get(key)
    if cached is not None:
        tables.hits += 1
        return cached
    pairs = list(zip(ordering, list(ordering[1:])))
    if closed:
        pairs.append((ordering[-1], ordering[0]))
    worst = max(topology.hop_cost(a, b) for a, b in pairs)
    tables.misses += 1
    tables.ring_hops[key] = worst
    return worst


def expand_task(
    task: CommTask,
    groups: Sequence[Sequence[int]],
    topology: Topology,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    """Expand ``task`` over its die groups into routed flows (see the module
    docstring for the pairs and the hop rule of each task kind).

    Args:
        task: the communication task.
        groups: the concrete die groups realising the task (one entry per
            parallel group of the task's dimension).
        topology: the wafer fabric used for routing.
        reorder_groups: whether to reorder each ring / stream group into a
            physical ring / nearest-neighbour chain before expanding
            (topology-aware mappers do; the naive SMap keeps the logical
            order it was given). P2P chains always keep their order.

    Returns:
        ``(flows, hop_factor)`` where ``hop_factor`` is the worst physical hop
        distance any logical step of the task incurs across all groups (1 for
        perfectly contiguous mappings; >1 signals tail latency).
    """
    if task.is_trivial:
        return [], 0
    p2p = task.kind is CollectiveType.P2P
    stream = task.kind is CollectiveType.STREAM
    critical = not task.overlappable
    flows: List[Flow] = []
    worst_hop = 0
    for group in groups:
        if len(group) <= 1:
            continue
        if reorder_groups and not p2p:
            ordering, _ = order_group_for_ring(topology, group)
        else:
            ordering = list(group)
        pairs = list(zip(ordering, ordering[1:]))
        if stream:
            pairs = [pair for src, dst in pairs
                     for pair in ((src, dst), (dst, src))]
        elif not p2p:
            pairs.append((ordering[-1], ordering[0]))
        group_flows = [
            route_flow(topology, src, dst,
                       num_bytes=task.bytes_per_device,
                       count=task.count,
                       task_label=task.label,
                       critical=critical)
            for src, dst in pairs
        ]
        if p2p:
            hops = max(flow.hops for flow in group_flows)
        else:
            hops = ring_hop_factor(topology, ordering, closed=not stream)
        flows.extend(group_flows)
        worst_hop = max(worst_hop, hops, 1)
    return flows, worst_hop
