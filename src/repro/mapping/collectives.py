"""Expansion of communication tasks into link-level flows.

Every :class:`~repro.parallelism.comm.CommTask` is expanded over each of its
concrete die groups:

* **ring collectives** (all-reduce, all-gather, reduce-scatter, broadcast) —
  flows between consecutive members of the group's ring ordering. When the
  group admits a contiguous physical ring (see
  :meth:`Topology.contiguous_ring`), every flow is one hop; otherwise the
  flows follow multi-hop routes and the hop factor records the tail-latency
  penalty.

Hop factors are measured with :meth:`Topology.hop_cost` — the fabric's
weighted hop model — so a chain step crossing, say, a vertical TSV or a
chiplet backbone wire is charged its latency factor. On the default mesh
``hop_cost`` equals the Manhattan hop distance, keeping the seed behaviour
bit-identical.
* **P2P** — a single flow between the two members.
* **TATP streams** — bidirectional neighbour flows along the group's chain
  ordering (Algorithm 1 only ever sends one hop along the chain).
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
    prefer_yx: bool = False,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    """Expand ``task`` over its die groups into routed flows.

    Args:
        task: the communication task.
        groups: the concrete die groups realising the task (one entry per
            parallel group of the task's dimension).
        topology: the wafer fabric used for routing.
        prefer_yx: route with YX instead of XY dimension order (used by the
            optimizer to spread traffic).
        reorder_groups: whether to reorder each group into a physical ring /
            nearest-neighbour chain before expanding (topology-aware mappers
            do; the naive SMap keeps the logical order it was given).

    Returns:
        ``(flows, hop_factor)`` where ``hop_factor`` is the worst physical hop
        distance any logical step of the task incurs across all groups (1 for
        perfectly contiguous mappings; >1 signals tail latency).
    """
    if task.is_trivial:
        return [], 0
    flows: List[Flow] = []
    worst_hop = 0
    for group in groups:
        members = [die for die in group]
        if len(members) <= 1:
            continue
        if task.kind is CollectiveType.P2P:
            group_flows, hops = _expand_p2p(task, members, topology, prefer_yx)
        elif task.kind is CollectiveType.STREAM:
            group_flows, hops = _expand_stream(
                task, members, topology, prefer_yx, reorder_groups)
        else:
            group_flows, hops = _expand_ring_collective(
                task, members, topology, prefer_yx, reorder_groups)
        flows.extend(group_flows)
        worst_hop = max(worst_hop, hops)
    return flows, worst_hop


def _expand_ring_collective(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
    prefer_yx: bool,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    if reorder_groups:
        ordering, is_ring = order_group_for_ring(topology, members)
    else:
        ordering, is_ring = list(members), False
    hop_factor = ring_hop_factor(topology, ordering, closed=True)
    flows: List[Flow] = []
    pairs = list(zip(ordering, list(ordering[1:]) + [ordering[0]]))
    for src, dst in pairs:
        flows.append(route_flow(
            topology, src, dst,
            num_bytes=task.bytes_per_device,
            count=task.count,
            task_label=task.label,
            dimension=task.dimension,
            critical=not task.overlappable,
            prefer_yx=prefer_yx,
        ))
    return flows, max(hop_factor, 1)


def _expand_p2p(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
    prefer_yx: bool,
) -> Tuple[List[Flow], int]:
    flows: List[Flow] = []
    worst = 1
    for src, dst in zip(members, members[1:]):
        flow = route_flow(
            topology, src, dst,
            num_bytes=task.bytes_per_device,
            count=task.count,
            task_label=task.label,
            dimension=task.dimension,
            critical=not task.overlappable,
            prefer_yx=prefer_yx,
        )
        flows.append(flow)
        worst = max(worst, max(flow.hops, 1))
    return flows, worst


def _expand_stream(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
    prefer_yx: bool,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    """TATP streaming: bidirectional flows between chain neighbours."""
    if reorder_groups:
        ordering, _ = order_group_for_ring(topology, members)
    else:
        ordering = list(members)
    # The bidirectional orchestration only needs a chain, not a closed ring.
    chain_pairs = list(zip(ordering, ordering[1:]))
    hop_factor = 1
    if chain_pairs:
        hop_factor = ring_hop_factor(topology, ordering, closed=False)
    flows: List[Flow] = []
    for src, dst in chain_pairs:
        for a, b in ((src, dst), (dst, src)):
            flows.append(route_flow(
                topology, a, b,
                num_bytes=task.bytes_per_device,
                count=task.count,
                task_label=task.label,
                dimension=task.dimension,
                critical=not task.overlappable,
                prefer_yx=prefer_yx,
            ))
    return flows, max(hop_factor, 1)
