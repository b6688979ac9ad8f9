"""Collective-communication constraint graphs (after SCCL).

Synthesizing collective algorithms (arxiv 2008.08708) maps cleanly
onto this repo's model: a collective schedule on a multi-node
accelerator machine induces a set of point-to-point channels with
sustained rates, and the question "which channels share a physical
lane" is exactly the paper's K-way merging.  These generators emit the
channel sets of the four textbook collectives on a parametric
machine — ``nodes`` servers, ``accels_per_node`` accelerators each —
so merging-heavy instances can stress decompose at scale.

Geometry: nodes sit on a circle whose chord between neighbours is
``node_separation``; each node's accelerators sit on a small circle of
radius ``accel_spread`` around the node center.  Intra-node channels
are therefore short (an NVLink-class link reaches them) while
cross-node channels are long (only a NIC-class link reaches) — the
distance structure that makes lane sharing pay.

Rates: ``rate`` is the collective's per-rank steady-state rate (bits/s
of result produced per rank).  Each generator derives per-channel
bandwidths from the standard cost model of its algorithm — e.g. a ring
allreduce moves ``2 (K-1)/K`` times the data per link.

All generators are parametric and deterministic — no RNG.
"""

from __future__ import annotations

import math
from typing import List

from ..core.constraint_graph import ConstraintGraph
from ..core.exceptions import ModelError
from ..core.geometry import EUCLIDEAN, Point

__all__ = [
    "ring_allreduce_graph",
    "tree_allreduce_graph",
    "allgather_graph",
    "all_to_all_graph",
]


def _accelerator_ports(
    graph: ConstraintGraph,
    nodes: int,
    accels_per_node: int,
    node_separation: float,
    accel_spread: float,
) -> List[str]:
    """Place every accelerator port; returns names in rank order
    (node-major: n0a0, n0a1, ..., n1a0, ...)."""
    if nodes < 1:
        raise ModelError(f"nodes must be >= 1, got {nodes}")
    if accels_per_node < 1:
        raise ModelError(f"accels_per_node must be >= 1, got {accels_per_node}")
    if nodes * accels_per_node < 2:
        raise ModelError("a collective needs at least 2 accelerators")
    if node_separation <= 0 or accel_spread <= 0:
        raise ModelError("node_separation and accel_spread must be positive")
    # circle whose chord between adjacent nodes equals node_separation
    radius = (
        node_separation / (2.0 * math.sin(math.pi / nodes)) if nodes > 1 else 0.0
    )
    names: List[str] = []
    for n in range(nodes):
        angle = 2.0 * math.pi * n / nodes
        cx, cy = radius * math.cos(angle), radius * math.sin(angle)
        for a in range(accels_per_node):
            theta = 2.0 * math.pi * a / accels_per_node
            pos = Point(
                cx + accel_spread * math.cos(theta),
                cy + accel_spread * math.sin(theta),
            )
            name = f"n{n}a{a}"
            graph.add_port(name, pos, module=f"node{n}")
            names.append(name)
    return names


def ring_allreduce_graph(
    nodes: int = 2,
    accels_per_node: int = 2,
    rate: float = 4.0e9,
    node_separation: float = 10.0,
    accel_spread: float = 0.5,
) -> ConstraintGraph:
    """Ring allreduce over all ``K = nodes * accels_per_node`` ranks.

    One channel per ring hop (rank i -> rank i+1 mod K), node-major
    order so exactly one hop per node pair crosses the gap.  Each link
    of a ring allreduce carries ``2 (K-1) / K`` times the per-rank
    result rate (reduce-scatter + allgather phases).
    """
    graph = ConstraintGraph(
        norm=EUCLIDEAN, name=f"ring-allreduce-{nodes}x{accels_per_node}"
    )
    ranks = _accelerator_ports(graph, nodes, accels_per_node, node_separation, accel_spread)
    k = len(ranks)
    _check_rate(rate)
    per_link = rate * 2.0 * (k - 1) / k
    for i, src in enumerate(ranks):
        dst = ranks[(i + 1) % k]
        graph.add_channel(f"ring{i}", src, dst, bandwidth=per_link)
    return graph


def tree_allreduce_graph(
    nodes: int = 2,
    accels_per_node: int = 2,
    rate: float = 4.0e9,
    node_separation: float = 10.0,
    accel_spread: float = 0.5,
) -> ConstraintGraph:
    """Binary-tree allreduce: reduce up the tree, broadcast back down.

    Rank 0 is the root; rank i's parent is ``(i - 1) // 2``.  Every
    tree edge carries the full result rate in each direction (one
    ``up`` and one ``down`` channel per non-root rank).
    """
    graph = ConstraintGraph(
        norm=EUCLIDEAN, name=f"tree-allreduce-{nodes}x{accels_per_node}"
    )
    ranks = _accelerator_ports(graph, nodes, accels_per_node, node_separation, accel_spread)
    _check_rate(rate)
    for i in range(1, len(ranks)):
        parent = ranks[(i - 1) // 2]
        graph.add_channel(f"up{i}", ranks[i], parent, bandwidth=rate)
        graph.add_channel(f"down{i}", parent, ranks[i], bandwidth=rate)
    return graph


def allgather_graph(
    nodes: int = 2,
    accels_per_node: int = 2,
    rate: float = 2.0e9,
    node_separation: float = 10.0,
    accel_spread: float = 0.5,
) -> ConstraintGraph:
    """Direct allgather: every rank streams its shard to every other.

    ``rate`` is the per-shard rate, so each of the ``K (K-1)`` ordered
    pairs gets one channel at ``rate``.  The merging-heavy stressor:
    all of a node's outbound shards to one peer node can share a
    single NIC-class lane.
    """
    graph = ConstraintGraph(
        norm=EUCLIDEAN, name=f"allgather-{nodes}x{accels_per_node}"
    )
    ranks = _accelerator_ports(graph, nodes, accels_per_node, node_separation, accel_spread)
    _check_rate(rate)
    idx = 0
    for i, src in enumerate(ranks):
        for j, dst in enumerate(ranks):
            if i == j:
                continue
            graph.add_channel(f"g{i}_{j}", src, dst, bandwidth=rate)
            idx += 1
    return graph


def all_to_all_graph(
    nodes: int = 2,
    accels_per_node: int = 2,
    rate: float = 8.0e9,
    node_separation: float = 10.0,
    accel_spread: float = 0.5,
) -> ConstraintGraph:
    """Personalized all-to-all: distinct data per ordered pair.

    ``rate`` is each rank's total egress budget, split evenly over its
    ``K - 1`` destinations — same channel shape as the allgather but
    with per-pair bandwidth ``rate / (K-1)``.
    """
    graph = ConstraintGraph(
        norm=EUCLIDEAN, name=f"all-to-all-{nodes}x{accels_per_node}"
    )
    ranks = _accelerator_ports(graph, nodes, accels_per_node, node_separation, accel_spread)
    _check_rate(rate)
    per_pair = rate / (len(ranks) - 1)
    for i, src in enumerate(ranks):
        for j, dst in enumerate(ranks):
            if i == j:
                continue
            graph.add_channel(f"x{i}_{j}", src, dst, bandwidth=per_pair)
    return graph


def _check_rate(rate: float) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ModelError(f"rate must be positive and finite, got {rate}")
