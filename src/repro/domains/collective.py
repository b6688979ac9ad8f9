"""Multi-node accelerator machine — the collective-communication domain.

SCCL (arxiv 2008.08708) synthesizes collective algorithms *given* a
topology; this domain runs the complementary direction: given the
channel set a collective induces (:mod:`repro.netgen.collectives`),
synthesize the cheapest interconnect that sustains it.  The library
models the two-tier reality of accelerator machines:

- **nvlink** — an intra-node accelerator link: very high bandwidth,
  cheap, but reaches only within the chassis;
- **hca** — a NIC/HCA-class lane over the cluster fabric: full reach
  and substantial bandwidth, but a large fixed cost (the NIC + switch
  port), so *sharing one lane across a node's outbound shard streams
  is exactly the paper's K-way merging* — the hierarchical trick every
  production collective library plays;
- **nvswitch** — a switch chip playing mux/demux with bounded fan-in.

Distances in meters (Euclidean), bandwidths in bit/s.  The bundled
instances are small enough for the exact strategy yet show genuine
cross-node lane sharing, so they pin decompose's certificate in the
conformance pack.
"""

from __future__ import annotations

from typing import Tuple

from ..core.constraint_graph import ConstraintGraph
from ..core.library import CommunicationLibrary, Link, NodeKind, NodeSpec
from ..core.units import Gbps
from ..netgen.collectives import allgather_graph, ring_allreduce_graph

__all__ = [
    "collective_library",
    "collective_allreduce_example",
    "collective_allgather_example",
]


def collective_library(
    nvlink_reach_m: float = 2.0,
    nvlink_cost_fixed: float = 2.0,
    nvlink_cost_per_m: float = 1.0,
    hca_fixed: float = 25.0,
    hca_cost_per_m: float = 0.1,
    switch_cost: float = 3.0,
    switch_degree: int = 8,
) -> CommunicationLibrary:
    """The two-tier accelerator kit described in the module docstring."""
    lib = CommunicationLibrary("collective-machine")
    lib.add_link(
        Link("nvlink", bandwidth=Gbps(400), max_length=nvlink_reach_m,
             cost_fixed=nvlink_cost_fixed, cost_per_unit=nvlink_cost_per_m)
    )
    lib.add_link(
        Link("hca", bandwidth=Gbps(100), max_length=float("inf"),
             cost_fixed=hca_fixed, cost_per_unit=hca_cost_per_m)
    )
    lib.add_node(
        NodeSpec("nvswitch", NodeKind.SWITCH, cost=switch_cost, max_degree=switch_degree)
    )
    return lib


def collective_allreduce_example() -> Tuple[ConstraintGraph, CommunicationLibrary]:
    """Ring allreduce on 2 nodes x 2 accelerators (4 ring hops at
    ``2*(K-1)/K * 4 Gbps = 6 Gbps``): two short intra-node hops, two
    long cross-node hops."""
    return ring_allreduce_graph(nodes=2, accels_per_node=2, rate=Gbps(4)), collective_library()


def collective_allgather_example() -> Tuple[ConstraintGraph, CommunicationLibrary]:
    """Direct allgather on 2 nodes x 2 accelerators: 12 shard streams
    at 2 Gbps, of which 8 cross the node gap — the merging-heavy case
    where all four same-direction cross streams share one hca lane."""
    return allgather_graph(nodes=2, accels_per_node=2, rate=Gbps(2)), collective_library()
