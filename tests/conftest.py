"""Shared fixtures: the paper's WAN instance and assorted small models."""

from __future__ import annotations

import pytest

from repro import (
    CommunicationLibrary,
    ConstraintGraph,
    EUCLIDEAN,
    Link,
    NodeKind,
    NodeSpec,
    Point,
)
from repro.domains import wan_example, wan_constraint_graph, wan_library


@pytest.fixture(scope="session")
def wan_graph() -> ConstraintGraph:
    """The paper's Example 1 constraint graph (8 arcs, 5 nodes)."""
    return wan_constraint_graph()


@pytest.fixture(scope="session")
def wan_lib() -> CommunicationLibrary:
    """The paper's Example 1 library (radio + optical)."""
    return wan_library()


@pytest.fixture()
def simple_library() -> CommunicationLibrary:
    """A small fixed-length library exercising every plan structure:
    short/slow cheap link, long/fast expensive link, all node kinds."""
    lib = CommunicationLibrary("simple")
    lib.add_link(Link("short", bandwidth=10.0, max_length=10.0, cost_fixed=5.0))
    lib.add_link(Link("long", bandwidth=100.0, max_length=100.0, cost_fixed=80.0))
    lib.add_node(NodeSpec("rep", NodeKind.REPEATER, cost=2.0))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=3.0))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=3.0))
    return lib


@pytest.fixture()
def per_unit_library() -> CommunicationLibrary:
    """WAN-style per-unit-priced library with free nodes."""
    lib = CommunicationLibrary("per-unit")
    lib.add_link(Link("slow", bandwidth=11.0, cost_per_unit=2.0))
    lib.add_link(Link("fast", bandwidth=1000.0, cost_per_unit=4.0))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=0.0))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.0))
    lib.add_node(NodeSpec("rep", NodeKind.REPEATER, cost=0.0))
    return lib


@pytest.fixture()
def two_arc_graph() -> ConstraintGraph:
    """Two parallel channels 100 units long, 1 unit apart."""
    g = ConstraintGraph(norm=EUCLIDEAN, name="two-parallel")
    g.add_port("s0", Point(0, 0))
    g.add_port("s1", Point(0, 1))
    g.add_port("t0", Point(100, 0))
    g.add_port("t1", Point(100, 1))
    g.add_channel("a1", "s0", "t0", bandwidth=10.0)
    g.add_channel("a2", "s1", "t1", bandwidth=10.0)
    return g
