"""Unit tests for repro.core.validation — the Definition 2.4 checker."""

from types import SimpleNamespace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    EUCLIDEAN,
    ImplementationGraph,
    Path,
    Point,
    ValidationError,
    synthesize,
)
from repro.core.constraint_graph import ConstraintGraph, Port
from repro.core import validation
from repro.core.validation import (
    validate,
    validate_bandwidth,
    validate_capacity,
    validate_structure,
)


@pytest.fixture()
def small_instance(per_unit_library):
    g = ConstraintGraph(name="small")
    g.add_port("u", Point(0, 0))
    g.add_port("v", Point(10, 0))
    g.add_channel("a1", "u", "v", bandwidth=5.0)
    return g, per_unit_library


def _impl_with_matching(graph, library, bandwidth=5.0):
    impl = ImplementationGraph(library=library, norm=EUCLIDEAN)
    for port in graph.ports:
        impl.add_computational_vertex(port)
    e = impl.add_link_instance(library.link("slow"), "u", "v", bandwidth=bandwidth)
    impl.set_arc_implementation("a1", [Path((e.name,))])
    return impl


class TestStructure:
    def test_valid_matching_passes(self, small_instance):
        g, lib = small_instance
        impl = _impl_with_matching(g, lib)
        validate(impl, g)

    def test_missing_port_detected(self, small_instance):
        g, lib = small_instance
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        impl.add_computational_vertex(g.port("u"))
        with pytest.raises(ValidationError, match="without computational vertex"):
            validate_structure(impl, g)

    def test_extra_vertex_detected(self, small_instance):
        g, lib = small_instance
        impl = _impl_with_matching(g, lib)
        impl.add_computational_vertex(Port("ghost", Point(1, 1)))
        with pytest.raises(ValidationError, match="without port"):
            validate_structure(impl, g)

    def test_moved_vertex_detected(self, small_instance):
        g, lib = small_instance
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        impl.add_computational_vertex(Port("u", Point(0, 0)))
        impl.add_computational_vertex(Port("v", Point(9, 0)))  # wrong position
        e = impl.add_link_instance(lib.link("slow"), "u", "v", bandwidth=5.0)
        impl.set_arc_implementation("a1", [Path((e.name,))])
        with pytest.raises(ValidationError, match="but port at"):
            validate_structure(impl, g)

    def test_missing_arc_implementation_detected(self, small_instance):
        g, lib = small_instance
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g.ports:
            impl.add_computational_vertex(port)
        with pytest.raises(ValidationError, match="missing"):
            validate_structure(impl, g)

    def test_wrong_endpoint_detected(self, small_instance):
        g, lib = small_instance
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g.ports:
            impl.add_computational_vertex(port)
        e = impl.add_link_instance(lib.link("slow"), "v", "u", bandwidth=5.0)  # reversed
        impl.set_arc_implementation("a1", [Path((e.name,))])
        with pytest.raises(ValidationError, match="path starts at"):
            validate_structure(impl, g)

    def test_computational_intermediate_detected(self, per_unit_library):
        g = ConstraintGraph(name="tri")
        g.add_port("u", Point(0, 0))
        g.add_port("w", Point(5, 0))
        g.add_port("v", Point(10, 0))
        g.add_channel("a1", "u", "v", bandwidth=5.0)
        impl = ImplementationGraph(library=per_unit_library, norm=EUCLIDEAN)
        for port in g.ports:
            impl.add_computational_vertex(port)
        e1 = impl.add_link_instance(per_unit_library.link("slow"), "u", "w", bandwidth=5.0)
        e2 = impl.add_link_instance(per_unit_library.link("slow"), "w", "v", bandwidth=5.0)
        impl.set_arc_implementation("a1", [Path((e1.name, e2.name))])
        with pytest.raises(ValidationError, match="computational vertex"):
            validate_structure(impl, g)


class TestBandwidth:
    def test_insufficient_bandwidth_detected(self, small_instance):
        g, lib = small_instance
        # "slow" carries 11 — enough for one path, so sabotage by requiring 20
        g2 = ConstraintGraph(name="big")
        g2.add_port("u", Point(0, 0))
        g2.add_port("v", Point(10, 0))
        g2.add_channel("a1", "u", "v", bandwidth=20.0)
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g2.ports:
            impl.add_computational_vertex(port)
        e = impl.add_link_instance(lib.link("slow"), "u", "v", bandwidth=11.0)
        impl.set_arc_implementation("a1", [Path((e.name,))])
        with pytest.raises(ValidationError, match="paths provide"):
            validate_bandwidth(impl, g2)

    def test_duplication_sums_paths(self, small_instance):
        g, lib = small_instance
        g2 = ConstraintGraph(name="big")
        g2.add_port("u", Point(0, 0))
        g2.add_port("v", Point(10, 0))
        g2.add_channel("a1", "u", "v", bandwidth=20.0)
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g2.ports:
            impl.add_computational_vertex(port)
        e1 = impl.add_link_instance(lib.link("slow"), "u", "v", bandwidth=10.0)
        e2 = impl.add_link_instance(lib.link("slow"), "u", "v", bandwidth=10.0)
        impl.set_arc_implementation("a1", [Path((e1.name,)), Path((e2.name,))])
        validate_bandwidth(impl, g2)  # 11 + 11 >= 20


class TestCapacity:
    def test_shared_trunk_overload_detected(self, per_unit_library):
        """Two 8-unit demands sharing one 11-unit link: each path alone
        passes Definition 2.4's literal check, but no simultaneous flow
        exists — the LP layer must catch it."""
        g = ConstraintGraph(name="overload")
        g.add_port("u1", Point(0, 0))
        g.add_port("u2", Point(0, 1))
        g.add_port("v1", Point(10, 0))
        g.add_port("v2", Point(10, 1))
        g.add_channel("a1", "u1", "v1", bandwidth=8.0)
        g.add_channel("a2", "u2", "v2", bandwidth=8.0)

        lib = per_unit_library
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g.ports:
            impl.add_computational_vertex(port)
        from repro import NodeKind

        mux = lib.cheapest_node(NodeKind.MUX)
        demux = lib.cheapest_node(NodeKind.DEMUX)
        m = impl.add_communication_vertex(mux, Point(0, 0.5))
        d = impl.add_communication_vertex(demux, Point(10, 0.5))
        f1 = impl.add_link_instance(lib.link("slow"), "u1", m.name, bandwidth=8.0)
        f2 = impl.add_link_instance(lib.link("slow"), "u2", m.name, bandwidth=8.0)
        trunk = impl.add_link_instance(lib.link("slow"), m.name, d.name, bandwidth=11.0)
        g1 = impl.add_link_instance(lib.link("slow"), d.name, "v1", bandwidth=8.0)
        g2_ = impl.add_link_instance(lib.link("slow"), d.name, "v2", bandwidth=8.0)
        impl.set_arc_implementation("a1", [Path((f1.name, trunk.name, g1.name))])
        impl.set_arc_implementation("a2", [Path((f2.name, trunk.name, g2_.name))])

        validate_bandwidth(impl, g)  # literal Def 2.4 passes (11 >= 8 per arc)
        with pytest.raises(ValidationError, match="flow"):
            validate_capacity(impl, g)  # 16 > 11 on the trunk

    def test_adequate_trunk_passes(self, per_unit_library):
        g = ConstraintGraph(name="ok")
        g.add_port("u1", Point(0, 0))
        g.add_port("u2", Point(0, 1))
        g.add_port("v1", Point(10, 0))
        g.add_port("v2", Point(10, 1))
        g.add_channel("a1", "u1", "v1", bandwidth=8.0)
        g.add_channel("a2", "u2", "v2", bandwidth=8.0)
        lib = per_unit_library
        impl = ImplementationGraph(library=lib, norm=EUCLIDEAN)
        for port in g.ports:
            impl.add_computational_vertex(port)
        from repro import NodeKind

        m = impl.add_communication_vertex(lib.cheapest_node(NodeKind.MUX), Point(0, 0.5))
        d = impl.add_communication_vertex(lib.cheapest_node(NodeKind.DEMUX), Point(10, 0.5))
        f1 = impl.add_link_instance(lib.link("slow"), "u1", m.name, bandwidth=8.0)
        f2 = impl.add_link_instance(lib.link("slow"), "u2", m.name, bandwidth=8.0)
        trunk = impl.add_link_instance(lib.link("fast"), m.name, d.name, bandwidth=16.0)
        g1 = impl.add_link_instance(lib.link("slow"), d.name, "v1", bandwidth=8.0)
        g2_ = impl.add_link_instance(lib.link("slow"), d.name, "v2", bandwidth=8.0)
        impl.set_arc_implementation("a1", [Path((f1.name, trunk.name, g1.name))])
        impl.set_arc_implementation("a2", [Path((f2.name, trunk.name, g2_.name))])
        validate(impl, g)


class _Paths:
    """The two views ``validate_capacity`` reads of an implementation:
    its link instances and each constraint arc's registered paths (any
    number, none included)."""

    def __init__(self, capacities, paths):
        self.arcs = [
            SimpleNamespace(name=name, link=SimpleNamespace(bandwidth=cap))
            for name, cap in capacities.items()
        ]
        self._paths = paths

    def arc_implementation(self, name):
        return list(self._paths[name])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_demand_rows_equal_the_double_loop(data):
    """``A_eq`` built from the arc -> row index is the arcs x flows
    double loop's matrix, on random path sets: duplicated paths, arcs
    with several paths and arcs with none."""
    links = [f"e{i}" for i in range(data.draw(st.integers(1, 6)))]
    capacities = {name: data.draw(st.floats(1.0, 20.0)) for name in links}
    demands = [
        SimpleNamespace(name=f"a{i}", bandwidth=data.draw(st.floats(0.5, 10.0)))
        for i in range(data.draw(st.integers(1, 6)))
    ]
    path = st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True)
    paths = {
        arc.name: [Path(tuple(p)) for p in data.draw(st.lists(path, max_size=3))]
        for arc in demands
    }
    flows = [arc.name for arc in demands for _ in paths[arc.name]]
    expected = np.zeros((len(demands), len(flows)))
    for i, arc in enumerate(demands):
        for j, name in enumerate(flows):
            if name == arc.name:
                expected[i, j] = 1.0

    seen = []
    real = validation.optimize.linprog

    def recorded(*args, **kwargs):
        seen.append(kwargs["A_eq"])
        return real(*args, **kwargs)

    with mock.patch.object(validation.optimize, "linprog", recorded):
        try:
            validate_capacity(_Paths(capacities, paths), SimpleNamespace(arcs=demands))
        except ValidationError:
            pass
    if flows:
        (a_eq,) = seen
        assert np.array_equal(a_eq, expected)
    else:
        assert seen == []


class TestEndToEnd:
    def test_synthesized_wan_validates(self, wan_graph, wan_lib):
        result = synthesize(wan_graph, wan_lib)
        validate(result.implementation, wan_graph)
