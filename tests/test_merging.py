"""Unit tests for repro.core.merging — K-way merging plans (Def. 2.8)."""

import pytest

from repro import (
    CommunicationLibrary,
    ConstraintGraph,
    ImplementationGraph,
    Link,
    NodeKind,
    NodeSpec,
    Point,
    build_merging_plan,
)
from repro.core.merging import materialize_merging, stage_plans
from repro.core.point_to_point import stage_cost
from repro.core.validation import validate_structure


class TestStageCost:
    def test_linear_detected_for_per_unit_library(self, per_unit_library):
        s = stage_cost(10.0, per_unit_library)
        assert s.is_linear and s.slope == pytest.approx(2.0)

    def test_linear_slope_switches_with_bandwidth(self, per_unit_library):
        s = stage_cost(30.0, per_unit_library)  # needs the fast tier
        assert s.is_linear and s.slope == pytest.approx(4.0)

    def test_nonlinear_detected_for_fixed_cost_library(self, simple_library):
        s = stage_cost(5.0, simple_library)
        assert not s.is_linear
        assert s(5.0) == pytest.approx(5.0)  # one "short" instance

    def test_cache_returns_same_object(self, per_unit_library):
        assert stage_cost(10.0, per_unit_library) is stage_cost(10.0, per_unit_library)


class TestBuildMergingPlan:
    def test_wan_winning_triple(self, wan_graph, wan_lib):
        plan = build_merging_plan(wan_graph, ["a4", "a5", "a6"], wan_lib)
        assert plan is not None
        assert plan.k == 3
        assert stage_plans(wan_graph, plan, wan_lib).trunk.link.name == "optical"
        assert plan.trunk_bandwidth == pytest.approx(30e6)
        # the demux degenerates onto D (all three arcs end there)
        assert plan.split_point.is_close(Point(-2, -97))
        # must beat the sum of dedicated radio links
        p2p_sum = 2000.0 * (97.0206 + 100.1798 + 98.6154)
        assert plan.cost < p2p_sum
        # and specifically land at the known optimum ~411276
        assert plan.cost == pytest.approx(411276.0, rel=1e-4)

    def test_pairwise_merge_not_beneficial_on_wan(self, wan_graph, wan_lib):
        """No 2-way merge beats dedicated radio links on the WAN instance
        (which is why the greedy pairwise baseline stalls)."""
        plan = build_merging_plan(wan_graph, ["a4", "a5"], wan_lib)
        p2p_sum = 2000.0 * (97.0206 + 100.1798)
        assert plan is not None
        assert plan.cost >= p2p_sum - 1e-6

    def test_requires_two_arcs(self, wan_graph, wan_lib):
        with pytest.raises(ValueError):
            build_merging_plan(wan_graph, ["a4"], wan_lib)

    def test_none_without_mux(self, wan_graph):
        lib = CommunicationLibrary()
        lib.add_link(Link("radio", bandwidth=11e6, cost_per_unit=2.0))
        lib.add_link(Link("optical", bandwidth=1e9, cost_per_unit=4.0))
        assert build_merging_plan(wan_graph, ["a4", "a5"], lib) is None

    def test_node_costs_included(self, two_arc_graph):
        lib = CommunicationLibrary()
        lib.add_link(Link("slow", bandwidth=10.0, cost_per_unit=1.0))
        lib.add_link(Link("fast", bandwidth=100.0, cost_per_unit=1.5))
        lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=7.0))
        lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=9.0))
        plan = build_merging_plan(two_arc_graph, ["a1", "a2"], lib)
        assert plan is not None
        stages = stage_plans(two_arc_graph, plan, lib)
        stage_total = (
            sum(p.cost for p in stages.feeders)
            + stages.trunk.cost
            + sum(p.cost for p in stages.distributors)
        )
        assert plan.cost == pytest.approx(stage_total + 16.0)

    def test_parallel_channels_share_trunk(self, two_arc_graph):
        lib = CommunicationLibrary()
        lib.add_link(Link("slow", bandwidth=10.0, cost_per_unit=1.0))
        lib.add_link(Link("fast", bandwidth=100.0, cost_per_unit=1.2))
        lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=0.0))
        lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.0))
        plan = build_merging_plan(two_arc_graph, ["a1", "a2"], lib)
        # two dedicated slow links cost ~200; merging on the fast trunk
        # costs ~1.2*100 + tiny feeders ≈ 122
        assert plan is not None
        assert plan.cost < 200.0
        assert stage_plans(two_arc_graph, plan, lib).trunk.link.name == "fast"


class TestMaterializeMerging:
    def test_structure_and_cost(self, wan_graph, wan_lib):
        plan = build_merging_plan(wan_graph, ["a4", "a5", "a6"], wan_lib)
        impl = ImplementationGraph(library=wan_lib, norm=wan_graph.norm)
        produced = materialize_merging(impl, wan_graph, plan)
        assert set(produced) == {"a4", "a5", "a6"}
        # one path per arc: feeder -> trunk -> (degenerate distributor)
        for paths in produced.values():
            assert len(paths) == 1
        # mux + demux vertices exist
        kinds = [v.node.kind for v in impl.communication_vertices]
        assert kinds.count(NodeKind.MUX) == 1
        assert kinds.count(NodeKind.DEMUX) == 1
        assert impl.cost() == pytest.approx(plan.cost, rel=1e-9)

    def test_paths_are_contiguous_and_valid(self, wan_graph, wan_lib):
        plan = build_merging_plan(wan_graph, ["a4", "a5", "a6"], wan_lib)
        impl = ImplementationGraph(library=wan_lib, norm=wan_graph.norm)
        for port in wan_graph.ports:
            impl.add_computational_vertex(port)
        produced = materialize_merging(impl, wan_graph, plan)
        for arc_name, paths in produced.items():
            arc = wan_graph.arc(arc_name)
            for path in paths:
                vertices = impl.path_vertices(path)
                assert vertices[0] == arc.source.name
                assert vertices[-1] == arc.target.name
                for mid in vertices[1:-1]:
                    assert impl.vertex(mid).is_communication
