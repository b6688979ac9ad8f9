"""Unit tests for repro.core.library (Definition 2.2)."""

import math

import pytest

from repro import CommunicationLibrary, LibraryError, Link, NodeKind, NodeSpec


class TestLink:
    def test_affine_cost(self):
        l = Link("l", bandwidth=10, max_length=50, cost_fixed=3, cost_per_unit=2)
        assert l.cost_of(10) == 23.0

    def test_cost_at_zero_length(self):
        l = Link("l", bandwidth=10, max_length=50, cost_fixed=3)
        assert l.cost_of(0) == 3.0

    def test_cost_beyond_max_length_rejected(self):
        l = Link("l", bandwidth=10, max_length=50, cost_fixed=3)
        with pytest.raises(LibraryError, match="exceeds max_length"):
            l.cost_of(51)

    def test_negative_span_rejected(self):
        l = Link("l", bandwidth=10, max_length=50, cost_fixed=3)
        with pytest.raises(LibraryError, match="negative span"):
            l.cost_of(-1)

    def test_can_span_and_carry(self):
        l = Link("l", bandwidth=10, max_length=50, cost_fixed=1)
        assert l.can_span(50) and not l.can_span(50.1)
        assert l.can_carry(10) and not l.can_carry(10.1)

    def test_unbounded_link_spans_anything(self):
        l = Link("l", bandwidth=10, cost_per_unit=1)
        assert l.can_span(1e12)

    def test_free_link_rejected(self):
        with pytest.raises(LibraryError, match="free link"):
            Link("l", bandwidth=10, max_length=50)

    def test_unbounded_fixed_cost_link_rejected(self):
        # one instance would span any distance at constant cost,
        # breaking Assumption 2.1's distance monotonicity.
        with pytest.raises(LibraryError, match="priced per unit"):
            Link("l", bandwidth=10, cost_fixed=5)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(LibraryError):
            Link("l", bandwidth=0, max_length=10, cost_fixed=1)

    def test_nonpositive_max_length_rejected(self):
        with pytest.raises(LibraryError):
            Link("l", bandwidth=1, max_length=0, cost_fixed=1)

    def test_negative_cost_rejected(self):
        with pytest.raises(LibraryError):
            Link("l", bandwidth=1, max_length=10, cost_fixed=-1)


class TestNodeKind:
    def test_switch_acts_as_everything(self):
        for role in NodeKind:
            assert NodeKind.SWITCH.can_act_as(role)

    def test_mux_demux_can_repeat(self):
        assert NodeKind.MUX.can_act_as(NodeKind.REPEATER)
        assert NodeKind.DEMUX.can_act_as(NodeKind.REPEATER)

    def test_repeater_cannot_mux(self):
        assert not NodeKind.REPEATER.can_act_as(NodeKind.MUX)

    def test_mux_cannot_demux(self):
        assert not NodeKind.MUX.can_act_as(NodeKind.DEMUX)


class TestNodeSpec:
    def test_negative_cost_rejected(self):
        with pytest.raises(LibraryError):
            NodeSpec("n", NodeKind.MUX, cost=-1)

    def test_max_degree_must_be_at_least_two(self):
        with pytest.raises(LibraryError):
            NodeSpec("n", NodeKind.MUX, max_degree=1)

    def test_valid_spec(self):
        n = NodeSpec("n", NodeKind.SWITCH, cost=2.5, max_degree=8)
        assert n.cost == 2.5 and n.max_degree == 8


class TestCommunicationLibrary:
    def test_duplicate_link_rejected(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("l", bandwidth=1, max_length=1, cost_fixed=1))
        with pytest.raises(LibraryError, match="duplicate link"):
            lib.add_link(Link("l", bandwidth=2, max_length=2, cost_fixed=2))

    def test_duplicate_node_rejected(self):
        lib = CommunicationLibrary()
        lib.add_node(NodeSpec("n", NodeKind.MUX))
        with pytest.raises(LibraryError, match="duplicate node"):
            lib.add_node(NodeSpec("n", NodeKind.DEMUX))

    def test_lookup(self, simple_library):
        assert simple_library.link("short").bandwidth == 10.0
        assert simple_library.node("mux").kind is NodeKind.MUX

    def test_lookup_miss(self, simple_library):
        with pytest.raises(LibraryError, match="unknown link"):
            simple_library.link("nope")
        with pytest.raises(LibraryError, match="unknown node"):
            simple_library.node("nope")

    def test_contains_and_iter(self, simple_library):
        assert "short" in simple_library and "mux" in simple_library
        assert [l.name for l in simple_library] == ["short", "long"]

    def test_max_link_bandwidth(self, simple_library):
        assert simple_library.max_link_bandwidth() == 100.0

    def test_max_link_bandwidth_empty_rejected(self):
        with pytest.raises(LibraryError, match="no links"):
            CommunicationLibrary().max_link_bandwidth()

    def test_links_carrying(self, simple_library):
        assert [l.name for l in simple_library.links_carrying(50)] == ["long"]
        assert len(simple_library.links_carrying(5)) == 2

    def test_cheapest_node_prefers_exact_kind_on_tie(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("l", bandwidth=1, max_length=1, cost_fixed=1))
        lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=1.0))
        lib.add_node(NodeSpec("inverter", NodeKind.REPEATER, cost=1.0))
        chosen = lib.cheapest_node(NodeKind.REPEATER)
        assert chosen is not None and chosen.name == "inverter"

    def test_cheapest_node_falls_back_to_capable_kind(self):
        lib = CommunicationLibrary()
        lib.add_node(NodeSpec("sw", NodeKind.SWITCH, cost=4.0))
        assert lib.cheapest_node(NodeKind.MUX).name == "sw"

    def test_cheapest_node_none_when_absent(self):
        lib = CommunicationLibrary()
        lib.add_node(NodeSpec("rep", NodeKind.REPEATER, cost=1.0))
        assert lib.cheapest_node(NodeKind.MUX) is None

    def test_node_cost(self, simple_library):
        assert simple_library.node_cost(NodeKind.REPEATER) == 2.0
        assert CommunicationLibrary().node_cost(NodeKind.MUX) is None

    def test_validate_requires_links(self):
        with pytest.raises(LibraryError):
            CommunicationLibrary().validate()

    def test_stage_cost_cache_invalidated_on_mutation(self):
        from repro.core.point_to_point import stage_cost

        lib = CommunicationLibrary()
        lib.add_link(Link("slow", bandwidth=10, cost_per_unit=5.0))
        before = stage_cost(1.0, lib)
        assert before.fn(10.0) == pytest.approx(50.0)
        lib.add_link(Link("cheap", bandwidth=10, cost_per_unit=1.0))
        after = stage_cost(1.0, lib)
        assert after.fn(10.0) == pytest.approx(10.0)
