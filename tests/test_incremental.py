"""Tests for incremental re-synthesis (ECO-style updates).

The golden rule checked on every mutation: the incremental optimum
equals a from-scratch synthesis of the mutated graph (the incremental
candidate set may be a harmless superset — Theorem 3.1's retirement is
monotone — but the cost never differs).
"""

import pytest

from repro import SynthesisOptions, synthesize
from repro.core.incremental import IncrementalSynthesizer
from repro.domains import wan_constraint_graph, wan_library


@pytest.fixture()
def inc():
    return IncrementalSynthesizer(
        wan_constraint_graph(), wan_library(), SynthesisOptions(validate_result=False)
    )


def _full_cost(graph, library):
    return synthesize(graph, library, SynthesisOptions(validate_result=False)).total_cost


class TestBaseline:
    def test_initial_solve_matches_full(self, inc):
        result = inc.solve()
        assert result.total_cost == pytest.approx(464579.35, rel=1e-4)
        assert result.merged_groups == [("a4", "a5", "a6")]


class TestRemoveArc:
    def test_remove_unrelated_arc_keeps_merge(self, inc):
        inc.solve()
        inc.remove_arc("a8")
        result = inc.solve()
        assert result.merged_groups == [("a4", "a5", "a6")]
        assert result.total_cost == pytest.approx(
            _full_cost(inc.graph, inc.library), rel=1e-9
        )

    def test_remove_merge_member_breaks_group(self, inc):
        inc.solve()
        inc.remove_arc("a5")
        result = inc.solve()
        assert result.total_cost == pytest.approx(
            _full_cost(inc.graph, inc.library), rel=1e-9
        )
        # a4+a6 alone may or may not merge; whatever the answer, it must
        # match scratch. (With the paper's prices it still merges.)
        assert ("a5",) not in [tuple(g) for g in result.merged_groups]

    def test_remove_unknown_rejected(self, inc):
        inc.solve()
        with pytest.raises(KeyError):
            inc.remove_arc("zz")

    def test_candidates_reused(self, inc):
        inc.solve()
        before_rebuilt = inc.rebuilt
        inc.remove_arc("a8")
        inc.solve()
        assert inc.reused > 0
        assert inc.rebuilt == before_rebuilt  # removal builds nothing new


class TestAddArc:
    def test_add_parallel_channel_joins_merge(self, inc):
        inc.solve()
        inc.add_arc("a9", "B", "D", bandwidth=10e6)  # a second B->D channel
        result = inc.solve()
        scratch = _full_cost(inc.graph, inc.library)
        assert result.total_cost == pytest.approx(scratch, rel=1e-9)
        merged_arcs = {a for g in result.merged_groups for a in g}
        assert "a9" in merged_arcs  # it rides the optical trunk too

    def test_add_isolated_channel(self, inc):
        inc.solve()
        inc.add_arc("a9", "E", "A", bandwidth=10e6)
        result = inc.solve()
        assert result.total_cost == pytest.approx(
            _full_cost(inc.graph, inc.library), rel=1e-9
        )


class TestChangeBandwidth:
    def test_raising_bandwidth_recosts(self, inc):
        inc.solve()
        inc.change_bandwidth("a4", 30e6)  # now needs optical even alone
        result = inc.solve()
        assert result.total_cost == pytest.approx(
            _full_cost(inc.graph, inc.library), rel=1e-9
        )

    def test_bandwidth_past_theorem_32_unmerges(self, inc):
        """Pushing the merged group's sum past max b(l) + min b forces
        the covering step away from the (now pruned) big merge."""
        inc.solve()
        inc.change_bandwidth("a4", 995e6)  # sum with a5+a6 exceeds 1G + 10M
        result = inc.solve()
        scratch = _full_cost(inc.graph, inc.library)
        assert result.total_cost == pytest.approx(scratch, rel=1e-9)
        assert ("a4", "a5", "a6") not in [tuple(sorted(g)) for g in result.merged_groups]

    def test_unknown_arc_rejected(self, inc):
        from repro import ModelError

        inc.solve()
        with pytest.raises(ModelError):
            inc.change_bandwidth("zz", 1e6)


class TestMutationSequences:
    def test_long_sequence_stays_exact(self, inc):
        inc.solve()
        inc.remove_arc("a8")
        inc.add_arc("x1", "A", "E", bandwidth=5e6)
        inc.change_bandwidth("a1", 8e6)
        inc.remove_arc("a7")
        inc.add_arc("x2", "C", "E", bandwidth=10e6)
        result = inc.solve()
        assert result.total_cost == pytest.approx(
            _full_cost(inc.graph, inc.library), rel=1e-9
        )

    def test_refresh_equals_incremental(self, inc):
        inc.solve()
        inc.remove_arc("a8")
        inc.add_arc("x1", "A", "E", bandwidth=5e6)
        incremental = inc.solve().total_cost
        inc.refresh()
        fresh = inc.solve().total_cost
        assert incremental == pytest.approx(fresh, rel=1e-9)


def _stub_instance():
    """tests/test_synthesis_heterogeneous.py's short/stub library, where a
    mixed chain beats both homogeneous chains, plus a spare port ``x``."""
    from repro import CommunicationLibrary, ConstraintGraph, Link, NodeKind, NodeSpec, Point

    g = ConstraintGraph(name="stub-chain")
    g.add_port("u", Point(0, 0))
    g.add_port("v", Point(11, 0))
    g.add_port("x", Point(0, 1))
    g.add_channel("w", "u", "v", bandwidth=5.0)
    lib = CommunicationLibrary("stub")
    lib.add_link(Link("short", bandwidth=10, max_length=10, cost_fixed=10.0))
    lib.add_link(Link("stub", bandwidth=10, max_length=2, cost_fixed=3.0))
    lib.add_node(NodeSpec("rep", NodeKind.REPEATER, cost=0.5))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=1.0))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=1.0))
    return g, lib


def _wan_eco(inc):
    inc.remove_arc("a8")
    inc.add_arc("x1", "A", "E", bandwidth=5e6)
    inc.change_bandwidth("a4", 8e6)


def _soc_eco(inc):
    inc.remove_arc("c5")
    inc.add_arc("c6", "io", "cpu", bandwidth=4e9)
    inc.change_bandwidth("c3", 8e9)


def _stub_eco(inc):
    inc.add_arc("w2", "x", "v", 5.0)
    inc.add_arc("w3", "u", "v", 3.0)
    inc.change_bandwidth("w", 4.0)
    inc.remove_arc("w3")


def _wan():
    return wan_constraint_graph(), wan_library()


def _soc():
    from repro.domains import soc_example

    return soc_example()


class TestOptionsMatchSynthesize:
    """Every result-shaping option means what it means to synthesize():
    the initial solve and the solve after an ECO sequence both equal a
    from-scratch synthesis of the same graph."""

    @pytest.mark.parametrize(
        "instance, options, eco",
        [
            (_wan, SynthesisOptions(hop_penalty=5.0), _wan_eco),
            (_soc, SynthesisOptions(max_arity=3, polish_placement=False), _soc_eco),
            (_stub_instance, SynthesisOptions(heterogeneous=True), _stub_eco),
        ],
        ids=["hop_penalty", "polish_placement", "heterogeneous"],
    )
    def test_initial_and_eco_solves_match(self, instance, options, eco):
        graph, library = instance()
        inc = IncrementalSynthesizer(graph, library, options)
        for step in ("initial", "eco"):
            if step == "eco":
                eco(inc)
            live = inc.solve()
            scratch = synthesize(inc.graph, library, options)
            assert live.total_cost == pytest.approx(scratch.total_cost, rel=1e-9), step
            assert {c.label() for c in live.selected} == {
                c.label() for c in scratch.selected
            }, step

    def test_demand_margin_rejected(self):
        from repro import SynthesisError

        with pytest.raises(SynthesisError, match="demand_margin"):
            IncrementalSynthesizer(*_wan(), SynthesisOptions(demand_margin=0.3))
