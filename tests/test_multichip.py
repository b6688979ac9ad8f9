"""Tests for the multi-chip backplane domain and the Pareto sweep."""

import pytest

from repro import SynthesisOptions, synthesize
from repro.analysis import ParetoPoint, latency_sweep, pareto_front
from repro.core.merging import stage_plans
from repro.core.validation import validate
from repro.domains import multichip_constraint_graph, multichip_example, multichip_library


class TestInstance:
    def test_shape(self):
        g = multichip_constraint_graph()
        assert len(g.ports) == 8
        assert len(g) == 10
        assert g.norm.name == "euclidean"

    def test_library_components(self):
        lib = multichip_library()
        assert lib.link("pcb-trace").max_length == 10.0
        assert lib.link("serdes-lane").bandwidth == 112e9
        assert lib.node("crossbar").max_degree == 6


class TestSynthesis:
    @pytest.fixture(scope="class")
    def result(self):
        g, lib = multichip_example()
        return synthesize(g, lib, SynthesisOptions(max_arity=4)), g

    def test_lane_sharing_wins(self, result):
        r, g = result
        assert r.savings_ratio > 0.2  # shape claim: sharing amortizes PHYs
        assert len(r.merged_groups) >= 2

    def test_uplinks_share_lanes(self, result):
        r, g = result
        merged_arcs = {a for group in r.merged_groups for a in group}
        # at least four of the six blade uplinks ride shared lanes
        assert sum(1 for i in range(6) if f"up{i}" in merged_arcs) >= 4

    def test_fat_trunks_are_serdes(self, result):
        """Any merged trunk above the trace bandwidth must ride a SerDes
        lane; 8 Gbps-and-under groups may legitimately chain traces."""
        r, g = result
        library = multichip_library()
        trunks = [
            (c.plan.trunk_bandwidth, stage_plans(g, c.plan, library).trunk.link.name)
            for c in r.selected
            if c.is_merging
        ]
        for bandwidth, link in trunks:
            if bandwidth > 8e9:
                assert link == "serdes-lane"
        assert any(link == "serdes-lane" for _, link in trunks)

    def test_validates(self, result):
        r, g = result
        validate(r.implementation, g)

    def test_crossbar_plays_mux_and_demux(self, result):
        r, g = result
        node_names = {v.node.name for v in r.implementation.communication_vertices}
        assert "crossbar" in node_names


class TestParetoSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        g, lib = multichip_example()
        return latency_sweep(
            g, lib, budgets=(0, 2, None), options=SynthesisOptions(max_arity=3)
        )

    def test_budget_zero_is_point_to_point(self, sweep):
        p0 = sweep[0]
        assert p0.hop_budget == 0
        assert p0.merged_groups == ()

    def test_cost_monotone_in_budget(self, sweep):
        costs = [p.cost for p in sweep]
        assert costs == sorted(costs, reverse=True)

    def test_worst_hops_respects_budget(self, sweep):
        for p in sweep:
            if p.hop_budget is not None and p.merged_groups:
                assert p.worst_hops <= p.hop_budget
            # p2p structures (budget 0) may still have repeater chains
            # on single arcs — those are not constrained by the budget.

    def test_front_is_nondominated(self, sweep):
        front = pareto_front(sweep)
        assert front
        for i, p in enumerate(front):
            for q in front:
                assert not q.dominates(p)

    def test_front_sorted(self, sweep):
        front = pareto_front(sweep)
        hops = [p.worst_hops for p in front]
        assert hops == sorted(hops)


class TestParetoPoint:
    def test_dominance_semantics(self):
        a = ParetoPoint(None, 2, 100.0, ())
        b = ParetoPoint(None, 3, 120.0, ())
        c = ParetoPoint(None, 2, 100.0, ())
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c)  # equal on both axes: no strict edge
