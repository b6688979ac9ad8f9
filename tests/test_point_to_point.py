"""Unit tests for repro.core.point_to_point (Definitions 2.6/2.7)."""

import math

import pytest

from repro import (
    ArcImplementationKind,
    CommunicationLibrary,
    ConstraintGraph,
    ImplementationGraph,
    InfeasibleError,
    Link,
    NodeKind,
    NodeSpec,
    Point,
    best_point_to_point,
    point_to_point_cost,
)
from repro.core.geometry import EUCLIDEAN
from repro.core.point_to_point import check_assumption, materialize_plan, stage_cost


class TestMatching:
    def test_single_link_when_it_fits(self, simple_library):
        plan = best_point_to_point(distance=8.0, bandwidth=5.0, library=simple_library)
        assert plan.kind is ArcImplementationKind.MATCHING
        assert plan.link.name == "short"
        assert plan.cost == 5.0

    def test_cheapest_structure_wins_across_links(self, simple_library):
        # bandwidth 50 on "short" means 5 branches (5*5 + mux+demux = 31),
        # still cheaper than one "long" match at 80.
        plan = best_point_to_point(distance=8.0, bandwidth=50.0, library=simple_library)
        assert plan.link.name == "short"
        assert plan.branches == 5
        assert plan.cost == pytest.approx(31.0)

    def test_fast_link_wins_when_duplication_unavailable(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("short", bandwidth=10.0, max_length=10.0, cost_fixed=5.0))
        lib.add_link(Link("long", bandwidth=100.0, max_length=100.0, cost_fixed=80.0))
        # no mux/demux nodes: duplication is off the table
        plan = best_point_to_point(distance=8.0, bandwidth=50.0, library=lib)
        assert plan.link.name == "long"
        assert plan.kind is ArcImplementationKind.MATCHING


class TestSegmentation:
    def test_segments_count(self, simple_library):
        # d=25 over "short" (max 10) needs 3 segments + 2 repeaters = 15 + 4
        plan = best_point_to_point(distance=25.0, bandwidth=5.0, library=simple_library)
        assert plan.kind is ArcImplementationKind.SEGMENTATION
        assert plan.link.name == "short"
        assert plan.segments == 3
        assert plan.repeater_count == 2
        assert plan.cost == pytest.approx(3 * 5.0 + 2 * 2.0)

    def test_exact_multiple_boundary(self, simple_library):
        plan = best_point_to_point(distance=20.0, bandwidth=5.0, library=simple_library)
        assert plan.segments == 2  # ceil(20/10), not 3

    def test_longer_matching_beats_expensive_chain(self, simple_library):
        # d=90: 9 shorts + 8 reps = 45+16=61 vs one long = 80 -> chain wins
        plan = best_point_to_point(distance=90.0, bandwidth=5.0, library=simple_library)
        assert plan.link.name == "short"
        # d=95: 10 shorts + 9 reps = 50+18=68 < 80 still
        plan2 = best_point_to_point(distance=95.0, bandwidth=50.0, library=simple_library)
        assert plan2.link.name == "long"  # bandwidth forces long

    def test_segmentation_needs_repeater(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("l", bandwidth=10, max_length=10, cost_fixed=1))
        with pytest.raises(InfeasibleError):
            best_point_to_point(distance=25.0, bandwidth=5.0, library=lib)


class TestDuplication:
    def test_parallel_branches(self, simple_library):
        # b=25 over "short" (b=10) needs 3 branches; "long" matches at 80+
        plan = best_point_to_point(distance=8.0, bandwidth=25.0, library=simple_library)
        assert plan.kind is ArcImplementationKind.DUPLICATION
        assert plan.branches == 3
        assert plan.cost == pytest.approx(3 * 5.0 + 3.0 + 3.0)

    def test_branch_bandwidth_fits_link(self, simple_library):
        plan = best_point_to_point(distance=8.0, bandwidth=25.0, library=simple_library)
        assert plan.branch_bandwidth <= plan.link.bandwidth

    def test_duplication_needs_mux_demux(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("l", bandwidth=10, max_length=100, cost_fixed=1))
        with pytest.raises(InfeasibleError):
            best_point_to_point(distance=5.0, bandwidth=25.0, library=lib)

    def test_matching_on_fast_link_beats_duplication(self, simple_library):
        # b=150 > both: short needs 15 branches (15*5+6=81), long needs 2 (166)
        plan = best_point_to_point(distance=8.0, bandwidth=150.0, library=simple_library)
        assert plan.link.name == "short"
        assert plan.branches == 15


class TestCombined:
    def test_segmentation_plus_duplication(self, simple_library):
        # d=25 (3 segments of short), b=25 (3 branches)
        plan = best_point_to_point(distance=25.0, bandwidth=25.0, library=simple_library)
        assert plan.kind is ArcImplementationKind.GENERAL
        assert plan.segments >= 2 and plan.branches >= 2
        assert plan.link_count == plan.segments * plan.branches

    def test_infeasible_when_no_bandwidth_path(self, simple_library):
        # remove mux capability by building a library without nodes
        lib = CommunicationLibrary()
        lib.add_link(Link("tiny", bandwidth=1.0, max_length=1000, cost_fixed=1))
        with pytest.raises(InfeasibleError):
            best_point_to_point(distance=5.0, bandwidth=100.0, library=lib)


class TestPerUnitLibrary:
    def test_linear_cost(self, per_unit_library):
        assert point_to_point_cost(100.0, 10.0, per_unit_library) == pytest.approx(200.0)

    def test_fast_link_chosen_above_slow_bandwidth(self, per_unit_library):
        plan = best_point_to_point(100.0, 30.0, per_unit_library)
        assert plan.link.name == "fast"
        assert plan.cost == pytest.approx(400.0)

    def test_zero_length(self, per_unit_library):
        plan = best_point_to_point(0.0, 10.0, per_unit_library)
        assert plan.cost == 0.0 and plan.segments == 1


class TestCostOracle:
    @pytest.mark.parametrize("distance", [0.0, 0.5, 8.0, 10.0, 25.0, 90.0, 250.0])
    @pytest.mark.parametrize("bandwidth", [1.0, 10.0, 25.0, 150.0])
    def test_oracle_matches_plan_cost(self, simple_library, distance, bandwidth):
        oracle = stage_cost(bandwidth, simple_library).fn
        expected = best_point_to_point(distance, bandwidth, simple_library).cost
        assert oracle(distance) == expected

    def test_oracle_rejects_impossible_bandwidth(self):
        lib = CommunicationLibrary()
        lib.add_link(Link("tiny", bandwidth=1.0, max_length=10, cost_fixed=1))
        with pytest.raises(InfeasibleError):
            stage_cost(5.0, lib)


class TestMaterialize:
    def _graph(self, library):
        g = ImplementationGraph(library=library, norm=EUCLIDEAN)
        from repro.core.constraint_graph import Port

        g.add_computational_vertex(Port("u", Point(0, 0)))
        g.add_computational_vertex(Port("v", Point(25, 0)))
        return g

    def test_segmentation_creates_evenly_spaced_repeaters(self, simple_library):
        impl = self._graph(simple_library)
        plan = best_point_to_point(25.0, 5.0, simple_library)
        paths = materialize_plan(impl, plan, "u", "v")
        assert len(paths) == 1
        reps = impl.communication_vertices
        assert len(reps) == 2
        xs = sorted(v.position.x for v in reps)
        assert xs == pytest.approx([25 / 3, 50 / 3])

    def test_duplication_creates_parallel_paths(self, simple_library):
        impl = ImplementationGraph(library=simple_library, norm=EUCLIDEAN)
        from repro.core.constraint_graph import Port

        impl.add_computational_vertex(Port("u", Point(0, 0)))
        impl.add_computational_vertex(Port("v", Point(8, 0)))
        plan = best_point_to_point(8.0, 25.0, simple_library)
        paths = materialize_plan(impl, plan, "u", "v")
        assert len(paths) == 3
        assert all(len(p) == 1 for p in paths)
        kinds = {v.node.kind for v in impl.communication_vertices}
        assert kinds == {NodeKind.MUX, NodeKind.DEMUX}

    def test_materialized_cost_matches_plan(self, simple_library):
        impl = self._graph(simple_library)
        plan = best_point_to_point(25.0, 5.0, simple_library)
        materialize_plan(impl, plan, "u", "v")
        assert impl.cost() == pytest.approx(plan.cost)


class TestAssumptionCheck:
    def test_wan_library_satisfies_assumption(self, wan_graph, wan_lib):
        assert check_assumption(wan_graph, wan_lib) == []

    def test_affine_costs_are_monotone_in_d_and_b(self, simple_library):
        """With affine link costs, the p2p optimum is provably monotone
        nondecreasing in both distance and bandwidth — sample a grid to
        confirm the structural argument."""
        import itertools

        ds = [1.0, 5.0, 10.0, 15.0, 40.0]
        bs = [1.0, 5.0, 10.0, 25.0, 120.0]
        costs = {
            (d, b): point_to_point_cost(d, b, simple_library)
            for d, b in itertools.product(ds, bs)
        }
        for (d1, b1), (d2, b2) in itertools.product(costs, repeat=2):
            if d1 <= d2 and b1 <= b2:
                assert costs[(d1, b1)] <= costs[(d2, b2)] + 1e-9

    def test_zero_cost_arc_violates_positivity(self, per_unit_library):
        """Coincident ports make a zero-length arc, which per-unit links
        implement at zero cost — the one reachable Assumption 2.1 breach."""
        g = ConstraintGraph()
        g.add_port("A1", Point(0, 0))
        g.add_port("A2", Point(0, 0))
        g.add_channel("z", "A1", "A2", bandwidth=5.0)
        violations = check_assumption(g, per_unit_library)
        assert violations and "strictly positive" in violations[0]

    def test_strict_mode_raises(self, per_unit_library):
        from repro import AssumptionViolation

        g = ConstraintGraph()
        g.add_port("A1", Point(0, 0))
        g.add_port("A2", Point(0, 0))
        g.add_channel("z", "A1", "A2", bandwidth=5.0)
        with pytest.raises(AssumptionViolation):
            check_assumption(g, per_unit_library, strict=True)
