"""Edge cases and error paths across modules."""

import pytest

from repro import (
    CommunicationLibrary,
    ConstraintGraph,
    EUCLIDEAN,
    Link,
    NodeKind,
    NodeSpec,
    Point,
    SynthesisError,
)


class TestExceptionHierarchy:
    def test_all_errors_are_synthesis_errors(self):
        from repro.core import exceptions

        for name in exceptions.__all__:
            cls = getattr(exceptions, name)
            assert issubclass(cls, exceptions.SynthesisError)

    def test_catchable_as_family(self, wan_graph):
        from repro import synthesize

        lib = CommunicationLibrary()
        lib.add_link(Link("weak", bandwidth=1.0, cost_per_unit=1.0))
        with pytest.raises(SynthesisError):
            synthesize(wan_graph, lib)


class TestVisualizeDegenerate:
    def test_single_point_graph_renders(self):
        from repro.analysis import render_constraint_graph_svg

        g = ConstraintGraph()
        g.add_port("only", Point(3, 3))
        svg = render_constraint_graph_svg(g)
        assert svg.startswith("<svg")

    def test_collinear_points_render(self):
        from repro.analysis import render_constraint_graph_svg

        g = ConstraintGraph()
        g.add_port("a", Point(0, 5))
        g.add_port("b", Point(10, 5))  # zero vertical span
        g.add_channel("x", "a", "b", bandwidth=1.0)
        svg = render_constraint_graph_svg(g)
        assert "<line" in svg


class TestIoErrorPaths:
    def test_unknown_norm_rejected(self):
        from repro.io import constraint_graph_from_dict
        from repro.core.exceptions import InstanceFormatError

        with pytest.raises(InstanceFormatError, match="unknown norm"):
            constraint_graph_from_dict({"name": "x", "norm": "hyperbolic", "ports": [], "arcs": []})

    def test_unknown_node_kind_rejected(self):
        from repro.io import library_from_dict
        from repro.core.exceptions import InstanceFormatError

        with pytest.raises(InstanceFormatError, match="unknown node kind"):
            library_from_dict({
                "name": "x",
                "links": [{"name": "l", "bandwidth": 1.0, "max_length": 1.0,
                           "cost_fixed": 1.0, "cost_per_unit": 0.0}],
                "nodes": [{"name": "n", "kind": "teleporter", "cost": 0.0, "max_degree": None}],
            })

    def test_missing_file(self, tmp_path):
        from repro.io import load_instance

        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "nope.json")


class TestCoverSolutionApi:
    def test_contains(self):
        from repro.covering import CoverSolution

        sol = CoverSolution(("a", "b"), 2.0)
        assert "a" in sol and "z" not in sol


class TestOverlappingSelection:
    def test_materialize_unions_paths(self, wan_graph, wan_lib):
        """Two candidates covering the same arc: the path sets union
        (legal in unate covering, even if never optimal)."""
        from repro import generate_candidates, materialize_selection

        cs = generate_candidates(wan_graph, wan_lib, max_arity=2)
        by_label = {c.label(): c for c in cs.all}
        a4_p2p = by_label["p2p(a4)"]
        a45 = by_label["merge(a4+a5)"]
        singles = [by_label[f"p2p(a{i})"] for i in (1, 2, 3, 6, 7, 8)]
        impl = materialize_selection(wan_graph, wan_lib, [a4_p2p, a45] + singles)
        # a4 has paths from both candidates
        assert len(impl.arc_implementation("a4")) == 2
        assert len(impl.arc_implementation("a5")) == 1


class TestGreedyMaxGroup:
    def test_group_cap_respected(self):
        from repro.baselines import greedy_synthesis
        from repro.netgen import parallel_channels_graph, two_tier_library

        graph = parallel_channels_graph(k=4, distance=100.0, pitch=1.0)
        result = greedy_synthesis(graph, two_tier_library(), max_group=2, check=False)
        from repro.core.implementation import shared_arc_groups

        for group in shared_arc_groups(result.implementation):
            assert len(group) <= 2


class TestWeiszfeldStart:
    def test_custom_start_converges_same(self):
        from repro.core.placement import weiszfeld

        anchors = [Point(0, 0), Point(10, 0), Point(5, 8)]
        weights = [1.0, 1.0, 1.0]
        p1, _ = weiszfeld(anchors, weights)
        p2, _ = weiszfeld(anchors, weights, start=Point(100, 100))
        assert p1.is_close(p2, tol=1e-5)


class TestReportDefaults:
    def test_report_without_title(self, wan_graph, wan_lib):
        from repro import synthesize
        from repro.analysis import synthesis_report

        text = synthesis_report(synthesize(wan_graph, wan_lib))
        assert not text.startswith("=")
        assert "Candidate generation" in text


class TestPruneTolerance:
    def test_near_equality_prunes(self):
        from repro.core.pruning import _leq

        assert _leq(100.0, 100.0)
        assert _leq(100.0 + 1e-12, 100.0)  # within relative tolerance
        assert not _leq(100.1, 100.0)


class TestZeroLengthStageCost:
    def test_oracle_at_zero(self, per_unit_library):
        from repro.core.point_to_point import stage_cost

        oracle = stage_cost(10.0, per_unit_library).fn
        assert oracle(0.0) == 0.0

    def test_fixed_cost_at_zero(self, simple_library):
        from repro.core.point_to_point import stage_cost

        oracle = stage_cost(5.0, simple_library).fn
        assert oracle(0.0) == 5.0  # cheapest fixed cost
