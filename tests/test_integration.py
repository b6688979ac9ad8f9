"""Cross-module integration tests: full user workflows end to end."""

import json

import pytest

from repro import (
    ArcImplementationKind,
    SynthesisOptions,
    classify_arc_implementation,
    shared_arc_groups,
    synthesize,
)
from repro.analysis import (
    breakdown_to_markdown,
    cost_breakdown,
    render_implementation_svg,
    result_to_markdown,
    synthesis_report,
)
from repro.baselines import exhaustive_synthesis, point_to_point_baseline
from repro.core.validation import validate
from repro.domains import lan_example, mpeg4_example, soc_example, wan_example
from repro.io import (
    constraint_graph_to_dot,
    implementation_to_dot,
    load_instance,
    save_instance,
    synthesis_result_to_dict,
)


class TestWanWorkflow:
    """Model → save → load → synthesize → validate → report → export."""

    def test_full_roundtrip_workflow(self, tmp_path):
        graph, library = wan_example()
        instance_path = tmp_path / "wan.json"
        save_instance(instance_path, graph, library)

        g2, lib2 = load_instance(instance_path)
        result = synthesize(g2, lib2)
        validate(result.implementation, g2)

        # the structural groups computed from the graph must agree with
        # the selection's merge groups
        assert shared_arc_groups(result.implementation) == [["a4", "a5", "a6"]]

        report = synthesis_report(result)
        assert "merged (shared trunk a4+a5+a6)" in report

        summary = synthesis_result_to_dict(result)
        json.dumps(summary)
        svg = render_implementation_svg(result.implementation)
        dot = implementation_to_dot(result.implementation)
        cdot = constraint_graph_to_dot(g2)
        assert svg.startswith("<svg") and "digraph" in dot and "digraph" in cdot

    def test_breakdown_reconciles_with_selection(self):
        graph, library = wan_example()
        result = synthesize(graph, library)
        breakdown = cost_breakdown(result.implementation)
        assert breakdown["__total__"] == pytest.approx(
            sum(c.cost for c in result.selected)
        )
        md = result_to_markdown(result) + "\n" + breakdown_to_markdown(result)
        assert "savings" in md and "link:optical" in md


class TestStructuralClassification:
    def test_wan_arc_structures(self):
        graph, library = wan_example()
        result = synthesize(graph, library)
        impl = result.implementation
        for arc in ("a1", "a2", "a3", "a7", "a8"):
            assert classify_arc_implementation(impl, arc) is ArcImplementationKind.MATCHING
        groups = shared_arc_groups(impl)
        assert groups == [["a4", "a5", "a6"]]

    def test_soc_arc_structures(self):
        graph, library = soc_example()
        result = synthesize(graph, library, SynthesisOptions(max_arity=2))
        impl = result.implementation
        kinds = {classify_arc_implementation(impl, a.name) for a in graph.arcs}
        # on-chip channels are longer than l_crit: segmentation everywhere
        assert ArcImplementationKind.MATCHING not in kinds


class TestCrossDomainConsistency:
    @pytest.mark.parametrize("builder,arity", [
        (wan_example, None),
        (soc_example, 3),
        (lan_example, 2),
    ])
    def test_every_domain_validates_and_beats_or_ties_p2p(self, builder, arity):
        graph, library = builder()
        result = synthesize(graph, library, SynthesisOptions(max_arity=arity))
        validate(result.implementation, graph)
        baseline = point_to_point_baseline(graph, library, check=False)
        assert result.total_cost <= baseline.total_cost + 1e-9
        assert result.implementation.cost() == pytest.approx(result.total_cost, rel=1e-9)

    def test_wan_optimum_certified_by_partition_oracle(self):
        graph, library = wan_example()
        exact = synthesize(graph, library)
        oracle = exhaustive_synthesis(graph, library, check=False)
        assert exact.total_cost == pytest.approx(oracle.total_cost, rel=1e-9)


class TestOptionInteractions:
    def test_all_options_together(self, monkeypatch):
        from repro.core import synthesis

        monkeypatch.setattr(synthesis, "ILP_CUTOVER_COLUMNS", 1)  # cover on ilp
        graph, library = soc_example()
        result = synthesize(
            graph,
            library,
            SynthesisOptions(max_arity=3, heterogeneous=True, max_merge_hops=30),
        )
        validate(result.implementation, graph)
        assert result.total_cost <= result.point_to_point_cost + 1e-9

    def test_mpeg4_with_hop_budget_keeps_55_or_more_repeaters(self):
        """Tightening latency can only move cost up from the optimum."""
        from repro.domains.mpeg4 import MPEG4_MAX_ARITY

        graph, library = mpeg4_example()
        free = synthesize(
            graph, library,
            SynthesisOptions(max_arity=MPEG4_MAX_ARITY, validate_result=False),
        )
        tight = synthesize(
            graph, library,
            SynthesisOptions(max_arity=MPEG4_MAX_ARITY, max_merge_hops=6, validate_result=False),
        )
        assert tight.total_cost >= free.total_cost - 1e-9
