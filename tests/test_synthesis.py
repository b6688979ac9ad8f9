"""Unit and fidelity tests for repro.core.synthesis — the end-to-end
driver, including the paper's Figure 4 result."""

import pytest

from repro import (
    InfeasibleError,
    PruningLevel,
    SynthesisError,
    SynthesisOptions,
    synthesize,
)
from repro.core.constraint_graph import ConstraintGraph
from repro.core.merging import stage_plans
from repro.covering import solve_ilp
from repro.netgen import parallel_channels_graph, star_graph, two_tier_library


class TestWanFigure4:
    """The paper's Example 1 headline result."""

    @pytest.fixture(scope="class")
    def result(self, wan_graph, wan_lib):
        return synthesize(wan_graph, wan_lib)

    def test_optimum_merges_a4_a5_a6(self, result):
        """Figure 4: "the minimum cost solution is obtained by merging
        the arcs a4 with a5 and a6 in an optical link"."""
        assert result.merged_groups == [("a4", "a5", "a6")]

    def test_other_arcs_are_dedicated_radio_links(self, result):
        """"... and implementing each of the other arcs with a dedicated
        radio link"."""
        singles = [c for c in result.selected if not c.is_merging]
        assert {c.arc_names[0] for c in singles} == {"a1", "a2", "a3", "a7", "a8"}
        for c in singles:
            assert c.plan.link.name == "radio"
            assert c.plan.kind.value == "matching"

    def test_trunk_is_optical(self, result, wan_graph, wan_lib):
        merge = next(c for c in result.selected if c.is_merging)
        assert stage_plans(wan_graph, merge.plan, wan_lib).trunk.link.name == "optical"

    def test_costs(self, result):
        assert result.point_to_point_cost == pytest.approx(644935.0, rel=1e-4)
        assert result.total_cost == pytest.approx(464579.4, rel=1e-4)
        assert result.savings_ratio == pytest.approx(0.2797, abs=1e-3)

    def test_cover_weight_matches_implementation_cost(self, result):
        assert result.implementation.cost() == pytest.approx(result.total_cost, rel=1e-9)

    def test_solvers_agree(self, result):
        # HiGHS on the full, unscreened cover: the served cover is optimal
        assert result.total_cost == pytest.approx(solve_ilp(result.covering).weight)

    def test_pruning_levels_agree_on_optimum(self, wan_graph, wan_lib):
        """Lemma pruning is sound: disabling it must not change the
        optimum (only enlarge the candidate set)."""
        none = synthesize(wan_graph, wan_lib, SynthesisOptions(pruning=PruningLevel.NONE, max_arity=4))
        lemmas = synthesize(wan_graph, wan_lib, SynthesisOptions(pruning=PruningLevel.LEMMAS, max_arity=4))
        assert none.total_cost == pytest.approx(lemmas.total_cost)


class TestDriverBehaviour:
    def test_empty_graph_rejected(self, wan_lib):
        with pytest.raises(SynthesisError, match="no arcs"):
            synthesize(ConstraintGraph(), wan_lib)

    @pytest.mark.parametrize(
        "strategy, budgeted",
        [("exact", False), ("exact", True), ("decompose", True)],
    )
    def test_unknown_budget_policy_rejected(self, wan_graph, wan_lib, strategy, budgeted):
        from repro import Budget

        with pytest.raises(SynthesisError, match="unknown on_budget_exhausted"):
            synthesize(
                wan_graph, wan_lib,
                SynthesisOptions(strategy=strategy, on_budget_exhausted="panic"),
                budget=Budget(deadline_s=60.0) if budgeted else None,
            )

    @pytest.mark.parametrize("driver", ["synthesize", "incremental", "lid"])
    @pytest.mark.parametrize("max_arity", [0, -1])
    def test_nonpositive_max_arity_rejected(self, wan_graph, wan_lib, driver, max_arity):
        # below 1 no merging exists: every driver used to serve the
        # point-to-point baseline silently
        from repro.core.incremental import IncrementalSynthesizer
        from repro.domains.lid import lid_aware_synthesize

        run = {
            "synthesize": lambda o: synthesize(wan_graph, wan_lib, o),
            "incremental": lambda o: IncrementalSynthesizer(wan_graph, wan_lib, o).solve(),
            "lid": lambda o: lid_aware_synthesize(wan_graph, wan_lib, l_clock=2.0, options=o),
        }[driver]
        with pytest.raises(SynthesisError, match="max_arity"):
            run(SynthesisOptions(max_arity=max_arity))

    def test_infeasible_arc_raises(self, wan_graph):
        from repro import CommunicationLibrary, Link

        lib = CommunicationLibrary()
        lib.add_link(Link("weak", bandwidth=1.0, cost_per_unit=1.0))  # < 10 Mbps, no mux
        with pytest.raises(InfeasibleError):
            synthesize(wan_graph, lib)

    def test_result_carries_artifacts(self, wan_graph, wan_lib):
        r = synthesize(wan_graph, wan_lib)
        assert r.covering.n_rows == 8
        assert r.covering.n_columns == len(r.candidates.all)
        assert r.cover.optimal
        assert r.elapsed_seconds > 0

    def test_synthesis_never_worse_than_p2p(self, wan_graph, wan_lib):
        r = synthesize(wan_graph, wan_lib)
        assert r.total_cost <= r.point_to_point_cost + 1e-9


class TestParametricShapes:
    def test_parallel_channels_merge_onto_one_trunk(self):
        graph = parallel_channels_graph(k=4, distance=100.0, pitch=1.0, bandwidth=10.0)
        lib = two_tier_library()  # slow@2/unit (11 cap), fast@4/unit (1000 cap)
        r = synthesize(graph, lib)
        assert r.merged_groups == [("a1", "a2", "a3", "a4")]
        # trunk ~400 + tiny feeders, versus 4 * 200 = 800 p2p
        assert r.total_cost < 0.6 * r.point_to_point_cost

    def test_two_channels_do_not_merge_when_trunk_expensive(self):
        graph = parallel_channels_graph(k=2, distance=100.0, pitch=1.0, bandwidth=10.0)
        lib = two_tier_library(fast_cost_per_unit=5.0)  # 5 > 2 * 2 → merging loses
        r = synthesize(graph, lib)
        assert r.merged_groups == []
        assert r.total_cost == pytest.approx(r.point_to_point_cost)

    def test_crossover_with_trunk_price(self):
        """Sweep the fast link's price: merging 3 channels pays while
        fast < 3 * slow (modulo feeder detours)."""
        graph = parallel_channels_graph(k=3, distance=100.0, pitch=1.0, bandwidth=10.0)
        cheap = synthesize(graph, two_tier_library(fast_cost_per_unit=3.0))
        costly = synthesize(graph, two_tier_library(fast_cost_per_unit=6.5))
        assert cheap.merged_groups  # 3 < 3*2 → merge
        assert not costly.merged_groups  # 6.5 > 6 → stay dedicated

    def test_star_inbound_merges_toward_hub(self):
        graph = star_graph(n_leaves=4, radius=50.0, bandwidth=10.0)
        lib = two_tier_library()
        r = synthesize(graph, lib, SynthesisOptions(max_arity=4))
        # leaves are spread on a circle; at least some subset shares a trunk
        assert r.total_cost <= r.point_to_point_cost

    def test_max_arity_bounds_merge_size(self, wan_graph, wan_lib):
        r = synthesize(wan_graph, wan_lib, SynthesisOptions(max_arity=2))
        assert all(c.k <= 2 for c in r.selected)
