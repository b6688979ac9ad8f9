"""End-to-end tests of supervised (budgeted) synthesis.

Covers the ISSUE acceptance criterion: with fault injection forcing
bnb and ilp failure, ``synthesize(..., budget=Budget(deadline_s=5))``
returns a valid Definition 2.4-validated implementation tagged
``degraded_greedy`` within the deadline (± one checkpoint interval),
deterministically across runs with the same fault seed.
"""

import dataclasses
import itertools
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    Budget,
    FaultInjector,
    FaultSpec,
    ResultQuality,
    SynthesisOptions,
    synthesize,
    validate,
)
from repro.core import synthesis
from repro.core.exceptions import BudgetExceeded
from repro.covering.ilp import solve_ilp
from repro.domains import wan_example, wan_library
from repro.netgen import clustered_graph, two_tier_library, uniform_graph

# generous wall-clock slack standing in for "one checkpoint interval":
# every budgeted loop iterates in microseconds, so a checkpoint interval
# (check_every iterations) plus final materialization is far below this.
OVERSHOOT_SLACK_S = 1.0


class TestBudgetedHappyPath:
    def test_budgeted_run_is_exact_and_tagged_optimal(self):
        graph, library = wan_example()
        plain = synthesize(graph, library)
        budgeted = synthesize(graph, library, budget=Budget(deadline_s=30.0))
        assert budgeted.total_cost == pytest.approx(plain.total_cost)
        report = budgeted.degradation
        assert report is not None
        assert report.quality is ResultQuality.OPTIMAL
        assert report.source_stage == "bnb"
        assert not report.degraded
        assert report.elapsed_s > 0.0
        assert "quality=optimal" in report.summary()

    def test_unbudgeted_run_has_no_report(self):
        graph, library = wan_example()
        result = synthesize(graph, library)
        assert result.degradation is None

    def test_wide_cover_chain_starts_on_ilp(self, monkeypatch):
        monkeypatch.setattr(synthesis, "ILP_CUTOVER_COLUMNS", 1)  # every cover is wide
        graph, library = wan_example()
        result = synthesize(graph, library, budget=Budget(deadline_s=30.0))
        assert result.degradation.quality is ResultQuality.OPTIMAL
        assert result.degradation.source_stage == "ilp"
        assert [a.stage for a in result.degradation.attempts] == ["ilp"]


class TestFallbacksEndToEnd:
    def test_bnb_timeout_served_by_ilp(self):
        graph, library = wan_example()
        plain = synthesize(graph, library)
        with FaultInjector([FaultSpec(site="bnb.node", kind="timeout")]):
            result = synthesize(graph, library, budget=Budget(deadline_s=30.0))
        assert result.total_cost == pytest.approx(plain.total_cost)
        assert result.degradation.quality is ResultQuality.OPTIMAL
        assert result.degradation.source_stage == "ilp"
        stages = [a.stage for a in result.degradation.attempts]
        assert stages == ["bnb", "ilp"]

    def test_acceptance_degraded_greedy_within_deadline(self):
        """The ISSUE acceptance criterion, verbatim."""
        graph, library = wan_example()
        plan = [
            FaultSpec(site="bnb.*", kind="error"),
            FaultSpec(site="ilp.*", kind="error"),
        ]

        def run():
            t0 = time.monotonic()
            with FaultInjector(plan, seed=11):
                result = synthesize(graph, library, budget=Budget(deadline_s=5.0))
            return result, time.monotonic() - t0

        result, elapsed = run()
        # served, degraded, and honest about it
        assert result.degradation.quality is ResultQuality.DEGRADED_GREEDY
        assert result.degradation.source_stage == "greedy"
        assert result.degradation.degraded
        # valid: Definition 2.4 holds for the served implementation
        validate(result.implementation, graph)
        # within the deadline plus one checkpoint interval of slack
        assert elapsed < 5.0 + OVERSHOOT_SLACK_S
        # deterministic across two runs with the same fault seed
        again, _ = run()
        assert [c.label() for c in again.selected] == [c.label() for c in result.selected]
        assert again.total_cost == pytest.approx(result.total_cost)
        assert again.degradation.quality is result.degradation.quality
        assert [
            (a.stage, a.outcome) for a in again.degradation.attempts
        ] == [(a.stage, a.outcome) for a in result.degradation.attempts]

    def test_candidate_truncation_downgrades_quality(self):
        graph, library = wan_example()
        with FaultInjector([FaultSpec(site="candidates.subset", kind="timeout")]):
            result = synthesize(graph, library, budget=Budget(deadline_s=30.0))
        assert result.candidates.stats.budget_truncated
        assert result.degradation.candidate_generation_truncated
        # the covering was still solved exactly -- over a truncated set
        assert result.degradation.quality is ResultQuality.FEASIBLE_SUBOPTIMAL
        validate(result.implementation, graph)

    def test_fail_policy_raises_instead_of_serving_degraded(self):
        graph, library = wan_example()
        plan = [
            FaultSpec(site="bnb.*", kind="error"),
            FaultSpec(site="ilp.*", kind="error"),
        ]
        with FaultInjector(plan):
            with pytest.raises(BudgetExceeded) as exc:
                synthesize(
                    graph,
                    library,
                    SynthesisOptions(on_budget_exhausted="fail"),
                    budget=Budget(deadline_s=5.0),
                )
        assert exc.value.partial is not None  # the greedy incumbent rides along

    def test_already_expired_budget_raises(self):
        graph, library = wan_example()
        clock = itertools.count(0.0, 10.0)
        tracker = Budget(deadline_s=1.0).start(clock=lambda: float(next(clock)))
        with pytest.raises(BudgetExceeded):
            synthesize(graph, library, budget=tracker)


class TestScreenedCover:
    def test_bnb_serves_the_optimum_under_a_2s_deadline(self):
        """The screen shrinks this 12-arc cover from 159 to 34 columns,
        which bnb solves well inside its half of a 2 s deadline (about
        0.1 s; the unscreened cover took it about 8.5 s).  A lost screen
        sends the cover to the ilp fallback and fails the stage check."""
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=5, n_arcs=12, separation=100.0, seed=2005
        )
        result = synthesize(
            graph, two_tier_library(), SynthesisOptions(max_arity=3),
            budget=Budget(deadline_s=2.0),
        )
        assert result.degradation.quality is ResultQuality.OPTIMAL
        assert result.degradation.source_stage == "bnb"
        assert result.total_cost == pytest.approx(
            solve_ilp(result.covering).weight, rel=1e-9
        )


def _two_island():
    return clustered_graph(
        n_clusters=2, ports_per_cluster=6, n_arcs=16, cluster_spread=4.0,
        separation=800.0, bandwidth_range=(1.0, 3.0), seed=7, intra_fraction=1.0,
    ), wan_library()


#: the two-island optimum, and the cover greedy (and bnb's greedy-seeded
#: incumbent) serves on it.  merge(a2+a4) and its mirror merge(a4+a9)
#: cost exactly the same (13,089.866272006308, both certified optimal
#: placements; a pinned side's placement used to leave the first one
#: ulp higher), and greedy breaks equal ratios by name, so it takes the
#: a2+a4 path.  The optimum does not depend on that tie.
ISLAND_OPTIMUM = 117985.38071054274
ISLAND_GREEDY = 123715.36139731051


@pytest.mark.parametrize("strategy", ["exact", "decompose"])
@pytest.mark.parametrize(
    "plan, quality, cost",
    [
        (
            [FaultSpec(site="bnb.node", kind="timeout")],
            ResultQuality.OPTIMAL, ISLAND_OPTIMUM,
        ),
        (
            [FaultSpec(site="bnb.*", kind="error"), FaultSpec(site="ilp.*", kind="error")],
            ResultQuality.DEGRADED_GREEDY, ISLAND_GREEDY,
        ),
        (
            [
                FaultSpec(site="bnb.node", kind="timeout"),
                FaultSpec(site="ilp.*", kind="error"),
                FaultSpec(site="greedy.select", kind="error"),
            ],
            ResultQuality.FEASIBLE_SUBOPTIMAL, ISLAND_GREEDY,
        ),
    ],
    ids=["bnb-timeout", "exact-errors", "bnb-timeout-ilp-greedy-errors"],
)
def test_exact_and_decompose_degrade_alike(strategy, plan, quality, cost):
    """One covering policy: each decompose block degrades exactly as the
    whole instance does on the exact path."""
    graph, library = _two_island()
    with FaultInjector(plan):
        result = synthesize(
            graph, library, SynthesisOptions(strategy=strategy, max_arity=2),
            budget=Budget(deadline_s=60.0),
        )
    assert result.degradation.quality is quality
    assert result.total_cost == pytest.approx(cost, rel=1e-9)
    validate(result.implementation, graph)


ISLAND_ERRORS = [FaultSpec(site="bnb.*", kind="error"), FaultSpec(site="ilp.*", kind="error")]


@pytest.mark.parametrize("budgeted", [False, True], ids=["unbudgeted", "budgeted"])
@pytest.mark.parametrize("strategy", ["exact", "decompose"])
def test_resume_replays_only_an_optimal_cover(tmp_path, strategy, budgeted):
    """A journaled greedy cover is solved again on resume, not served
    as optimal."""
    graph, library = _two_island()
    options = SynthesisOptions(
        strategy=strategy, max_arity=2, checkpoint_path=str(tmp_path / "j.ckpt")
    )
    with FaultInjector(ISLAND_ERRORS):
        first = synthesize(graph, library, options, budget=Budget(deadline_s=60.0))
    assert first.degradation.quality is ResultQuality.DEGRADED_GREEDY
    assert first.total_cost == pytest.approx(ISLAND_GREEDY, rel=1e-9)
    resumed = synthesize(
        graph, library, dataclasses.replace(options, resume=True),
        budget=Budget(deadline_s=60.0) if budgeted else None,
    )
    assert resumed.total_cost == pytest.approx(ISLAND_OPTIMUM, rel=1e-9)
    if budgeted:
        assert resumed.degradation.quality is ResultQuality.OPTIMAL
    if strategy == "decompose":
        assert resumed.decomposition.certified
        assert resumed.decomposition.gap_bound == 0.0


@pytest.mark.parametrize("strategy", ["exact", "decompose"])
def test_fail_policy_partial_covers_the_whole_instance(strategy):
    graph, library = _two_island()
    options = SynthesisOptions(strategy=strategy, max_arity=2)
    with FaultInjector(ISLAND_ERRORS):
        with pytest.raises(BudgetExceeded) as exc:
            synthesize(
                graph, library, dataclasses.replace(options, on_budget_exhausted="fail"),
                budget=Budget(deadline_s=60.0),
            )
    partial = exc.value.partial
    assert partial.weight == pytest.approx(ISLAND_GREEDY, rel=1e-9)
    synthesize(graph, library, options).covering.check_solution(partial)  # every row


# -- property: the deadline is honored on random instances ------------------

libraries = st.builds(
    two_tier_library,
    fast_cost_per_unit=st.sampled_from([2.5, 4.0, 7.0]),
    mux_cost=st.sampled_from([0.0, 5.0]),
    demux_cost=st.sampled_from([0.0, 5.0]),
)

small_graphs = st.one_of(
    st.builds(
        clustered_graph,
        n_clusters=st.just(2),
        ports_per_cluster=st.sampled_from([2, 3]),
        n_arcs=st.integers(min_value=2, max_value=5),
        separation=st.sampled_from([30.0, 100.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(
        uniform_graph,
        n_ports=st.sampled_from([4, 5]),
        n_arcs=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
)


@settings(max_examples=15, deadline=None)
@given(small_graphs, libraries, st.sampled_from([0.02, 0.2, 2.0]))
def test_deadline_overshoot_stays_within_one_checkpoint_interval(
    graph, library, deadline_s
):
    """Whatever happens -- completion, degradation, or BudgetExceeded --
    the run returns within deadline + one checkpoint interval."""
    t0 = time.monotonic()
    try:
        result = synthesize(
            graph, library, budget=Budget(deadline_s=deadline_s, check_every=16)
        )
        assert result.degradation is not None
        validate(result.implementation, graph)
    except BudgetExceeded:
        pass  # nothing servable in time: allowed, as long as it was prompt
    elapsed = time.monotonic() - t0
    assert elapsed < deadline_s + OVERSHOOT_SLACK_S
