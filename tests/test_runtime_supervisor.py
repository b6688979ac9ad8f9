"""Fallback-chain tests for the budgeted covering solve.

Every driver's covering step runs ``_budgeted_cover``: the primary exact
engine (picked by the screened cover's width) on half the remaining
budget, the other exact engine on the rest, then greedy.  Every
transition is forced by deterministic fault injection and asserted on:
which stages ran, which cover is served, and how it is tagged.
"""

import itertools

import pytest

from repro.core.exceptions import (
    BudgetExceeded,
    CoveringError,
    InfeasibleError,
    SynthesisError,
)
from repro.core import synthesis
from repro.core.synthesis import _budgeted_cover
from repro.covering.matrix import Column, CoverSolution, CoveringProblem
from repro.runtime import Budget, FaultInjector, FaultSpec, ResultQuality


def col(name, rows, weight=1.0):
    return Column(name=name, rows=frozenset(rows), weight=weight)


@pytest.fixture()
def greedy_trap():
    """Instance where weight-greedy is strictly suboptimal: greedy takes
    "wide" first (best ratio 3/1.0), must then add "right" for r4 —
    total 1.8 — while {left, right} covers everything for 1.6."""
    return CoveringProblem(
        ["r1", "r2", "r3", "r4"],
        [
            col("wide", {"r1", "r2", "r3"}, 1.0),
            col("left", {"r1", "r2"}, 0.8),
            col("right", {"r3", "r4"}, 0.8),
        ],
    )


def solve(problem, tracker=None, **kwargs):
    """The budgeted chain under a generous deadline (or ``tracker``)."""
    if tracker is None:
        tracker = Budget(deadline_s=60.0).start()
    return _budgeted_cover(problem, tracker, **kwargs)


def stages(report):
    return [(a.stage, a.outcome) for a in report.attempts]


def bnb_stops_with(columns, weight):
    """A ``supervisor.bnb`` fault: bnb "runs out of budget" leaving the
    given cover as its partial."""
    partial = CoverSolution(column_names=columns, weight=weight, optimal=False)
    return FaultSpec(
        site="supervisor.bnb",
        exception=lambda msg: BudgetExceeded(msg, reason="injected-timeout", partial=partial),
    )


class TestHappyPath:
    def test_bnb_completes_optimal(self, greedy_trap):
        cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.6)
        assert report.quality is ResultQuality.OPTIMAL
        assert report.source_stage == "bnb"
        assert stages(report) == [("bnb", "completed")]
        assert not report.degraded

    def test_truncated_candidates_downgrade_tag(self, greedy_trap):
        cover, report = solve(greedy_trap, candidate_set_complete=False)
        assert cover.weight == pytest.approx(1.6)  # exact over what it was given
        assert report.quality is ResultQuality.FEASIBLE_SUBOPTIMAL
        assert report.candidate_generation_truncated

    def test_unbudgeted_runs_the_primary_alone(self, greedy_trap):
        cover, report = _budgeted_cover(greedy_trap, None)
        assert cover.weight == pytest.approx(1.6)
        assert report is None
        # and its errors propagate: no fallback without a budget
        with FaultInjector([FaultSpec(site="bnb.*", kind="error")]):
            with pytest.raises(SynthesisError):
                _budgeted_cover(greedy_trap, None)


class TestTransitions:
    def test_bnb_timeout_falls_to_ilp(self, greedy_trap):
        plan = [FaultSpec(site="bnb.node", kind="timeout")]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.6)  # ilp is exact too
        assert report.quality is ResultQuality.OPTIMAL
        assert report.source_stage == "ilp"
        assert stages(report) == [("bnb", "budget_exceeded"), ("ilp", "completed")]

    def test_ilp_timeout_falls_to_bnb(self, greedy_trap, monkeypatch):
        # a cover at the cutover width starts on ilp
        monkeypatch.setattr(synthesis, "ILP_CUTOVER_COLUMNS", greedy_trap.n_columns)
        plan = [FaultSpec(site="ilp.start", kind="timeout")]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.6)
        assert report.quality is ResultQuality.OPTIMAL
        assert stages(report) == [("ilp", "budget_exceeded"), ("bnb", "completed")]

    def test_ilp_failure_falls_to_greedy(self, greedy_trap):
        plan = [
            FaultSpec(site="bnb.*", kind="error"),
            FaultSpec(site="ilp.*", kind="error"),
        ]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.8)  # the greedy trap, served honestly
        assert report.quality is ResultQuality.DEGRADED_GREEDY
        assert report.source_stage == "greedy"
        assert stages(report) == [("bnb", "error"), ("ilp", "error"), ("greedy", "completed")]

    def test_partial_incumbent_served_when_greedy_also_fails(self, greedy_trap):
        plan = [
            FaultSpec(site="bnb.node", kind="timeout"),  # bnb keeps its greedy seed
            FaultSpec(site="ilp.*", kind="error"),
            FaultSpec(site="greedy.select", kind="error"),
        ]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.8)  # bnb's seeded incumbent
        assert report.quality is ResultQuality.FEASIBLE_SUBOPTIMAL
        assert report.source_stage == "bnb-partial"
        assert stages(report)[-1] == ("greedy", "error")

    def test_total_exhaustion_raises_with_no_incumbent(self, greedy_trap):
        plan = [FaultSpec(site="*", kind="error")]  # every site, every stage
        with FaultInjector(plan):
            with pytest.raises(BudgetExceeded) as exc:
                solve(greedy_trap)
        assert exc.value.partial is None

    def test_fail_policy_raises_with_partial_attached(self, greedy_trap):
        plan = [
            FaultSpec(site="bnb.node", kind="timeout"),
            FaultSpec(site="ilp.*", kind="error"),
        ]
        with FaultInjector(plan):
            with pytest.raises(BudgetExceeded) as exc:
                solve(greedy_trap, on_budget_exhausted="fail")
        assert exc.value.partial is not None
        assert exc.value.partial.weight == pytest.approx(1.8)

    def test_fail_policy_refuses_a_truncated_candidate_set(self, greedy_trap):
        with pytest.raises(BudgetExceeded) as exc:
            solve(greedy_trap, on_budget_exhausted="fail", candidate_set_complete=False)
        assert exc.value.partial.weight == pytest.approx(1.6)


class TestPartialVersusGreedy:
    def test_cheaper_partial_beats_greedy(self, greedy_trap):
        plan = [bnb_stops_with(("left", "right"), 1.6), FaultSpec(site="ilp.*", kind="error")]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.column_names == ("left", "right")
        assert report.quality is ResultQuality.FEASIBLE_SUBOPTIMAL
        assert report.source_stage == "bnb-partial"
        assert stages(report) == [
            ("bnb", "budget_exceeded"), ("ilp", "error"), ("greedy", "completed"),
        ]

    def test_tie_goes_to_the_partial(self, greedy_trap):
        # bnb stops at its first node holding its greedy seed: same weight
        plan = [FaultSpec(site="bnb.node", kind="timeout"), FaultSpec(site="ilp.*", kind="error")]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.8)
        assert report.quality is ResultQuality.FEASIBLE_SUBOPTIMAL
        assert report.source_stage == "bnb-partial"

    def test_greedy_beats_a_costlier_partial(self, greedy_trap):
        plan = [
            bnb_stops_with(("left", "right", "wide"), 2.6),
            FaultSpec(site="ilp.*", kind="error"),
        ]
        with FaultInjector(plan):
            cover, report = solve(greedy_trap)
        assert cover.weight == pytest.approx(1.8)
        assert report.quality is ResultQuality.DEGRADED_GREEDY
        assert report.source_stage == "greedy"


class TestBudgets:
    def test_expired_deadline_skips_all_stages(self, greedy_trap):
        """Every budgeted stage is skipped; greedy, which runs without
        the budget, still serves a cover."""
        clock = itertools.count(0.0, 10.0)  # jumps 10s per reading
        tracker = Budget(deadline_s=1.0).start(clock=lambda: float(next(clock)))
        cover, report = solve(greedy_trap, tracker=tracker)
        assert cover.weight == pytest.approx(1.8)
        assert report.quality is ResultQuality.DEGRADED_GREEDY
        assert stages(report) == [
            ("bnb", "skipped"), ("ilp", "skipped"), ("greedy", "completed"),
        ]
        assert report.budget_exhausted

    def test_infeasible_is_not_a_degradation_case(self):
        p = CoveringProblem(["r1", "r2"], [col("a", {"r1"})])
        with pytest.raises(CoveringError, match="infeasible"):
            solve(p)

    def test_infeasible_stage_error_propagates(self, greedy_trap):
        plan = [FaultSpec(site="supervisor.bnb", exception=InfeasibleError)]
        with FaultInjector(plan):
            with pytest.raises(InfeasibleError):
                solve(greedy_trap)

    def test_determinism_across_runs_with_same_seed(self, greedy_trap):
        plan = [
            FaultSpec(site="bnb.*", kind="error", probability=0.7),
            FaultSpec(site="ilp.*", kind="error", probability=0.7),
        ]

        def run():
            with FaultInjector(plan, seed=42):
                cover, report = solve(greedy_trap)
            return cover.column_names, cover.weight, report.quality, stages(report)

        assert run() == run()
