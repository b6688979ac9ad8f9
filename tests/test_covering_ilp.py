"""The HiGHS covering engine, :func:`repro.covering.solve_ilp`.

How HiGHS outcomes and budgets map onto the ``CoverSolution`` /
``BudgetExceeded`` contract is pinned with a stub in place of
``scipy.optimize.milp``.  Exactness above the engine cutover is
pinned on instances whose optimum is known by construction: at that
size neither the native branch-and-bound nor enumeration is a usable
oracle.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import repro.covering.ilp as ilp_module
from repro import (
    Budget,
    BudgetExceeded,
    FaultInjector,
    FaultSpec,
    ResultQuality,
    SynthesisOptions,
    synthesize,
)
from repro.core import synthesis
from repro.core.exceptions import CoveringError
from repro.covering import (
    Column,
    CoverSolution,
    CoveringProblem,
    ReducedState,
    lp_lower_bound,
    screen_dominated,
    solve_cover,
    solve_ilp,
)
from repro.domains import wan_library
from repro.netgen import clustered_graph, two_tier_library
from repro.obs import tracing


def col(name, rows, weight):
    return Column(name=name, rows=frozenset(rows), weight=float(weight))


@pytest.fixture
def pair():
    """Two rows; the optimum {a, b} weighs 2, the cover {ab} weighs 3."""
    return CoveringProblem(
        ["r1", "r2"], [col("a", {"r1"}, 1), col("b", {"r2"}, 1), col("ab", {"r1", "r2"}, 3)]
    )


def stub_milp(monkeypatch, **result):
    """Replace ``milp`` by a stub returning ``result``; returns the
    options of every call."""
    calls = []

    def fake_milp(c, *, constraints, integrality, bounds, options):
        calls.append(dict(options))
        return OptimizeResult(message="stubbed", **result)

    monkeypatch.setattr(ilp_module, "milp", fake_milp)
    return calls


# ----------------------------------------------------------------------
# HiGHS outcomes
# ----------------------------------------------------------------------


class TestStatusMapping:
    def test_optimal_weight_is_summed_from_the_chosen_columns(self, monkeypatch, pair):
        stub_milp(monkeypatch, status=0, x=np.array([1.0, 1.0, 1e-9]), fun=99.0,
                  mip_node_count=3)
        sol = solve_ilp(pair)
        assert sol == CoverSolution(("a", "b"), 2.0, optimal=True, stats={"nodes": 3})

    def test_optimal_x_that_is_no_cover_is_rejected(self, monkeypatch, pair):
        stub_milp(monkeypatch, status=0, x=np.array([1.0, 0.0, 0.0]), mip_node_count=1)
        with pytest.raises(CoveringError, match="does not cover"):
            solve_ilp(pair)

    def test_limit_with_x_raises_with_partial(self, monkeypatch, pair):
        stub_milp(monkeypatch, status=1, x=np.array([0.0, 0.0, 1.0]), mip_node_count=5)
        with pytest.raises(BudgetExceeded) as info:
            solve_ilp(pair)
        assert info.value.partial == CoverSolution(
            ("ab",), 3.0, optimal=False, stats={"nodes": 5}
        )

    def test_limit_without_x_raises_without_partial(self, monkeypatch, pair):
        stub_milp(monkeypatch, status=1, x=None, mip_node_count=None)
        with pytest.raises(BudgetExceeded) as info:
            solve_ilp(pair)
        assert info.value.partial is None

    @pytest.mark.parametrize("status", [2, 4])
    def test_infeasible_or_other_status_is_a_covering_error(self, monkeypatch, pair, status):
        stub_milp(monkeypatch, status=status, x=None, mip_node_count=None)
        with pytest.raises(CoveringError) as info:
            solve_ilp(pair)
        assert not isinstance(info.value, BudgetExceeded)

    def test_final_cover_is_journaled(self, pair):
        records = []

        class Journal:
            def record_incumbent(self, stage, column_names, weight):
                records.append((stage, tuple(column_names), weight))

        solve_ilp(pair, journal=Journal())
        assert records == [("ilp", ("a", "b"), 2.0)]


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------


class TestBudgetMapping:
    @staticmethod
    def tracker(now, **limits):
        return Budget(**limits).start(clock=lambda: now[0])

    def test_remaining_time_and_nodes_become_highs_limits(self, monkeypatch, pair):
        now = [0.0]
        root = self.tracker(now, deadline_s=10.0, max_nodes=50)
        for _ in range(8):
            root.charge_node()
        now[0] = 4.0
        calls = stub_milp(monkeypatch, status=0, x=np.array([1.0, 1.0, 0.0]),
                          mip_node_count=7)
        solve_ilp(pair, budget=root)
        assert calls[-1]["time_limit"] == pytest.approx(6.0)
        assert calls[-1]["node_limit"] == 42
        assert calls[-1]["mip_rel_gap"] == 0.0
        assert root.nodes_used == 15  # the solver's nodes are charged to the root
        solve_ilp(pair, max_nodes=30, budget=root.stage(share=0.5))
        assert calls[-1]["time_limit"] == pytest.approx(3.0)
        assert calls[-1]["node_limit"] == 30
        assert root.nodes_used == 22

    def test_no_budget_means_no_time_limit(self, monkeypatch, pair):
        calls = stub_milp(monkeypatch, status=0, x=np.array([1.0, 1.0, 0.0]),
                          mip_node_count=1)
        solve_ilp(pair, max_nodes=9)
        assert calls[-1]["time_limit"] == float("inf")
        assert calls[-1]["node_limit"] == 9

    def test_start_checkpoint_is_forced(self, monkeypatch, pair):
        # the clock is read at ilp.start even between check_every reads
        now = [0.0]
        root = self.tracker(now, deadline_s=1.0, check_every=64)
        root.checkpoint()
        now[0] = 2.0
        calls = stub_milp(monkeypatch, status=0, x=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(BudgetExceeded, match="ilp.start") as info:
            solve_ilp(pair, budget=root)
        assert info.value.reason == "deadline" and info.value.partial is None
        assert calls == []

    def test_spent_node_budget_never_calls_highs(self, monkeypatch, pair):
        root = self.tracker([0.0], max_nodes=3)
        for _ in range(3):
            root.charge_node()
        calls = stub_milp(monkeypatch, status=0, x=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(BudgetExceeded) as info:
            solve_ilp(pair, budget=root)
        assert info.value.reason == "nodes"
        assert calls == []

    def test_real_time_limit_is_honoured(self):
        # the clock stands still, so ilp.start passes and HiGHS itself
        # gets a time limit it cannot meet: it stops instead of solving
        root = Budget(deadline_s=1e-9).start(clock=lambda: 0.0)
        with pytest.raises(BudgetExceeded) as info:
            solve_ilp(odd_triangles(70), budget=root)
        assert info.value.reason == "deadline"


# ----------------------------------------------------------------------
# known optima above the cutover
# ----------------------------------------------------------------------


def odd_triangles(n):
    """``n`` disjoint odd triangles: column ``v{t}_{j}`` covers edges
    ``j`` and ``j+1 (mod 3)`` of triangle ``t``.  The LP optimum puts
    1/2 on every column (1.5 per triangle); a cover needs 2 per triangle."""
    rows, columns = [], []
    for t in range(n):
        edges = [f"e{t}_{j}" for j in range(3)]
        rows += edges
        columns += [col(f"v{t}_{j}", {edges[j], edges[(j + 1) % 3]}, 1) for j in range(3)]
    return CoveringProblem(rows, columns)


def planted(n_rows, n_decoys, seed, per_row=3.0):
    """A unique optimum planted by LP duality.

    A partition of the rows into blocks costs ``per_row`` per row; each
    decoy column costs more per row.  ``y_r = per_row`` is dual feasible
    and tight exactly on the blocks, so every cover weighs at least
    ``per_row * n_rows``, with equality only for the partition.
    """
    rng = random.Random(seed)
    rows = [f"r{i}" for i in range(n_rows)]
    shuffled = rng.sample(rows, n_rows)
    blocks, start = [], 0
    while start < n_rows:
        size = rng.randint(1, 4)
        blocks.append(shuffled[start:start + size])
        start += size
    columns = [col(f"p{b}", block, per_row * len(block)) for b, block in enumerate(blocks)]
    for d in range(n_decoys):
        covered = rng.sample(rows, rng.randint(2, 8))
        columns.append(col(f"d{d}", covered, per_row * len(covered) * rng.uniform(1.01, 1.3)))
    partition = tuple(sorted(f"p{b}" for b in range(len(blocks))))
    return CoveringProblem(rows, columns), partition


class TestKnownOptimaAboveCutover:
    def test_odd_triangles_need_branching_or_cuts(self):
        problem = odd_triangles(70)
        assert problem.n_columns == 210 >= synthesis.ILP_CUTOVER_COLUMNS
        assert lp_lower_bound(ReducedState.initial(problem)) == pytest.approx(105.0)
        sol = solve_ilp(problem)
        assert sol.optimal and sol.weight == 140.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_partition_is_the_unique_optimum(self, seed):
        problem, partition = planted(n_rows=120, n_decoys=160, seed=seed)
        assert problem.n_columns >= synthesis.ILP_CUTOVER_COLUMNS
        sol = solve_ilp(problem)
        assert sol.optimal
        assert sol.column_names == partition
        assert sol.weight == 3.0 * 120


@pytest.mark.parametrize("seed", range(1000, 1010))
def test_engines_agree_on_screened_batch_warm_covers(seed):
    """Unscreened, these covers hold tied optima that HiGHS breaks its own
    way; screened, bnb and HiGHS both return bnb's unscreened labels."""
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0, seed=seed
    )
    covering = synthesize(graph, two_tier_library(), SynthesisOptions(max_arity=3)).covering
    expected = solve_cover(covering).column_names
    screened = screen_dominated(covering)
    assert screened.n_columns < covering.n_columns
    assert solve_cover(screened).column_names == expected
    assert solve_ilp(screened).column_names == expected


# ----------------------------------------------------------------------
# the engine cutover, and decompose's budget degradation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_columns, engine",
    [(synthesis.ILP_CUTOVER_COLUMNS - 1, "bnb"), (synthesis.ILP_CUTOVER_COLUMNS, "ilp")],
)
def test_solve_exact_engine_cutover(monkeypatch, n_columns, engine):
    problem = CoveringProblem(["r"], [col(f"c{i}", {"r"}, 1 + i) for i in range(n_columns)])
    assert _engines_used(monkeypatch, problem) == [engine]


def test_engine_follows_the_screened_width(monkeypatch):
    # 201 columns, but the 10 pairs cost more than their singletons:
    # the screened cover is 191 columns wide, so bnb solves it
    columns = [col(f"c{i}", {"r"}, 1 + i) for i in range(190)] + [col("s", {"s"}, 1.0)]
    columns += [col(f"d{i}", {"r", "s"}, 5.0 + i) for i in range(10)]
    problem = CoveringProblem(["r", "s"], columns)
    assert problem.n_columns >= synthesis.ILP_CUTOVER_COLUMNS
    assert _engines_used(monkeypatch, problem) == ["bnb"]


def _engines_used(monkeypatch, problem):
    # the engines are looked up in repro.core.synthesis at call time, so
    # a wrapper installed there (as perfbench's tracer does) sees the call
    used = []

    def spy(name):
        def solve(problem, *args, **kwargs):
            used.append(name)
            return CoverSolution(("c0",), 1.0)
        return solve

    monkeypatch.setattr(synthesis, "solve_cover", spy("bnb"))
    monkeypatch.setattr(synthesis, "solve_ilp", spy("ilp"))
    synthesis._budgeted_cover(problem, None)
    return used


def test_decompose_budget_spent_before_covering_serves_degraded_greedy(monkeypatch):
    # the deadline passes at the first cover's ilp.start checkpoint:
    # every cluster falls back to greedy, nothing waits on HiGHS
    monkeypatch.setattr(synthesis, "ILP_CUTOVER_COLUMNS", 1)  # every block starts on ilp
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=6, n_arcs=16, cluster_spread=4.0,
        separation=800.0, bandwidth_range=(1.0, 3.0), seed=7, intra_fraction=1.0,
    )
    now = [0.0]

    def sleep(seconds):
        now[0] += seconds

    root = Budget(deadline_s=60.0).start(clock=lambda: now[0])
    stall = FaultSpec(site="ilp.start", kind="stall", stall_s=120.0, times=1)
    with FaultInjector([stall], sleep=sleep), tracing() as t:
        result = synthesize(
            graph, wan_library(),
            SynthesisOptions(strategy="decompose", max_arity=2),
            budget=root,
        )
    assert result.degradation.quality is ResultQuality.DEGRADED_GREEDY
    assert result.decomposition.n_clusters >= 2
    assert "covering.ilp.nodes" not in t.counters
    assert t.counters["covering.greedy.iterations"] > 0
    # the first block's ilp stage hits the stall; every later exact stage
    # is skipped, and greedy serves each block
    attempts = [(a.stage, a.outcome) for a in result.degradation.attempts]
    assert attempts[:3] == [("ilp", "budget_exceeded"), ("bnb", "skipped"), ("greedy", "completed")]
    assert attempts[3:] == [
        ("ilp", "skipped"), ("bnb", "skipped"), ("greedy", "completed"),
    ] * (result.decomposition.n_clusters - 1)
    result.covering.check_solution(result.cover)
