"""Unit tests for the covering solvers: bounds, greedy, B&B, ILP,
exhaustive — including agreement on crafted instances."""

import pytest

from repro.core.exceptions import CoveringError
from repro.covering import (
    Column,
    CoveringProblem,
    ReducedState,
    SolverOptions,
    greedy_cover,
    lp_lower_bound,
    mis_lower_bound,
    solve_cover,
    solve_exhaustive,
    solve_ilp,
)
from repro.covering.reductions import SCREEN_TOL, screen_dominated


def col(name, rows, weight=1.0):
    return Column(name, frozenset(rows), weight)


@pytest.fixture()
def diamond():
    """Classic instance where greedy by ratio is suboptimal:
    one big column almost covers everything but the cheap pair wins."""
    return CoveringProblem(
        rows=["r1", "r2", "r3", "r4"],
        columns=[
            col("big", {"r1", "r2", "r3"}, 2.0),   # best ratio (1.5) — greedy bait
            col("left", {"r1", "r2"}, 1.5),
            col("right", {"r3", "r4"}, 1.5),
            col("last", {"r4"}, 1.3),
        ],
    )


class TestBounds:
    def test_mis_bound_on_disjoint_rows(self):
        p = CoveringProblem(
            ["r1", "r2"], [col("a", {"r1"}, 2.0), col("b", {"r2"}, 3.0)]
        )
        state = ReducedState.initial(p)
        assert mis_lower_bound(state) == pytest.approx(5.0)

    def test_mis_bound_never_exceeds_optimum(self, diamond):
        state = ReducedState.initial(diamond)
        opt = solve_exhaustive(diamond).weight
        assert mis_lower_bound(state) <= opt + 1e-9

    def test_mis_bound_infinite_when_infeasible(self):
        p = CoveringProblem(["r1"], [col("a", {"r1"})])
        state = ReducedState.initial(p)
        state.exclude("a")
        assert mis_lower_bound(state) == float("inf")

    def test_lp_bound_sandwiched(self, diamond):
        state = ReducedState.initial(diamond)
        lp = lp_lower_bound(state)
        opt = solve_exhaustive(diamond).weight
        assert lp is not None
        assert lp <= opt + 1e-9
        assert lp >= 0

    def test_lp_bound_solved_state(self, diamond):
        state = ReducedState.initial(diamond)
        state.rows.clear()
        assert lp_lower_bound(state) == 0.0


class TestGreedy:
    def test_greedy_is_feasible(self, diamond):
        sol = greedy_cover(diamond)
        assert diamond.is_cover(sol.column_names)
        assert not sol.optimal

    def test_greedy_can_be_suboptimal(self, diamond):
        greedy = greedy_cover(diamond)
        exact = solve_exhaustive(diamond)
        assert greedy.weight >= exact.weight
        # on this instance strictly worse: big(3.1)+last(1.0) vs 3.0
        assert greedy.weight > exact.weight


class TestBranchAndBound:
    def test_matches_exhaustive_on_diamond(self, diamond):
        assert solve_cover(diamond).weight == pytest.approx(solve_exhaustive(diamond).weight)

    def test_selection_reported(self, diamond):
        sol = solve_cover(diamond)
        assert set(sol.column_names) == {"left", "right"}
        assert sol.weight == pytest.approx(3.0)

    def test_empty_rows_trivial(self):
        p = CoveringProblem([], [])
        sol = solve_cover(p)
        assert sol.column_names == () and sol.weight == 0.0

    def test_infeasible_detected(self):
        p = CoveringProblem(["r1", "r2"], [col("a", {"r1"})])
        with pytest.raises(CoveringError):
            solve_cover(p)

    def test_all_features_off_still_exact(self, diamond):
        opts = SolverOptions(use_reductions=False, use_lower_bounds=False, use_lp_bound=False)
        assert solve_cover(diamond, opts).weight == pytest.approx(3.0)

    def test_node_cap_enforced(self, diamond):
        with pytest.raises(CoveringError, match="max_nodes"):
            solve_cover(diamond, SolverOptions(use_reductions=False, use_lower_bounds=False, max_nodes=1))

    def test_stats_populated(self, diamond):
        sol = solve_cover(diamond)
        assert sol.stats["nodes"] >= 1
        assert sol.stats["greedy_seed_weight"] >= sol.weight


class TestIlp:
    def test_matches_exhaustive_on_diamond(self, diamond):
        assert solve_ilp(diamond).weight == pytest.approx(3.0)

    def test_infeasible_detected(self):
        p = CoveringProblem(["r1", "r2"], [col("a", {"r1"})])
        with pytest.raises(CoveringError):
            solve_ilp(p)

    def test_fractional_lp_forced_integral(self):
        """Odd-cycle instance whose LP optimum is fractional (x = 1/2
        everywhere): branching must recover the integral optimum 2."""
        p = CoveringProblem(
            rows=["e1", "e2", "e3"],
            columns=[
                col("v1", {"e1", "e3"}, 1.0),
                col("v2", {"e1", "e2"}, 1.0),
                col("v3", {"e2", "e3"}, 1.0),
            ],
        )
        sol = solve_ilp(p)
        assert sol.weight == pytest.approx(2.0)
        assert solve_cover(p).weight == pytest.approx(2.0)


class TestExhaustive:
    def test_cap_enforced(self):
        cols = [col(f"c{i}", {"r"}) for i in range(23)]
        p = CoveringProblem(["r"], cols)
        with pytest.raises(CoveringError, match="capped"):
            solve_exhaustive(p)

    def test_prefers_lighter_cover(self):
        p = CoveringProblem(
            ["r1", "r2"],
            [col("both", {"r1", "r2"}, 1.9), col("a", {"r1"}, 1.0), col("b", {"r2"}, 1.0)],
        )
        sol = solve_exhaustive(p)
        assert set(sol.column_names) == {"both"}


class TestScreen:
    def test_drops_columns_no_cheaper_than_their_singletons(self):
        p = CoveringProblem(
            ["a", "b", "c"],
            [
                col("a", {"a"}, 1.0), col("b", {"b"}, 2.0), col("c", {"c"}, 4.0),
                col("ab_tie", {"a", "b"}, 3.0),
                col("ab_dear", {"a", "b"}, 3.5),
                col("bc_cheap", {"b", "c"}, 5.9),
            ],
        )
        screened = screen_dominated(p)
        assert [c.name for c in screened.columns] == ["a", "b", "c", "bc_cheap"]
        assert screened.rows == p.rows

    def test_keeps_every_column_on_a_row_without_a_singleton(self):
        p = CoveringProblem(
            ["a", "b"], [col("a", {"a"}, 1.0), col("ab", {"a", "b"}, 100.0)]
        )
        assert screen_dominated(p) is p  # nothing dropped: the same problem

    def test_merges_a_few_ulps_under_their_singletons_are_dropped(self):
        # 0.1 + 0.2 sums to 0.30000000000000004, one ulp above 0.3
        p = CoveringProblem(
            ["a", "b"],
            [col("a", {"a"}, 0.1), col("b", {"b"}, 0.2), col("ab", {"a", "b"}, 0.3)],
        )
        assert [c.name for c in screen_dominated(p).columns] == ["a", "b"]
        # a merge cheaper by more than the slack stays
        cheaper = 0.3 * (1.0 - 10 * SCREEN_TOL)
        q = CoveringProblem(
            ["a", "b"],
            [col("a", {"a"}, 0.1), col("b", {"b"}, 0.2), col("ab", {"a", "b"}, cheaper)],
        )
        assert screen_dominated(q) is q

    def test_wan_cover_shrinks_and_keeps_its_optimum(self, wan_graph, wan_lib):
        from repro import synthesize

        result = synthesize(wan_graph, wan_lib, trace=True)
        screened = screen_dominated(result.covering)
        assert (result.covering.n_columns, screened.n_columns) == (62, 11)
        assert result.trace.counters["covering.columns_screened"] == 51
        assert "merge(a4+a5+a6)" in {c.name for c in screened.columns}  # the winner
        assert solve_cover(screened).column_names == solve_cover(result.covering).column_names


class TestZeroWeightTieBreak:
    """Several zero-weight columns have the same infinite cover-per-
    weight ratio; the pinned tie-break (lowest declaration index) keeps
    serial and parallel runs byte-identical."""

    def _problem(self):
        # both zero columns cover live rows; z_late is declared last but
        # sorts first alphabetically -- the tie-break must use the
        # declaration index, not the name
        return CoveringProblem(
            rows=["r1", "r2", "r3"],
            columns=[
                col("z_mid", {"r2"}, 0.0),
                col("a_late", {"r1"}, 0.0),
                col("rest", {"r1", "r2", "r3"}, 5.0),
            ],
        )

    def test_greedy_picks_lowest_declared_zero_column_first(self):
        sol = greedy_cover(self._problem())
        # z_mid (index 0) must be taken before a_late (index 1), both
        # before any weighted column
        assert sol.column_names[0] == "z_mid"
        assert sol.column_names[1] == "a_late"

    def test_greedy_zero_columns_are_free(self):
        sol = greedy_cover(self._problem())
        assert sol.weight == pytest.approx(5.0)

    def test_bnb_deterministic_with_zero_columns(self):
        p = self._problem()
        first = solve_cover(p)
        for _ in range(3):
            again = solve_cover(p)
            assert again.column_names == first.column_names
            assert again.weight == pytest.approx(first.weight)

    def test_bnb_matches_exhaustive_with_zero_columns(self):
        p = self._problem()
        assert solve_cover(p).weight == pytest.approx(solve_exhaustive(p).weight)

    def test_column_index_reports_declaration_order(self):
        p = self._problem()
        assert [p.column_index(c.name) for c in p.columns] == [0, 1, 2]
        with pytest.raises(CoveringError, match="unknown column"):
            p.column_index("nope")
