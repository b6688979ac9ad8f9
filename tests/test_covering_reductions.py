"""Unit tests for repro.covering.reductions."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.exceptions import CoveringError
from repro.covering import Column, CoveringProblem, ReducedState, reduce_to_fixpoint
from repro.covering.reductions import _apply_column_dominance


def col(name, rows, weight=1.0):
    return Column(name, frozenset(rows), weight)


class TestEssentials:
    def test_singly_covered_row_forces_column(self):
        p = CoveringProblem(
            ["r1", "r2"],
            [col("only", {"r1"}, 5.0), col("other", {"r2"}, 1.0), col("alt", {"r2"}, 2.0)],
        )
        state = reduce_to_fixpoint(ReducedState.initial(p))
        assert "only" in state.selected

    def test_cascading_essentials_solve_instance(self):
        p = CoveringProblem(
            ["r1", "r2"],
            [col("c1", {"r1"}, 1.0), col("c2", {"r2"}, 1.0)],
        )
        state = reduce_to_fixpoint(ReducedState.initial(p))
        assert state.solved and state.cost == 2.0

    def test_uncoverable_row_raises(self):
        p = CoveringProblem(["r1"], [col("c", {"r1"})])
        state = ReducedState.initial(p)
        state.exclude("c")
        with pytest.raises(CoveringError):
            reduce_to_fixpoint(state)


class TestRowDominance:
    def test_implied_row_removed(self):
        # cols(r1) = {a} ⊆ cols(r2) = {a, b} → r2 removed
        p = CoveringProblem(
            ["r1", "r2", "r3"],
            [col("a", {"r1", "r2"}, 3.0), col("b", {"r2", "r3"}, 1.0), col("c", {"r3"}, 1.0)],
        )
        state = ReducedState.initial(p)
        from repro.covering.reductions import _apply_row_dominance

        _apply_row_dominance(state)
        assert "r2" not in state.rows
        assert {"r1", "r3"} <= state.rows


class TestColumnDominance:
    def test_heavier_subset_column_removed(self):
        p = CoveringProblem(
            ["r1", "r2"],
            [col("big", {"r1", "r2"}, 1.0), col("small", {"r1"}, 2.0), col("other", {"r2"}, 1.0)],
        )
        state = ReducedState.initial(p)
        from repro.covering.reductions import _apply_column_dominance

        _apply_column_dominance(state)
        assert "small" not in state.columns
        assert "big" in state.columns

    def test_identical_twins_keep_one(self):
        p = CoveringProblem(
            ["r1"],
            [col("aa", {"r1"}, 1.0), col("bb", {"r1"}, 1.0)],
        )
        state = ReducedState.initial(p)
        from repro.covering.reductions import _apply_column_dominance

        _apply_column_dominance(state)
        assert state.columns == {"aa"}  # lexicographically smallest kept

    def test_useless_column_removed(self):
        p = CoveringProblem(
            ["r1"],
            [col("useful", {"r1"}, 1.0)],
        )
        state = ReducedState.initial(p)
        state.select("useful")
        # re-add a column covering nothing that remains
        state.columns.add("useful")  # simulate availability of a now-useless column
        from repro.covering.reductions import _apply_column_dominance

        _apply_column_dominance(state)
        assert "useful" not in state.columns


def _all_pairs_column_dominance(state):
    """The reference rule: test every ordered pair of available columns."""
    changed = False
    cols = sorted(state.columns)
    active_rows = {c: state.active_rows_of(c) for c in cols}
    weights = {c: state.problem.column(c).weight for c in cols}
    for c1 in cols:
        if c1 not in state.columns:
            continue
        r1 = active_rows[c1]
        if not r1:
            state.exclude(c1)
            changed = True
            continue
        for c2 in cols:
            if c2 == c1 or c2 not in state.columns or c1 not in state.columns:
                continue
            r2 = active_rows[c2]
            if r1 <= r2 and weights[c2] <= weights[c1]:
                if r1 == r2 and weights[c1] == weights[c2] and c1 < c2:
                    continue
                state.exclude(c1)
                changed = True
                break
    return changed


class _RecordingState(ReducedState):
    """A copy of a state that logs its exclusions in order."""

    @classmethod
    def of(cls, state):
        copy = cls(state.problem, set(state.rows), set(state.columns), list(state.selected))
        copy.excluded = []
        return copy

    def exclude(self, column_name):
        self.excluded.append(column_name)
        super().exclude(column_name)


@st.composite
def reduced_states(draw):
    """Partly reduced covers with duplicate columns, few distinct
    weights, and columns whose rows are all already covered."""
    rows = [f"r{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]
    columns = []
    for j in range(draw(st.integers(min_value=1, max_value=14))):
        if columns and draw(st.booleans()):
            twin = draw(st.sampled_from(columns))
            columns.append(Column(f"c{j}", twin.rows, twin.weight))
            continue
        members = draw(st.lists(st.sampled_from(rows), min_size=1, unique=True))
        weight = draw(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]))
        columns.append(Column(f"c{j}", frozenset(members), weight))
    problem = CoveringProblem(rows, columns)
    names = [c.name for c in columns]
    state = ReducedState.initial(problem)
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        if draw(st.booleans()):
            state.select(name)
            if draw(st.booleans()):
                state.columns.add(name)  # a column covering nothing left
        else:
            state.exclude(name)
    return state


@settings(max_examples=300, deadline=None)
@given(reduced_states())
def test_column_dominance_matches_the_all_pairs_rule(state):
    fast, reference = _RecordingState.of(state), _RecordingState.of(state)
    assert _apply_column_dominance(fast) == _all_pairs_column_dominance(reference)
    assert fast.excluded == reference.excluded
    assert fast.columns == reference.columns


class TestState:
    def test_select_updates_everything(self):
        p = CoveringProblem(["r1", "r2"], [col("c", {"r1"}, 3.0), col("d", {"r2"}, 1.0)])
        state = ReducedState.initial(p)
        state.select("c")
        assert state.cost == 3.0
        assert state.rows == {"r2"}
        assert "c" not in state.columns

    def test_select_unavailable_rejected(self):
        p = CoveringProblem(["r1"], [col("c", {"r1"})])
        state = ReducedState.initial(p)
        state.exclude("c")
        with pytest.raises(CoveringError):
            state.select("c")

    def test_clone_is_independent(self):
        p = CoveringProblem(["r1", "r2"], [col("c", {"r1"}), col("d", {"r2"})])
        a = ReducedState.initial(p)
        b = a.clone()
        b.select("c")
        assert "c" in a.columns and a.cost == 0.0

    def test_infeasible_flag(self):
        p = CoveringProblem(["r1"], [col("c", {"r1"})])
        state = ReducedState.initial(p)
        state.exclude("c")
        assert state.infeasible
