"""Property-based tests: the covering solvers agree with brute force."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.exceptions import CoveringError
from repro.covering import (
    Column,
    CoveringProblem,
    SolverOptions,
    greedy_cover,
    solve_cover,
    solve_exhaustive,
    solve_ilp,
)
from repro.covering.reductions import SCREEN_TOL, screen_dominated


@st.composite
def covering_instances(draw):
    """Random feasible weighted UCP instances (<= 6 rows, <= 9 columns)."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    rows = [f"r{i}" for i in range(n_rows)]
    n_cols = draw(st.integers(min_value=1, max_value=9))
    columns = []
    for j in range(n_cols):
        size = draw(st.integers(min_value=1, max_value=n_rows))
        members = draw(
            st.lists(st.sampled_from(rows), min_size=size, max_size=size, unique=True)
        )
        weight = draw(st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
        columns.append(Column(f"c{j}", frozenset(members), weight))
    # guarantee feasibility with one full column
    columns.append(Column("full", frozenset(rows), draw(st.floats(min_value=5.0, max_value=40.0))))
    return CoveringProblem(rows, columns)


@settings(max_examples=60, deadline=None)
@given(covering_instances())
def test_bnb_matches_exhaustive(problem):
    assert solve_cover(problem).weight == pytest.approx(solve_exhaustive(problem).weight)


@settings(max_examples=40, deadline=None)
@given(covering_instances())
def test_ilp_matches_exhaustive(problem):
    assert solve_ilp(problem).weight == pytest.approx(solve_exhaustive(problem).weight, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(covering_instances())
def test_reductions_and_bounds_do_not_change_optimum(problem):
    full = solve_cover(problem)
    bare = solve_cover(
        problem,
        SolverOptions(use_reductions=False, use_lower_bounds=False, use_lp_bound=False),
    )
    assert full.weight == pytest.approx(bare.weight)


@settings(max_examples=40, deadline=None)
@given(covering_instances())
def test_greedy_feasible_and_bounded_below_by_optimum(problem):
    greedy = greedy_cover(problem)
    problem.check_solution(greedy)
    assert greedy.weight >= solve_cover(problem).weight - 1e-9


@settings(max_examples=40, deadline=None)
@given(covering_instances())
def test_solution_is_irredundant_under_check(problem):
    sol = solve_cover(problem)
    problem.check_solution(sol)
    # optimality implies no column can be dropped for free
    for name in sol.column_names:
        remaining = [c for c in sol.column_names if c != name]
        if problem.is_cover(remaining):
            # dropping it must not reduce weight (weights nonnegative) —
            # but an optimal solver should not have kept a zero-use column
            # unless its weight is ~0
            assert problem.column(name).weight <= 1e-9


@st.composite
def screenable_instances(draw):
    """Instances where some rows have single-row columns and some do
    not, with multi-row columns priced around their singleton sums:
    far below, just outside and just inside the screen's slack, tied,
    and above."""
    n_rows = draw(st.integers(min_value=2, max_value=6))
    rows = [f"r{i}" for i in range(n_rows)]
    columns, cheapest = [], {}
    for r in rows:
        for k in range(draw(st.integers(min_value=0, max_value=2))):
            weight = draw(st.floats(min_value=0.0, max_value=20.0))
            cheapest[r] = min(weight, cheapest.get(r, math.inf))
            columns.append(Column(f"s{k}_{r}", frozenset({r}), weight))
    for j in range(draw(st.integers(min_value=1, max_value=8))):
        size = draw(st.integers(min_value=2, max_value=n_rows))
        members = draw(st.lists(st.sampled_from(rows), min_size=size, max_size=size, unique=True))
        base = math.fsum(cheapest.get(r, 10.0) for r in members)
        factor = draw(
            st.sampled_from([0.5, 1.0 - 1e-7, 1.0 - SCREEN_TOL / 10, 1.0, 1.0 + 1e-12, 1.5])
        )
        columns.append(Column(f"m{j}", frozenset(members), base * factor))
    # feasibility, whatever the singletons: one full column
    columns.append(Column("full", frozenset(rows), draw(st.floats(min_value=0.0, max_value=60.0))))
    return CoveringProblem(rows, columns), cheapest


@settings(max_examples=80, deadline=None)
@given(screenable_instances())
def test_screen_keeps_the_optimum_within_its_slack(instance):
    problem, cheapest = instance
    full = solve_exhaustive(problem).weight
    screened = solve_exhaustive(screen_dominated(problem)).weight
    assert screened >= full  # a subset of the same columns
    slack = SCREEN_TOL * math.fsum(cheapest.values())
    assert screened <= full + slack + 1e-12 * max(1.0, full)
