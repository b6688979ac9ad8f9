"""The LP-relaxation bound against an independent LP solver.

:func:`repro.covering.bounds.lp_lower_bound` solves the dual of the
covering relaxation with its own dense simplex.  These tests hold it to
``scipy.optimize.linprog`` (HiGHS) on the primal relaxation, which the
program itself no longer calls:

- the value matches linprog's optimum within 1e-9 relative, on random
  covers with zero weights, duplicate columns and equal weights (the
  degenerate, cycling-prone case), at the root and mid-search;
- the prices behind it are a dual certificate in exact arithmetic:
  ``y >= 0`` and ``Σ_{r∈j} y_r <= w_j`` for every available column;
- bnb with a linprog-backed bound and with the new one explores the
  same nodes and serves the same columns on seeded netgen covers and
  the paper's WAN example, including covers whose relaxation ties the
  incumbent;
- bnb prunes those ties relative to the incumbent, so they prune the
  same way on covers whose costs sit near 4·10^6.
"""

from __future__ import annotations

import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import optimize

import repro.covering.bounds as bounds
from repro.core.candidates import generate_candidates
from repro.core.synthesis import build_covering_problem
from repro.covering import Column, CoveringProblem, ReducedState, lp_lower_bound, solve_cover
from repro.covering.bounds import _row_prices
from repro.covering.reductions import screen_dominated
from repro.domains.wan import wan_example, wan_library
from repro.netgen import clustered_graph, two_tier_library


#: HiGHS's default feasibility tolerances (1e-7) put its optimum up to
#: about 1e-7 off on covers that mix weights like 2^-24 with weights
#: near 1e4; at 1e-10 it is exact enough to check 1e-9.
TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def linprog_bound(state: ReducedState, options=None):
    """The relaxation ``min w·x, Σ_{j∋r} x_j >= 1, 0 <= x <= 1`` solved
    by HiGHS, with the same edge-case contract as ``lp_lower_bound``.
    With the default ``options`` this is the bound bnb used before."""
    if state.solved:
        return 0.0
    rows = sorted(state.rows)
    cols = sorted(state.columns)
    if not cols:
        return float("inf")
    index = {c: i for i, c in enumerate(cols)}
    weights = np.array([state.problem.column(c).weight for c in cols])
    a = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for c in state.active_columns_covering(row):
            a[i, index[c]] = -1.0
    res = optimize.linprog(
        weights, A_ub=a, b_ub=-np.ones(len(rows)), bounds=[(0.0, 1.0)] * len(cols),
        method="highs", options=options,
    )
    return float(res.fun) if res.success else None


weights = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),  # zeros and ties
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def search_states(draw):
    """A random cover of up to 12 rows x 30 columns (some duplicated),
    then a few 0-branches and 1-branches, as bnb takes them."""
    rows = [f"r{i}" for i in range(draw(st.integers(1, 12)))]
    columns = []
    for j in range(draw(st.integers(1, 20))):
        covered = frozenset(draw(st.sets(st.sampled_from(rows), min_size=1)))
        weight = draw(weights)
        columns.append(Column(f"c{j}", covered, weight))
        if draw(st.integers(0, 3)) == 0:
            columns.append(Column(f"d{j}", covered, weight))
    state = ReducedState.initial(CoveringProblem(rows, columns[:30]))
    names = sorted(state.columns)
    for name in draw(st.sets(st.sampled_from(names), max_size=len(names) // 2)):
        state.exclude(name)
    for name in draw(st.sets(st.sampled_from(names), max_size=2)):
        if name in state.columns:
            state.select(name)
    return state


@settings(max_examples=300, deadline=None)
@given(search_states())
def test_bound_matches_linprog(state):
    expected = linprog_bound(state, TIGHT)
    got = lp_lower_bound(state)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(search_states())
def test_prices_are_an_exact_dual_certificate(state):
    if state.solved or not state.columns:
        return
    prices = _row_prices(state)
    if prices is None:
        assert state.infeasible
        return
    assert set(prices) == state.rows
    assert all(y >= 0.0 for y in prices.values())
    for name in state.columns:
        column = state.problem.column(name)
        priced = sum(Fraction(prices[r]) for r in column.rows & state.rows)
        assert priced <= Fraction(column.weight), name
    assert lp_lower_bound(state) == math.fsum(prices.values())


def _diamond():
    return CoveringProblem(
        ["r1", "r2", "r3"],
        [
            Column("a", frozenset({"r1", "r2"}), 1.0),
            Column("b", frozenset({"r2", "r3"}), 1.0),
            Column("c", frozenset({"r1", "r3"}), 1.0),
        ],
    )


def test_fractional_optimum():
    # x = 1/2 on each column: the relaxation is 1.5 against an integer 2
    bound = lp_lower_bound(ReducedState.initial(_diamond()))
    assert bound <= 1.5 and bound == pytest.approx(1.5, rel=1e-15)


def test_solved_state_gives_zero():
    state = ReducedState.initial(_diamond())
    state.select("a")
    state.select("b")
    assert lp_lower_bound(state) == 0.0


def test_no_available_column_gives_inf():
    state = ReducedState.initial(_diamond())
    for name in ("a", "b", "c"):
        state.exclude(name)
    assert lp_lower_bound(state) == float("inf")


def test_row_without_column_gives_none():
    state = ReducedState.initial(_diamond())
    state.exclude("a")
    state.exclude("c")  # r1 is left with no column
    assert lp_lower_bound(state) is None


def test_zero_weight_column_prices_its_rows_at_zero():
    problem = CoveringProblem(
        ["r1", "r2", "r3"],
        [
            Column("free", frozenset({"r1", "r2"}), 0.0),
            Column("x", frozenset({"r1", "r3"}), 5.0),
            Column("y", frozenset({"r3"}), 2.0),
        ],
    )
    state = ReducedState.initial(problem)
    assert _row_prices(state) == {"r1": 0.0, "r2": 0.0, "r3": 2.0}
    assert lp_lower_bound(state) == 2.0


def _cover(spec) -> CoveringProblem:
    """The screened cover of the paper's WAN example for ``"wan"``, else
    the netgen cover ``(n_arcs, seed, screened)``."""
    if spec == "wan":
        graph, library = wan_example()
        return screen_dominated(build_covering_problem(graph, generate_candidates(graph, library)))
    n_arcs, seed, screened = spec
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=5, n_arcs=n_arcs, separation=100.0, seed=seed
    )
    library = two_tier_library()
    problem = build_covering_problem(graph, generate_candidates(graph, library, max_arity=3))
    return screen_dominated(problem) if screened else problem


#: unscreened covers whose root relaxation ties the greedy incumbent
#: (an integral LP optimum): linprog prunes the root, and so must a
#: certified bound, so it may not fall more than bnb's prune tolerance
#: (1e-12 of the incumbent) short of the relaxation's value
ROOT_TIES = [(8, 2), (8, 4), (9, 2), (9, 4), (10, 4), (11, 4)]

#: the WAN cover's ties sit near 440,000
COVERS = (
    [(n, s, True) for n in (8, 10, 12, 14, 16) for s in range(4)]
    + [(n, s, False) for n, s in ROOT_TIES]
    + ["wan"]
)


@pytest.mark.parametrize(
    "spec", COVERS, ids=lambda spec: spec if spec == "wan" else "-".join(map(str, spec))
)
def test_bnb_explores_the_same_tree_as_with_linprog(monkeypatch, spec):
    problem = _cover(spec)
    ours = solve_cover(problem)
    monkeypatch.setattr(bounds, "lp_lower_bound", linprog_bound)
    reference = solve_cover(problem)
    assert ours.stats["nodes"] == reference.stats["nodes"]
    assert ours.column_names == reference.column_names
    assert ours.weight == reference.weight


def test_ties_prune_relative_to_the_incumbent():
    """On a cover whose costs sit near 4·10^6 (one ulp is 4.7e-10) a
    node whose certified bound ties the incumbent is pruned: an
    absolute 1e-12 tolerance left that prune to the bound's last bit,
    and this search took 13 nodes instead of 11."""
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=5, n_arcs=9, separation=500.0,
        cluster_spread=5.0, seed=0,
    )
    library = wan_library()
    problem = screen_dominated(
        build_covering_problem(graph, generate_candidates(graph, library, max_arity=3))
    )
    solution = solve_cover(problem)
    assert solution.stats["nodes"] == 11
    reference = optimize.milp(
        [c.weight for c in problem.columns],
        constraints=optimize.LinearConstraint(
            [[1.0 if row in c.rows else 0.0 for c in problem.columns] for row in problem.rows],
            lb=1.0,
        ),
        integrality=1,
        bounds=optimize.Bounds(0.0, 1.0),
    )
    chosen = sorted(c.name for c, x in zip(problem.columns, reference.x) if x > 0.5)
    assert sorted(solution.column_names) == chosen
