"""Differential testing of the covering solvers.

Three independently implemented engines solve the same weighted unate
covering instance:

- the native branch-and-bound (:func:`repro.covering.solve_cover`),
- the HiGHS 0-1 ILP (:func:`repro.covering.solve_ilp`),
- brute-force enumeration (:func:`repro.covering.solve_exhaustive`).

On seeded random instances all three must report the same optimal
cost, greedy must never beat it, and the solvers' new observability
counters must account for real work (nodes expanded, solve time).
"""

from __future__ import annotations

import random

import pytest

from repro.covering import (
    CoveringProblem,
    Column,
    greedy_cover,
    solve_cover,
    solve_exhaustive,
    solve_ilp,
)
from repro.obs import tracing

#: instances stay under solve_exhaustive's column limit (2^n enumeration).
_N_ROWS = 6
_N_EXTRA_COLUMNS = 8
_SEEDS = range(12)


def random_instance(seed: int) -> CoveringProblem:
    """A coverable random instance: one singleton column per row (so a
    cover always exists) plus random multi-row columns that make
    merging-style selections attractive."""
    rng = random.Random(seed)
    rows = [f"r{i}" for i in range(_N_ROWS)]
    columns = [
        Column(name=f"single_{row}", rows=frozenset([row]), weight=rng.randint(3, 12))
        for row in rows
    ]
    for j in range(_N_EXTRA_COLUMNS):
        size = rng.randint(2, 4)
        covered = frozenset(rng.sample(rows, size))
        # cheaper per row than typical singletons, so optima mix both kinds
        weight = rng.randint(2, 6) + size
        columns.append(Column(name=f"multi_{j}", rows=covered, weight=float(weight)))
    return CoveringProblem(rows, columns)


@pytest.mark.parametrize("seed", _SEEDS)
def test_bnb_ilp_exhaustive_agree(seed):
    problem = random_instance(seed)
    bnb = solve_cover(problem)
    ilp = solve_ilp(problem)
    exhaustive = solve_exhaustive(problem)
    assert bnb.optimal and ilp.optimal and exhaustive.optimal
    assert bnb.weight == pytest.approx(exhaustive.weight, rel=1e-12)
    assert ilp.weight == pytest.approx(exhaustive.weight, rel=1e-12)
    # every reported selection must actually be a valid cover of its cost
    for solution in (bnb, ilp, exhaustive):
        problem.check_solution(solution)


@pytest.mark.parametrize("seed", _SEEDS)
def test_greedy_never_beats_optimum(seed):
    problem = random_instance(seed)
    optimal = solve_exhaustive(problem)
    greedy = greedy_cover(problem)
    problem.check_solution(greedy)
    assert greedy.weight >= optimal.weight - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_counters_account_for_work(seed):
    problem = random_instance(seed)
    with tracing() as t:
        bnb = solve_cover(problem)
        ilp = solve_ilp(problem)
    c = t.counters
    assert c["covering.bnb.nodes"] > 0
    assert c["covering.bnb.nodes"] == bnb.stats["nodes"]
    assert c["covering.ilp.nodes"] > 0
    assert c["covering.ilp.nodes"] == ilp.stats["nodes"]
    assert "covering.ilp.lp_solves" not in c
    assert c["covering.greedy.iterations"] > 0  # the incumbent seed ran
    assert t.local_counters["covering.ilp.solve_s"] > 0


def test_counters_are_deterministic_across_repeats():
    problem = random_instance(7)
    totals = []
    for _ in range(2):
        with tracing() as t:
            solve_cover(problem)
            solve_ilp(problem)
        totals.append(t.counters)
    assert totals[0] == totals[1]
