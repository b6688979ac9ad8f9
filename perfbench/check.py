"""Correctness check of one synthesis result.

Runs outside the timed phase and shares no code with ``repro.covering``:
the covering optimum is re-solved with ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

#: relative tolerance between independently computed costs.
COST_RTOL = 1e-6


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def milp_optimum(covering: Any) -> Optional[float]:
    """Minimum cover weight of a ``CoveringProblem``; None if HiGHS fails."""
    row_index = {row: i for i, row in enumerate(covering.rows)}
    columns = covering.columns
    rows, cols = [], []
    for j, column in enumerate(columns):
        for row in column.rows:
            rows.append(row_index[row])
            cols.append(j)
    matrix = sparse.csr_array(
        (np.ones(len(rows)), (rows, cols)), shape=(len(row_index), len(columns))
    )
    res = milp(
        np.array([column.weight for column in columns]),
        constraints=LinearConstraint(matrix, lb=1.0),
        integrality=np.ones(len(columns)),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 1e-9},
    )
    return float(res.fun) if res.success else None


def result_problems(result: Any, graph: Any, certified: bool) -> List[str]:
    """Everything wrong with ``result`` as a solution of ``graph``."""
    problems = []
    covered = {name for c in result.selected for name in c.arc_names}
    lost = sorted(a.name for a in graph.arcs if a.name not in covered)
    if lost:
        problems.append(f"{len(lost)} arc(s) not covered, e.g. {lost[:3]}")
    selected = math.fsum(c.cost for c in result.selected)
    if not _close(selected, result.total_cost, 1e-9):
        problems.append(f"selected costs sum to {selected!r}, total_cost is {result.total_cost!r}")
    built = result.implementation.cost()
    if not _close(built, result.total_cost, COST_RTOL):
        problems.append(f"implementation costs {built!r}, total_cost is {result.total_cost!r}")
    optimum = milp_optimum(result.covering)
    if optimum is None:
        problems.append("scipy milp found no optimum of the covering problem")
    elif not _close(result.cover.weight, optimum, COST_RTOL):
        problems.append(f"cover weighs {result.cover.weight!r}, the milp optimum is {optimum!r}")
    if certified:
        report = result.decomposition
        if report is None or not report.certified or report.gap_bound != 0:
            problems.append("decomposition is not certified with gap_bound 0")
    return problems
