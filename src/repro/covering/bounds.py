"""Lower bounds for weighted unate covering.

Two bounds for branch-and-bound, in the spirit of the paper's
references [4, 8]:

- :func:`mis_lower_bound` — a maximal independent set of rows (rows no
  available column covers two of) is found greedily; each such row must
  be covered by a *distinct* column, so summing the cheapest covering
  column per independent row is a valid lower bound.  Cheap, always on.
- :func:`lp_lower_bound` — the LP relaxation of the 0-1 covering ILP
  (Liao–Devadas-style LPR bound, ref [8]), solved with
  ``scipy.optimize.linprog``.  Tighter but costlier; the solver invokes
  it only when the subproblem is small enough or on demand.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

import numpy as np
from scipy import optimize

from .reductions import ReducedState

__all__ = [
    "mis_lower_bound",
    "lp_lower_bound",
    "best_lower_bound",
]


def mis_lower_bound(state: ReducedState) -> float:
    """Greedy maximal-independent-row-set bound.

    Rows are scanned in order of decreasing cheapest-cover weight (so the
    expensive rows enter the independent set first); a row joins when it
    shares no available column with any already-chosen row.
    """
    if state.solved:
        return 0.0
    cheapest: Dict[str, float] = {}
    cover_cols: Dict[str, FrozenSet[str]] = {}
    for row in state.rows:
        cols = state.active_columns_covering(row)
        if not cols:
            return float("inf")  # infeasible branch
        cheapest[row] = min(state.problem.column(c).weight for c in cols)
        cover_cols[row] = frozenset(cols)

    bound = 0.0
    used_columns: Set[str] = set()
    for row in sorted(state.rows, key=lambda r: (-cheapest[r], r)):
        if cover_cols[row] & used_columns:
            continue
        used_columns |= cover_cols[row]
        bound += cheapest[row]
    return bound


def lp_lower_bound(state: ReducedState) -> Optional[float]:
    """LP-relaxation bound; ``None`` when the LP solver fails.

    minimize w·x  s.t.  Σ_{j covers r} x_j >= 1 ∀ remaining rows,
    0 <= x <= 1 over the available columns.
    """
    if state.solved:
        return 0.0
    rows = sorted(state.rows)
    cols = sorted(state.columns)
    if not cols:
        return float("inf")
    col_index = {c: i for i, c in enumerate(cols)}

    weights = np.array([state.problem.column(c).weight for c in cols])
    # A_ub x <= b_ub encodes  -Σ x_j <= -1 per row.
    a = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for c in state.active_columns_covering(row):
            a[i, col_index[c]] = -1.0
    b = -np.ones(len(rows))

    res = optimize.linprog(
        weights, A_ub=a, b_ub=b, bounds=[(0.0, 1.0)] * len(cols), method="highs"
    )
    if not res.success:
        return None
    return float(res.fun)


def best_lower_bound(state: ReducedState, use_lp: bool, lp_row_limit: int = 64) -> float:
    """The tighter of the two bounds, honouring the LP budget.

    The LP runs only when requested and the subproblem has at most
    ``lp_row_limit`` rows; the MIS bound always runs (it also detects
    infeasible branches via an infinite bound).
    """
    bound = mis_lower_bound(state)
    if use_lp and len(state.rows) <= lp_row_limit and bound != float("inf"):
        lp = lp_lower_bound(state)
        if lp is not None and lp > bound:
            bound = lp
    return bound

