"""Lower bounds for weighted unate covering.

Two bounds for branch-and-bound, in the spirit of the paper's
references [4, 8]:

- :func:`mis_lower_bound` — a maximal independent set of rows (rows no
  available column covers two of) is found greedily; each such row must
  be covered by a *distinct* column, so summing the cheapest covering
  column per independent row is a valid lower bound.  Cheap, always on.
- :func:`lp_lower_bound` — the LP relaxation of the 0-1 covering ILP
  (Liao–Devadas-style LPR bound, ref [8]), certified from its dual:
  row prices y ≥ 0 with Σ_{r∈j} y_r ≤ w_j for every available column j
  bound every cover from below by Σ_r y_r (weak duality).  A small
  dense primal simplex on that dual (Bland's rule, all-slack start, so
  no phase 1) maximises Σ_r y_r; every basis it visits is feasible.
  One refinement step on the final basis keeps the prices within an
  ulp or so of exact, and a final repair scales down the prices of any
  column left over its weight, so the prices are feasible in exact
  arithmetic and the value returned is a lower bound even when
  rounding creeps in or the pivot cap stops the simplex early.
  Tighter than MIS but costlier; the solver invokes it only when the
  subproblem is small enough.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional, Set

import numpy as np

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


#: reduced costs and pivot entries are built from the 0/1 covering
#: matrix alone (weights only enter the right-hand side), so one
#: absolute tolerance serves every instance.  Ratio-test ties are
#: relative to the smallest ratio, which scales with the weights.
_PIVOT_TOL = 1e-9

#: pivot cap per variable (prices plus slacks), a backstop: the prices
#: of any basis the simplex stops at are feasible, so the bound stays
#: valid, only weaker.
_PIVOTS_PER_VARIABLE = 50


def _row_prices(state: ReducedState) -> Optional[Dict[str, float]]:
    """Optimal dual prices of the covering relaxation, feasible exactly.

    maximize Σ_r y_r  s.t.  Σ_{r∈j} y_r <= w_j for every available
    column j, y >= 0 — the dual of ``min w·x, Σ_{j∋r} x_j >= 1,
    0 <= x <= 1`` (the upper bounds never bind at nonnegative weights).
    ``None`` when some remaining row has no available column (the
    relaxation is infeasible).
    """
    columns = [state.problem.column(name) for name in sorted(state.columns)]
    rows = sorted(state.rows)
    row_index = {r: i for i, r in enumerate(rows)}
    n, m = len(rows), len(columns)
    members = [[row_index[r] for r in c.rows & state.rows] for c in columns]
    a = np.zeros((m, n))
    for j, covered in enumerate(members):
        a[j, covered] = 1.0
    w = np.array([c.weight for c in columns])
    if not a.any(axis=0).all():
        return None

    # Condensed tableau: row j reads s_j + Σ_{r∈j} y_r = w_j, the last
    # row z - Σ_r y_r = 0.  Labels 0..n-1 are the prices y, n..n+m-1
    # the slacks s; the slacks start basic, feasible since w >= 0.
    t = np.zeros((m + 1, n + 1))
    t[:m, :n] = a
    t[:m, n] = w
    t[m, :n] = -1.0
    basic = np.arange(n, n + m)
    nonbasic = np.arange(n)
    last = n + m  # above every label
    for _ in range(_PIVOTS_PER_VARIABLE * (n + m)):
        # Bland's rule: the lowest-labelled improving variable enters,
        # the lowest-labelled basic variable among the ratio ties leaves.
        entering = np.where(t[m, :n] < -_PIVOT_TOL, nonbasic, last)
        e = entering.argmin()
        if entering[e] == last:
            break
        col = t[:, e].copy()
        ratios = np.full(m, np.inf)
        np.divide(t[:m, n], col[:m], out=ratios, where=col[:m] > _PIVOT_TOL)
        ties = ratios <= ratios.min() * (1.0 + _PIVOT_TOL)
        r = np.where(ties, basic, last).argmin()
        if ratios[r] == np.inf:  # pragma: no cover - the dual is bounded
            break
        pivot_row = t[r] / col[r]
        t -= np.outer(col, pivot_row)
        t[:, e] = -col / col[r]
        t[r] = pivot_row
        t[r, e] = 1.0 / col[r]
        np.maximum(t[:m, n], 0.0, out=t[:m, n])  # no rounding below zero
        basic[r], nonbasic[e] = nonbasic[e], basic[r]

    y = np.zeros(n)
    priced = basic < n
    y[basic[priced]] = t[:m, n][priced]

    # The tableau drifts a few ulps over the pivots, and from 8,192 up
    # one ulp exceeds bnb's 1e-12 prune tolerance.  One refinement step
    # on the final basis pulls the prices back: its tight columns
    # (the nonbasic slacks) fix the basic prices through a square 0/1
    # system, solved for the correction of an fsum residual.
    tight = nonbasic[nonbasic >= n] - n
    if tight.size:
        held = basic[priced]
        residual = [math.fsum([w[j], *(-y[i] for i in members[j])]) for j in tight]
        try:
            y[held] += np.linalg.solve(a[np.ix_(tight, held)], residual)
        except np.linalg.LinAlgError:  # pragma: no cover - a basis is nonsingular
            pass
        np.maximum(y, 0.0, out=y)

    # Rounding can leave a column's price sum a few ulps above its
    # weight.  fsum of the sum minus the weight has the sign of the
    # exact difference, so it finds every violated column.  Scaling that
    # column's prices by w_j / Σ y_r and rounding each one ulp down
    # shrinks them strictly until Σ_{r∈j} y_r <= w_j holds exactly.
    # Prices only fall, so a fitted column stays fitted, and only the
    # rows of violated columns lose value; scaling every price would
    # lose about 1e-12 on a bound near 2,000, bnb's prune tolerance, and
    # miss prunes on ties.  Only columns the float product puts within
    # 1e-9 of their weight can be violated.
    prices = y.tolist()
    for j in np.flatnonzero(a @ y > w * (1.0 - 1e-9)).tolist():
        while math.fsum([*(prices[i] for i in members[j]), -w[j]]) > 0.0:
            shrink = w[j] / math.fsum([prices[i] for i in members[j]])
            for i in members[j]:
                prices[i] = math.nextafter(prices[i] * shrink, 0.0)
    return dict(zip(rows, prices))


def lp_lower_bound(state: ReducedState) -> Optional[float]:
    """LP-relaxation bound; ``None`` when the relaxation is infeasible.

    minimize w·x  s.t.  Σ_{j covers r} x_j >= 1 ∀ remaining rows,
    0 <= x <= 1 over the available columns.  The value is the fsum of
    :func:`_row_prices`: a lower bound on that optimum by weak duality,
    and equal to it up to rounding.
    """
    if state.solved:
        return 0.0
    if not state.columns:
        return float("inf")
    prices = _row_prices(state)
    if prices is None:
        return None
    return math.fsum(prices.values())


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

