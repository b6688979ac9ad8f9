"""Classical reductions for (weighted) unate covering.

Applied to fixpoint before and during branch-and-bound:

- **essential columns** — a row covered by exactly one column forces
  that column into every solution;
- **row dominance** — if every column covering row r1 also covers row
  r2 (``cols(r1) ⊆ cols(r2)``), covering r1 covers r2 for free, so r2
  is deleted;
- **weighted column dominance** — a column whose row set is contained
  in another column's at no smaller weight can never help, so it is
  deleted (ties keep the lexicographically smallest name, so reduction
  is deterministic and never deletes *both* of two identical columns).

Reductions operate on a lightweight mutable :class:`ReducedState` view
over an immutable :class:`CoveringProblem`, accumulating the forced
selections and their weight.

One problem-level reduction runs once, before any engine:
:func:`screen_dominated` drops every multi-row column that costs no
less than the single-row columns of its rows, the same column
dominance taken against singleton combinations instead of one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.exceptions import CoveringError
from .matrix import Column, CoveringProblem

__all__ = ["SCREEN_TOL", "ReducedState", "reduce_to_fixpoint", "screen_dominated"]

#: relative slack of :func:`screen_dominated`.  Merge columns that equal
#: their members' singletons in exact arithmetic land a few ulps off in
#: floating point: 48 of batch-warm's merges sit 1.2e-16 to 2.8e-16
#: below the singleton sum.  At a slack of 0 they stay (703 columns on
#: the 50 batch-warm covers instead of 655) and keep tied optima that
#: bnb and HiGHS break differently (4 of 50 covers).  The price is a
#: served cover at most ``SCREEN_TOL`` x the singleton sum above the
#: unscreened optimum.
SCREEN_TOL = 1e-9


@dataclass
class ReducedState:
    """Mutable working view of a covering instance during reduction/search.

    ``rows`` — rows still to cover; ``columns`` — still-available column
    names; ``selected`` — columns forced or chosen so far; ``cost`` —
    their total weight.
    """

    problem: CoveringProblem
    rows: Set[str]
    columns: Set[str]
    selected: List[str] = field(default_factory=list)
    cost: float = 0.0

    @classmethod
    def initial(cls, problem: CoveringProblem) -> "ReducedState":
        """The untouched state over the whole instance."""
        return cls(
            problem=problem,
            rows=set(problem.rows),
            columns={c.name for c in problem.columns},
        )

    def clone(self) -> "ReducedState":
        """Independent copy for branching."""
        return ReducedState(
            problem=self.problem,
            rows=set(self.rows),
            columns=set(self.columns),
            selected=list(self.selected),
            cost=self.cost,
        )

    # ------------------------------------------------------------------
    def active_rows_of(self, column_name: str) -> FrozenSet[str]:
        """Rows of ``column_name`` still uncovered."""
        return self.problem.column(column_name).rows & frozenset(self.rows)

    def active_columns_covering(self, row: str) -> List[str]:
        """Names of available columns covering ``row``."""
        return [c.name for c in self.problem.columns_covering(row) if c.name in self.columns]

    def select(self, column_name: str) -> None:
        """Commit a column: pay its weight, cover its rows, drop it."""
        if column_name not in self.columns:
            raise CoveringError(f"column {column_name!r} not available for selection")
        col = self.problem.column(column_name)
        self.selected.append(column_name)
        self.cost += col.weight
        self.rows -= col.rows
        self.columns.discard(column_name)

    def exclude(self, column_name: str) -> None:
        """Drop a column without selecting it (the 0-branch)."""
        self.columns.discard(column_name)

    @property
    def solved(self) -> bool:
        """True when every row is covered."""
        return not self.rows

    @property
    def infeasible(self) -> bool:
        """True when some remaining row has no available column."""
        return any(not self.active_columns_covering(r) for r in self.rows)


def _apply_essentials(state: ReducedState) -> bool:
    """Select columns forced by singly-covered rows; True if any fired."""
    changed = False
    for row in sorted(state.rows):
        if row not in state.rows:  # may have been covered by an earlier pick
            continue
        covering = state.active_columns_covering(row)
        if len(covering) == 1:
            state.select(covering[0])
            changed = True
        elif not covering:
            raise CoveringError(f"row {row!r} has no available covering column")
    return changed


def _apply_row_dominance(state: ReducedState) -> bool:
    """Delete rows implied by other rows; True if any were removed."""
    changed = False
    rows = sorted(state.rows)
    cols_of: Dict[str, FrozenSet[str]] = {
        r: frozenset(state.active_columns_covering(r)) for r in rows
    }
    for r1 in rows:
        if r1 not in state.rows:
            continue
        for r2 in rows:
            if r2 == r1 or r2 not in state.rows or r1 not in state.rows:
                continue
            if cols_of[r1] <= cols_of[r2] and (
                cols_of[r1] != cols_of[r2] or r1 < r2
            ):
                # covering r1 necessarily covers r2
                state.rows.discard(r2)
                changed = True
    return changed


def _apply_column_dominance(state: ReducedState) -> bool:
    """Delete weight-dominated columns; True if any were removed.

    A column's possible dominators are the available columns covering
    every one of its active rows: the intersection of those rows'
    entries in a row → columns index built once per call.
    """
    changed = False
    cols = sorted(state.columns)
    live = frozenset(state.rows)
    active_rows: Dict[str, FrozenSet[str]] = {
        c: state.problem.column(c).rows & live for c in cols
    }
    weights = {c: state.problem.column(c).weight for c in cols}
    covering: Dict[str, Set[str]] = {}
    for c in cols:
        for row in active_rows[c]:
            covering.setdefault(row, set()).add(c)
    for c1 in cols:
        if c1 not in state.columns:
            continue
        r1 = active_rows[c1]
        if not r1:
            # covers nothing useful anymore
            state.exclude(c1)
            changed = True
            continue
        supersets = set.intersection(*(covering[row] for row in r1))
        for c2 in supersets:
            if c2 == c1 or c2 not in state.columns or weights[c2] > weights[c1]:
                continue
            if active_rows[c2] == r1 and weights[c1] == weights[c2] and c1 < c2:
                continue  # identical twins: keep the smaller name (c1)
            state.exclude(c1)
            changed = True
            break
    return changed


def reduce_to_fixpoint(state: ReducedState) -> ReducedState:
    """Apply essential/row-dominance/column-dominance until nothing fires.

    Mutates and returns ``state``.  Raises :class:`CoveringError` when a
    row becomes uncoverable (infeasible branch — callers treat this as
    a pruned branch).
    """
    while True:
        fired = _apply_essentials(state)
        if state.solved:
            return state
        fired |= _apply_row_dominance(state)
        fired |= _apply_column_dominance(state)
        if not fired:
            return state


def screen_dominated(problem: CoveringProblem) -> CoveringProblem:
    """``problem`` without the columns its single-row columns dominate.

    A column covering two or more rows is dropped when its weight is at
    least ``(1 - SCREEN_TOL)`` times the ``math.fsum`` of its rows'
    cheapest single-row column weights: those singletons cover the same
    rows for no more.  A row with no single-row column counts as +inf,
    so every column covering it stays.  Sound for weighted unate
    covering: replacing the dropped columns of an optimum by singletons
    costs at most ``SCREEN_TOL`` x the summed singleton weights more.
    Column order is kept; ``problem`` itself comes back when nothing is
    dropped.
    """
    cheapest: Dict[str, float] = {}
    for col in problem.columns:
        if len(col.rows) == 1:
            (row,) = col.rows
            cheapest[row] = min(col.weight, cheapest.get(row, math.inf))
    kept = [
        col
        for col in problem.columns
        if len(col.rows) < 2
        or col.weight
        < (1.0 - SCREEN_TOL) * math.fsum(cheapest.get(r, math.inf) for r in col.rows)
    ]
    if len(kept) == problem.n_columns:
        return problem
    return CoveringProblem(problem.rows, kept)
