"""Weighted Unate Covering Problem instances.

The global step of the paper builds a covering matrix: one **row** per
constraint arc, one **column** per candidate arc implementation, entry
(i, j) = 1 when implementation j realizes arc i, and a per-column
weight equal to the implementation cost.  The optimum communication
architecture is a minimum-weight set of columns covering every row.

This module holds the instance representation; reductions, bounds and
solvers live in sibling modules.  Instances are immutable — reductions
produce *views* (row/column subsets) rather than mutating, which keeps
the branch-and-bound bookkeeping simple and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.exceptions import CoveringError

__all__ = ["Column", "CoveringProblem", "CoverSolution"]


@dataclass(frozen=True)
class Column:
    """One candidate: the set of rows it covers and its weight."""

    name: str
    rows: FrozenSet[str]
    weight: float

    def __post_init__(self) -> None:
        if not self.name:
            raise CoveringError("column name must be nonempty")
        if not self.rows:
            raise CoveringError(f"column {self.name!r} covers no rows")
        if self.weight < 0:
            raise CoveringError(f"column {self.name!r} has negative weight {self.weight}")

    def covers(self, row: str) -> bool:
        """True when this column covers ``row``."""
        return row in self.rows


@dataclass(frozen=True)
class CoverSolution:
    """A feasible (or optimal) selection of columns."""

    column_names: Tuple[str, ...]
    weight: float
    optimal: bool = True
    #: solver statistics (nodes expanded, reductions applied, ...).
    stats: Mapping[str, float] = field(default_factory=dict)
    #: the solver that produced the cover (``"bnb"``, ``"ilp"``, ...);
    #: provenance only, so two equal selections compare equal.
    engine: str = field(default="", compare=False)

    def __contains__(self, name: str) -> bool:
        return name in self.column_names


class CoveringProblem:
    """An immutable weighted unate covering instance.

    Example::

        >>> p = CoveringProblem.from_columns(
        ...     rows=["a", "b"],
        ...     columns=[Column("x", frozenset({"a"}), 1.0),
        ...              Column("y", frozenset({"a", "b"}), 1.5)])
        >>> sorted(c.name for c in p.columns)
        ['x', 'y']
    """

    def __init__(self, rows: Sequence[str], columns: Sequence[Column]) -> None:
        if len(set(rows)) != len(rows):
            raise CoveringError("duplicate row names")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CoveringError("duplicate column names")
        self._rows: Tuple[str, ...] = tuple(rows)
        self._row_set = frozenset(rows)
        self._columns: Dict[str, Column] = {c.name: c for c in columns}
        for c in columns:
            stray = c.rows - self._row_set
            if stray:
                raise CoveringError(
                    f"column {c.name!r} covers unknown rows {sorted(stray)}"
                )
        # row -> names of columns covering it
        self._cover_map: Dict[str, Set[str]] = {r: set() for r in rows}
        for c in columns:
            for r in c.rows:
                self._cover_map[r].add(c.name)
        self._column_index: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}

    @classmethod
    def from_columns(cls, rows: Sequence[str], columns: Sequence[Column]) -> "CoveringProblem":
        """Alias constructor reading naturally at call sites."""
        return cls(rows, columns)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> Tuple[str, ...]:
        """Row names in declaration order."""
        return self._rows

    @property
    def columns(self) -> List[Column]:
        """All columns, in insertion order."""
        return list(self._columns.values())

    def column(self, name: str) -> Column:
        """Column lookup by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise CoveringError(f"unknown column {name!r}") from None

    def column_index(self, name: str) -> int:
        """Declaration-order position of a column — the deterministic
        tie-break key for otherwise-incomparable columns (e.g. several
        zero-weight columns, whose cover-per-weight ratio is infinite)."""
        try:
            return self._column_index[name]
        except KeyError:
            raise CoveringError(f"unknown column {name!r}") from None

    def columns_covering(self, row: str) -> List[Column]:
        """All columns covering ``row``."""
        if row not in self._row_set:
            raise CoveringError(f"unknown row {row!r}")
        return [self._columns[n] for n in sorted(self._cover_map[row])]

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    def density(self) -> float:
        """Fraction of 1-entries in the covering matrix."""
        if not self._rows or not self._columns:
            return 0.0
        ones = sum(len(c.rows) for c in self._columns.values())
        return ones / (len(self._rows) * len(self._columns))

    # ------------------------------------------------------------------
    def validate_coverable(self) -> None:
        """Raise :class:`CoveringError` if some row has no covering column
        (then no feasible solution exists)."""
        for row, cols in self._cover_map.items():
            if not cols:
                raise CoveringError(f"row {row!r} is covered by no column — infeasible")

    def is_cover(self, column_names: Iterable[str]) -> bool:
        """True when the named columns jointly cover every row."""
        covered: Set[str] = set()
        for name in column_names:
            covered |= self.column(name).rows
        return covered >= self._row_set

    def weight_of(self, column_names: Iterable[str]) -> float:
        """Total weight of a selection (columns counted once each)."""
        return sum(self.column(n).weight for n in set(column_names))

    def check_solution(self, solution: CoverSolution, tol: float = 1e-9) -> None:
        """Verify feasibility and the declared weight of ``solution``."""
        if not self.is_cover(solution.column_names):
            raise CoveringError("solution does not cover all rows")
        w = self.weight_of(solution.column_names)
        if abs(w - solution.weight) > tol * max(1.0, abs(w)):
            raise CoveringError(
                f"solution weight mismatch: declared {solution.weight}, actual {w}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoveringProblem(rows={self.n_rows}, columns={self.n_columns})"
