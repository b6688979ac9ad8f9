"""Exhaustive covering solver — the oracle for correctness tests.

Enumerates every subset of columns (2^n); only usable for small
instances, which is exactly its purpose: property-based tests compare
the branch-and-bound and the ILP solver against this ground truth.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from ..core.exceptions import CoveringError
from .matrix import CoverSolution, CoveringProblem

__all__ = ["solve_exhaustive"]

_MAX_COLUMNS = 22  # 2^22 ≈ 4M subsets — the practical ceiling


def solve_exhaustive(problem: CoveringProblem) -> CoverSolution:
    """Minimum-weight cover by brute force.

    Raises :class:`CoveringError` for instances above the enumeration
    ceiling or without any feasible cover.
    """
    problem.validate_coverable()
    columns = problem.columns
    if len(columns) > _MAX_COLUMNS:
        raise CoveringError(
            f"exhaustive solver capped at {_MAX_COLUMNS} columns, got {len(columns)}"
        )
    all_rows = frozenset(problem.rows)

    best_weight = float("inf")
    best: Optional[Tuple[str, ...]] = None
    checked = 0
    for r in range(len(columns) + 1):
        for combo in itertools.combinations(columns, r):
            checked += 1
            weight = sum(c.weight for c in combo)
            if weight >= best_weight:
                continue
            covered = frozenset().union(*(c.rows for c in combo)) if combo else frozenset()
            if covered >= all_rows:
                best_weight = weight
                best = tuple(sorted(c.name for c in combo))
    if best is None:
        raise CoveringError("no feasible cover exists")
    return CoverSolution(
        column_names=best, weight=best_weight, optimal=True, stats={"subsets": checked},
        engine="exhaustive",
    )
