"""Weighted Unate Covering Problem substrate (paper refs [4], [8]).

Exact solvers for the global-selection step of the synthesis: the
paper-faithful native branch-and-bound with classical reductions and
MIS/LP lower bounds; a 0-1 ILP engine that hands the whole instance to
HiGHS in one MIP solve, used for wide covers and as an independent
cross-check; an exhaustive oracle for tests; and a greedy heuristic
used to seed incumbents (and as a baseline).
"""

from .bnb import SolverOptions, greedy_cover, solve_cover
from .bounds import best_lower_bound, lp_lower_bound, mis_lower_bound
from .exhaustive import solve_exhaustive
from .ilp import solve_ilp
from .matrix import Column, CoverSolution, CoveringProblem
from .reductions import ReducedState, reduce_to_fixpoint, screen_dominated

__all__ = [
    "Column",
    "CoveringProblem",
    "CoverSolution",
    "ReducedState",
    "reduce_to_fixpoint",
    "screen_dominated",
    "mis_lower_bound",
    "lp_lower_bound",
    "best_lower_bound",
    "SolverOptions",
    "solve_cover",
    "greedy_cover",
    "solve_ilp",
    "solve_exhaustive",
]
