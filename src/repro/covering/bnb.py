"""Exact branch-and-bound solver for weighted unate covering.

The architecture follows the classical Quine–McCluskey-style covering
solvers the paper cites ([4] Goldberg et al., [8] Liao–Devadas):

1. reduce the instance to fixpoint (essentials, row dominance, weighted
   column dominance);
2. compute a lower bound (greedy MIS of rows, optionally the LP
   relaxation); prune when ``cost + bound >= best``;
3. otherwise branch on the most promising column (largest
   rows-covered-per-weight ratio): a 1-branch that selects it and a
   0-branch that excludes it.

A greedy initial solution seeds the incumbent so pruning starts
immediately.  :class:`SolverOptions` turns the individual ingredients
off for the UCP ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.exceptions import BudgetExceeded, CoveringError, InfeasibleError
from ..obs import current_tracer
from ..runtime.budget import Budget, BudgetTracker, as_tracker
from ..runtime.checkpoint import CheckpointJournal
from .bounds import best_lower_bound
from .matrix import CoverSolution, CoveringProblem
from .reductions import ReducedState, reduce_to_fixpoint

__all__ = ["SolverOptions", "solve_cover", "greedy_cover"]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the branch-and-bound (all on by default)."""

    use_reductions: bool = True
    use_lower_bounds: bool = True
    use_lp_bound: bool = True
    lp_row_limit: int = 64
    #: hard cap on explored nodes; exceeded ⇒ BudgetExceeded carrying the
    #: best incumbent so far in ``.partial`` (never *silently* suboptimal).
    max_nodes: int = 5_000_000


def greedy_cover(
    problem: CoveringProblem,
    budget: Union[Budget, BudgetTracker, None] = None,
    site: str = "greedy.select",
) -> CoverSolution:
    """Weight-greedy feasible cover: repeatedly take the column with the
    best uncovered-rows-per-weight ratio.  Used to seed the incumbent;
    also the last resort of the runtime fallback chain (non-optimal).

    ``budget`` adds a cooperative checkpoint (fault-injection site
    ``site``) per selection; :class:`BudgetExceeded` then interrupts the
    loop cleanly."""
    problem.validate_coverable()
    tracker = as_tracker(budget)
    tracer = current_tracer()
    with tracer.span("covering.greedy", rows=problem.n_rows, columns=len(problem.columns)):
        state = ReducedState.initial(problem)
        while not state.solved:
            tracker.checkpoint(site)
            tracer.count("covering.greedy.iterations")
            best_name: Optional[str] = None
            best_ratio = -1.0
            best_zero: Optional[Tuple[int, str]] = None
            for name in sorted(state.columns):
                covered = len(state.active_rows_of(name))
                if covered == 0:
                    continue
                weight = problem.column(name).weight
                if weight <= 0.0:
                    # Zero-weight columns are free and always taken first,
                    # but their ratio is infinite — incomparable among
                    # themselves.  Pin the tie-break to the lowest column
                    # index so selection order never depends on iteration
                    # order (equal inputs must give byte-identical covers).
                    idx = problem.column_index(name)
                    if best_zero is None or idx < best_zero[0]:
                        best_zero = (idx, name)
                    continue
                ratio = covered / weight
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_name = name
            if best_zero is not None:
                best_name = best_zero[1]
            if best_name is None:
                uncovered = ", ".join(sorted(state.rows))
                raise InfeasibleError(
                    f"greedy ran out of useful columns — rows [{uncovered}] cannot "
                    f"be covered by the remaining candidates (truly infeasible, "
                    f"not a budget problem)"
                )
            state.select(best_name)
        return CoverSolution(
            column_names=tuple(state.selected), weight=state.cost, optimal=False,
            engine="greedy",
        )


@dataclass
class _Search:
    problem: CoveringProblem
    options: SolverOptions
    best_cost: float
    best_selection: Tuple[str, ...]
    tracker: BudgetTracker = field(default_factory=lambda: as_tracker(None))
    journal: Optional[CheckpointJournal] = None
    nodes: int = 0
    reductions_applied: int = 0
    pruned_incumbent: int = 0
    pruned_bound: int = 0
    incumbents: int = 0

    def run(self, state: ReducedState) -> None:
        """Depth-first search over an explicit stack.

        Branching recursion would add one Python frame per tree level —
        instances with a few hundred candidate columns blow the default
        recursion limit.  The explicit LIFO (1-branch pushed last, so
        explored first) visits nodes in exactly the recursive DFS
        preorder, preserving node counts, incumbent updates, and the
        ``.partial`` incumbent semantics when :class:`BudgetExceeded`
        propagates out mid-search.
        """
        stack: List[ReducedState] = [state]
        while stack:
            state = stack.pop()
            self.nodes += 1
            if self.nodes > self.options.max_nodes:
                raise BudgetExceeded(
                    f"branch-and-bound exceeded max_nodes={self.options.max_nodes}",
                    reason="nodes",
                )
            self.tracker.charge_node("bnb.node")

            if self.options.use_reductions:
                try:
                    reduce_to_fixpoint(state)
                    self.reductions_applied += 1
                except BudgetExceeded:
                    raise
                except CoveringError:
                    continue  # infeasible branch
            if state.cost >= self.best_cost:
                self.pruned_incumbent += 1
                continue
            if state.solved:
                self.best_cost = state.cost
                self.best_selection = tuple(sorted(state.selected))
                self.incumbents += 1
                if self.journal is not None:
                    # durable before the search moves on: a kill after
                    # this point resumes from at least this incumbent.
                    self.journal.record_incumbent("bnb", self.best_selection, self.best_cost)
                continue
            if state.infeasible:
                continue

            if self.options.use_lower_bounds:
                bound = best_lower_bound(
                    state, use_lp=self.options.use_lp_bound, lp_row_limit=self.options.lp_row_limit
                )
                if state.cost + bound >= self.best_cost - 1e-12:
                    self.pruned_bound += 1
                    continue

            branch_col = self._pick_branch_column(state)
            if branch_col is None:
                continue

            # the 0-branch may make a row uncoverable; the pop detects it.
            without_col = state.clone()
            without_col.exclude(branch_col)
            with_col = state.clone()
            with_col.select(branch_col)
            stack.append(without_col)
            stack.append(with_col)

    def _pick_branch_column(self, state: ReducedState) -> Optional[str]:
        """Most-covering-per-weight available column; None if all useless."""
        best_name: Optional[str] = None
        best_key: Tuple[float, int, str] = (-1.0, 0, "")
        best_zero: Optional[Tuple[int, str]] = None
        for name in sorted(state.columns):
            covered = len(state.active_rows_of(name))
            if covered == 0:
                continue
            weight = state.problem.column(name).weight
            if weight <= 0.0:
                # same pinned tie-break as greedy_cover: lowest column
                # index among the (infinite-ratio) zero-weight columns
                idx = state.problem.column_index(name)
                if best_zero is None or idx < best_zero[0]:
                    best_zero = (idx, name)
                continue
            ratio = covered / weight
            key = (ratio, covered, name)
            if key > best_key:
                best_key = key
                best_name = name
        if best_zero is not None:
            return best_zero[1]
        return best_name


def _flush_search_counters(tracer, search: "_Search") -> None:
    # Counters accumulate in plain ints on the hot path and flush once —
    # keeps the traced overhead off the per-node loop entirely.
    tracer.count("covering.bnb.nodes", search.nodes)
    tracer.count("covering.bnb.reductions", search.reductions_applied)
    tracer.count("covering.bnb.pruned_incumbent", search.pruned_incumbent)
    tracer.count("covering.bnb.pruned_bound", search.pruned_bound)
    tracer.count("covering.bnb.incumbents", search.incumbents)


def _journal_seed(
    problem: CoveringProblem, journal: Optional[CheckpointJournal]
) -> Optional[CoverSolution]:
    """The journal's best recorded incumbent, iff it solves ``problem``.

    A recorded incumbent from a killed run is only reused when it is a
    feasible cover of the problem being resumed (the instance
    fingerprint already guarantees the same candidate universe; this
    re-checks anyway so a stale record can never poison the search).
    """
    if journal is None or journal.best_incumbent is None:
        return None
    weight, columns, _stage = journal.best_incumbent
    candidate = CoverSolution(column_names=columns, weight=weight, optimal=False)
    try:
        problem.check_solution(candidate)
    except CoveringError:
        return None
    return candidate


def solve_cover(
    problem: CoveringProblem,
    options: Optional[SolverOptions] = None,
    budget: Union[Budget, BudgetTracker, None] = None,
    journal: Optional[CheckpointJournal] = None,
) -> CoverSolution:
    """Solve the weighted UCP exactly.

    Returns a :class:`CoverSolution` with ``optimal=True`` and solver
    statistics.  Raises :class:`CoveringError` on infeasible instances.
    When ``max_nodes`` or the ``budget`` (wall-clock deadline / global
    node cap) is exhausted, raises :class:`BudgetExceeded` with the best
    feasible incumbent found so far attached as ``.partial`` — the
    greedy seed guarantees one exists — so callers can degrade
    gracefully instead of failing.

    ``journal`` makes the search crash-tolerant: every strict incumbent
    improvement is durably recorded, and a resumed solve seeds from the
    best recorded incumbent (when it beats the greedy seed), so work a
    killed run already proved is never re-spent.  Because incumbents
    only ever improve *strictly*, a resumed search serves exactly the
    selection an uninterrupted run would have served.
    """
    options = options or SolverOptions()
    problem.validate_coverable()
    tracker = as_tracker(budget)
    tracer = current_tracer()

    if problem.n_rows == 0:
        return CoverSolution(
            column_names=(), weight=0.0, optimal=True, stats={"nodes": 0}, engine="bnb"
        )

    with tracer.span(
        "covering.bnb", rows=problem.n_rows, columns=len(problem.columns)
    ) as bnb_span:
        tracker.checkpoint("bnb.start")
        incumbent = greedy_cover(problem, budget=tracker, site="bnb.seed")
        seed = _journal_seed(problem, journal)
        if seed is not None and seed.weight < incumbent.weight - 1e-12:
            incumbent = seed
        search = _Search(
            problem=problem,
            options=options,
            best_cost=incumbent.weight,
            best_selection=tuple(sorted(incumbent.column_names)),
            tracker=tracker,
            journal=journal,
        )
        try:
            search.run(ReducedState.initial(problem))
        except BudgetExceeded as exc:
            _flush_search_counters(tracer, search)
            bnb_span.set("nodes", search.nodes)
            bnb_span.set("optimal", False)
            partial = CoverSolution(
                column_names=search.best_selection,
                weight=search.best_cost,
                optimal=False,
                stats={
                    "nodes": search.nodes,
                    "reductions": search.reductions_applied,
                    "greedy_seed_weight": incumbent.weight,
                },
                engine="bnb",
            )
            problem.check_solution(partial)
            raise BudgetExceeded(str(exc), reason=exc.reason, partial=partial) from exc

        _flush_search_counters(tracer, search)
        bnb_span.set("nodes", search.nodes)
        bnb_span.set("optimal", True)
        solution = CoverSolution(
            column_names=search.best_selection,
            weight=search.best_cost,
            optimal=True,
            stats={
                "nodes": search.nodes,
                "reductions": search.reductions_applied,
                "greedy_seed_weight": incumbent.weight,
            },
            engine="bnb",
        )
        problem.check_solution(solution)
        return solution
