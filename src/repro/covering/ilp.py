"""Exact 0-1 ILP covering engine: one HiGHS MIP solve.

The paper observes that the synthesis optimization "can be seen as a
special case of 0-1 integer linear programming".  This module makes
that concrete: it states the covering instance as

    minimize    w·x
    subject to  A x >= 1   (one inequality per row, ``A`` sparse)
                x ∈ {0,1}^n

and solves it with one ``scipy.optimize.milp`` call (HiGHS: presolve,
cutting planes, branch-and-bound) at a relative gap of zero, so a
returned cover is optimal.  It shares no search code with
:mod:`repro.covering.bnb`: it cross-checks that paper-faithful engine,
and synthesis sends it every screened cover of at least
``repro.core.synthesis.ILP_CUTOVER_COLUMNS`` columns.

HiGHS takes no starting solution and has no incumbent callback, so a
budget maps onto its limits: the tracker's remaining time becomes
``time_limit``, the root's remaining node budget ``node_limit``, and
the nodes HiGHS searched are charged to the root afterwards.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..core.exceptions import BudgetExceeded, CoveringError
from ..obs import current_tracer
from ..runtime.budget import Budget, BudgetTracker, as_tracker
from ..runtime.checkpoint import CheckpointJournal
from .matrix import CoverSolution, CoveringProblem

__all__ = ["solve_ilp"]

#: ``milp`` statuses: proven optimal, and stopped at a time or node limit.
_OPTIMAL, _LIMIT = 0, 1


def solve_ilp(
    problem: CoveringProblem,
    max_nodes: int = 200_000,
    budget: Union[Budget, BudgetTracker, None] = None,
    journal: Optional[CheckpointJournal] = None,
) -> CoverSolution:
    """Solve the covering instance as a 0-1 ILP; exact.

    Raises :class:`CoveringError` on infeasibility or a solver failure.
    Running out of nodes (``max_nodes`` or the budget's) or of
    ``budget`` time raises :class:`BudgetExceeded`, with HiGHS's best
    feasible cover attached as ``.partial`` when it found one.

    ``journal`` records the final cover as an ``"ilp"`` incumbent.  A
    solve killed mid-way leaves no record and re-solves cold on resume;
    HiGHS is deterministic, so it serves the uninterrupted selection.
    """
    problem.validate_coverable()
    if problem.n_rows == 0:
        return CoverSolution(column_names=(), weight=0.0, optimal=True, engine="ilp")
    tracker = as_tracker(budget)
    tracer = current_tracer()
    cols = problem.columns
    row_index = {r: i for i, r in enumerate(problem.rows)}
    row_of, col_of = zip(*[(row_index[r], j) for j, c in enumerate(cols) for r in c.rows])
    matrix = sparse.csr_array(
        (np.ones(len(row_of)), (row_of, col_of)), shape=(problem.n_rows, len(cols))
    )
    weights = np.array([c.weight for c in cols], dtype=float)

    with tracer.span("covering.ilp", rows=problem.n_rows, columns=len(cols)) as ilp_span:
        tracker.checkpoint("ilp.start", force=True)
        nodes_left = tracker.nodes_left()
        node_limit = max_nodes if nodes_left is None else min(max_nodes, nodes_left)
        if node_limit <= 0:
            raise BudgetExceeded("node budget exhausted before the ILP", reason="nodes")
        start = time.perf_counter()
        res = milp(
            weights,
            constraints=LinearConstraint(matrix, lb=1.0),
            integrality=np.ones(len(cols)),
            bounds=Bounds(0.0, 1.0),
            options={
                "mip_rel_gap": 0.0,
                "node_limit": node_limit,
                "time_limit": tracker.remaining_s(),
            },
        )
        # HiGHS's node count is deterministic; its wall time is not,
        # so that is a *local* counter.
        nodes = int(res.get("mip_node_count") or 0)
        tracker.add_nodes(nodes)
        tracer.count("covering.ilp.nodes", nodes)
        tracer.count_local("covering.ilp.solve_s", time.perf_counter() - start)
        ilp_span.set("nodes", nodes)

    cover = None
    if res.status in (_OPTIMAL, _LIMIT) and res.x is not None:
        chosen = np.round(res.x)
        cover = CoverSolution(
            column_names=tuple(sorted(c.name for c, keep in zip(cols, chosen) if keep)),
            weight=float(weights @ chosen),
            optimal=res.status == _OPTIMAL,
            stats={"nodes": nodes},
            engine="ilp",
        )
        problem.check_solution(cover)
        if journal is not None:
            journal.record_incumbent("ilp", cover.column_names, cover.weight)
    if res.status == _OPTIMAL:
        return cover
    if res.status == _LIMIT:
        raise BudgetExceeded(
            f"ILP stopped after {nodes} nodes: {res.message}",
            reason="nodes" if nodes >= node_limit else "deadline",
            partial=cover,
        )
    raise CoveringError(f"ILP found no cover: {res.message}")
