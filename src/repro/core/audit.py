"""Independent auditing of synthesis results.

``synthesize`` is exact by construction, but a result that claims to be
optimal should be *checkable* without trusting the code path that
produced it.  :func:`audit_result` re-derives everything through
independent machinery:

1. **validity** — the full Definition 2.4 validator plus the LP flow
   check on the materialized graph;
2. **cost honesty** — every selected candidate's cost is recomputed
   from scratch (fresh point-to-point planning, fresh merge placement)
   and compared to the claimed column weight;
3. **covering optimality** — the covering instance is re-solved with
   the *independent* HiGHS 0-1 ILP solver (no code shared with the
   branch-and-bound) and the optima compared;
4. **global optimality** (small instances only) — brute-force partition
   enumeration confirms no better architecture exists at all.

Returns an :class:`AuditReport`; ``strict=True`` raises on the first
finding instead.  The audit is itself exercised by the test suite on
every domain instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..covering.ilp import solve_ilp
from .candidates import Candidate
from .constraint_graph import ConstraintGraph
from .exceptions import SynthesisError, ValidationError
from .library import CommunicationLibrary
from .merging import build_merging_plan
from .mixed_segmentation import best_mixed_segmentation
from .point_to_point import best_point_to_point
from .synthesis import SynthesisResult
from .validation import validate

__all__ = ["AuditReport", "audit_result"]

_COST_TOL = 1e-6
#: partition enumeration is exponential; audit only small graphs fully.
_EXHAUSTIVE_LIMIT = 7


@dataclass
class AuditReport:
    """Findings of one audit; empty ``findings`` means fully verified."""

    findings: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every executed check passed."""
        return not self.findings

    def note(self, check: str) -> None:
        self.checks_run.append(check)

    def flag(self, finding: str) -> None:
        self.findings.append(finding)


def _recompute_candidate_cost(
    candidate: Candidate, graph: ConstraintGraph, library: CommunicationLibrary
) -> Optional[float]:
    """A candidate's cost, re-derived from scratch; None if infeasible."""
    if candidate.is_merging:
        plan = build_merging_plan(graph, candidate.arc_names, library)
        return None if plan is None else plan.cost
    (arc_name,) = candidate.arc_names
    arc = graph.arc(arc_name)
    best = best_point_to_point(arc.distance, arc.bandwidth, library).cost
    if candidate.is_mixed_chain:
        try:
            best = min(best, best_mixed_segmentation(arc.distance, arc.bandwidth, library).cost)
        except SynthesisError:
            pass
    return best


def audit_result(
    result: SynthesisResult,
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    strict: bool = False,
    allow_exhaustive: bool = True,
) -> AuditReport:
    """Run every independent check; see the module docstring."""
    report = AuditReport()

    # 1. Definition 2.4 + flow feasibility on the materialized graph
    report.note("definition-2.4-validation")
    try:
        validate(result.implementation, graph)
    except ValidationError as exc:
        report.flag(f"validation failed: {exc}")

    # 2. per-candidate cost honesty
    report.note("candidate-cost-recomputation")
    for candidate in result.selected:
        fresh = _recompute_candidate_cost(candidate, graph, library)
        if fresh is None:
            report.flag(f"candidate {candidate.label()} is not reconstructible")
            continue
        # hop penalties make the covering weight exceed the raw cost;
        # the raw plan cost must still match the fresh derivation.
        claimed = candidate.plan.cost if hasattr(candidate.plan, "cost") else candidate.cost
        if abs(fresh - claimed) > _COST_TOL * max(1.0, abs(fresh)):
            report.flag(
                f"candidate {candidate.label()}: claimed cost {claimed:.6g}, "
                f"independent recomputation {fresh:.6g}"
            )

    # graph cost must equal the sum of selected raw costs (no penalty case)
    report.note("implementation-cost-reconciliation")
    raw_sum = sum(c.plan.cost for c in result.selected)
    impl_cost = result.implementation.cost()
    if abs(impl_cost - raw_sum) > _COST_TOL * max(1.0, abs(raw_sum)):
        report.flag(
            f"implementation cost {impl_cost:.6g} != sum of selected plans {raw_sum:.6g}"
        )

    # 3. covering optimality via the independent ILP solver
    report.note("covering-ilp-crosscheck")
    try:
        ilp = solve_ilp(result.covering)
        if abs(ilp.weight - result.cover.weight) > _COST_TOL * max(1.0, abs(ilp.weight)):
            report.flag(
                f"covering optimum disputed: bnb {result.cover.weight:.6g}, "
                f"ilp {ilp.weight:.6g}"
            )
    except SynthesisError as exc:
        report.flag(f"ilp cross-check failed to run: {exc}")

    # 4. global optimality by partition enumeration (small graphs)
    if allow_exhaustive and len(graph) <= _EXHAUSTIVE_LIMIT:
        report.note("exhaustive-partition-crosscheck")
        from ..baselines.exhaustive import exhaustive_synthesis

        oracle = exhaustive_synthesis(graph, library, check=False)
        if result.total_cost > oracle.total_cost * (1 + _COST_TOL) + _COST_TOL:
            report.flag(
                f"partition oracle found a cheaper architecture: "
                f"{oracle.total_cost:.6g} < {result.total_cost:.6g}"
            )

    if strict and not report.ok:
        raise SynthesisError("audit failed: " + "; ".join(report.findings))
    return report
