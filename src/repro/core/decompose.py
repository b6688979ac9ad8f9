"""Scalable synthesis: certified cluster decomposition
(``repro.core.decompose``).

The exact pipeline enumerates every K-way merging subset and plans a
placement for every pruning survivor before solving the covering step —
which caps it at tens of arcs.  This module provides the standard
escape, built on the *same* Section 3 predicates the exact pipeline
uses, so its optimality claim inherits the lemmas' soundness
(Assumption 2.1: stage costs monotone in length and bandwidth):

**Cluster decomposition** (``strategy="decompose"``)
    Partition the arcs into clusters such that every cluster-spanning
    merging subset is *certifiably* pruned, synthesize each cluster
    independently (the same candidate generation, budget checkpoints
    and journal replay), and assemble the per-cluster covers.  The
    certificate (below) makes the decomposition lossless: the union of
    the per-cluster candidate universes equals the exact pipeline's
    universe, so the assembled cover is globally optimal and the reported
    ``gap_bound`` is a certified ``0.0``.

    *Certificate.*  Write ``m(a, b) = Δ(a, b) − Γ(a, b)`` (the Lemma
    3.2 margin; the batch predicate prunes a subset ``S`` at pivot
    ``p`` when ``Σ_{i∈S∖{p}} m(i, p) ≥ −tol``).  Let ``neg_in(a)`` be
    the total negative margin between ``a`` and its own cluster,
    ``Σ_{b∈cluster(a)∖{a}} max(0, −m(a, b))``.  If for every arc ``a``
    and every other-cluster arc ``b`` either

    - the pair ``{a, b}`` is Theorem 3.2 (bandwidth) pair-pruned — any
      superset is then bandwidth-pruned too, because adding members
      only grows the trunk total while the threshold's ``min`` term
      can only shrink — or
    - ``m(a, b) ≥ neg_in(a) + tol``,

    then any subset ``S`` spanning two clusters is Lemma 3.2 pruned at
    any of its own pivots ``a``: the (≥ 1) cross terms each contribute
    at least ``neg_in(a)`` while the same-cluster terms subtract at
    most ``neg_in(a)``, so the pivot sum is nonnegative.  Clusters
    start as the connected components of the pair-mergeability graph
    and are coarsened (violating clusters merged) until the
    certificate holds — in the worst case collapsing to one cluster,
    i.e. the exact pipeline.

    At unbounded arity a cluster whose enumeration would pass the
    subset valve (:data:`~repro.core.candidates.MAX_ENUMERATED_SUBSETS`)
    is served from the arities below the one that would trip it, where
    the exact pipeline refuses; the capped universe voids the
    certificate (``certified=False``, ``gap_bound=None``, and a note
    names the arity).

The strategy owns only how it builds its candidate universe and how
it splits the cover into blocks.  The steps it shares with the exact
pipeline run as one implementation each:
``SynthesisOptions.candidate_args`` for generation, the Figure 2 arity
loop and merge admission of :mod:`repro.core.candidates`, and the
budgeted covering chain (screen, engine choice by width, fallbacks)
and cover-and-assemble tail of :mod:`repro.core.synthesis` — so a block
is solved, and degrades under a budget, exactly as a whole exact-path
instance is.  The tail returns a normal
:class:`~repro.core.synthesis.SynthesisResult` with the extra
``decomposition`` report attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..covering.matrix import Column, CoverSolution, CoveringProblem
from ..obs import current_tracer
from ..runtime.budget import BudgetTracker
from ..runtime.checkpoint import CheckpointJournal
from ..runtime.report import DegradationReport, ResultQuality, StageAttempt
from .candidates import Candidate, CandidateSet, GenerationStats, generate_candidates
from .constraint_graph import ConstraintGraph
from .exceptions import BudgetExceeded, EnumerationLimitError
from .library import CommunicationLibrary
from .matrices import ArcMatrices, compute_matrices
from .pruning import PRUNE_TOL
from .synthesis import (
    SynthesisOptions,
    SynthesisResult,
    _budgeted_cover,
    _cover_and_assemble,
    _fail_unless_optimal,
)
# perfbench traces these names in this module; the calls run in synthesis
# and candidates
from .merging import build_merging_plan  # noqa: F401
from .synthesis import build_covering_problem, materialize_selection  # noqa: F401
from .synthesis import solve_cover, solve_ilp  # noqa: F401  (perfbench, as above)
from .validation import validate  # noqa: F401  (perfbench, as above)

__all__ = [
    "DecompositionReport",
    "certified_partition",
    "synthesize_decomposed",
]


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


@dataclass
class DecompositionReport:
    """What the decompose strategy did, and what it certifies.

    ``gap_bound`` bounds ``total_cost − OPT``.  It is ``0.0`` exactly
    when ``certified`` holds: the partition certificate held, every
    cluster's candidate universe is complete and every block's cover
    is optimal, so the result is provably optimal.  It is ``None`` when budget truncation,
    a capped enumeration (the subset valve) or a degraded cover voids
    the certificate — never a silent claim.
    """

    strategy: str
    n_clusters: int = 1
    cluster_sizes: List[int] = field(default_factory=list)
    coarsening_rounds: int = 0
    #: cross-cluster arc pairs certified useless (bandwidth or margin).
    boundary_pairs_pruned: int = 0
    gap_bound: Optional[float] = None
    certified: bool = False
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (deterministic: no wall-clock content)."""
        return {
            "strategy": self.strategy,
            "n_clusters": self.n_clusters,
            "cluster_sizes": list(self.cluster_sizes),
            "coarsening_rounds": self.coarsening_rounds,
            "boundary_pairs_pruned": self.boundary_pairs_pruned,
            "gap_bound": self.gap_bound,
            "certified": self.certified,
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------------
# partitioning + certificate
# ----------------------------------------------------------------------


def _components(n: int, mergeable: np.ndarray) -> np.ndarray:
    """Connected-component labels of the pair-mergeability graph.

    Labels are canonicalized to the smallest member index, so the
    partition is deterministic regardless of union order.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(np.triu(mergeable, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)], dtype=int)


def certified_partition(
    matrices: ArcMatrices, library: CommunicationLibrary
) -> Tuple[np.ndarray, int, int]:
    """Partition arcs so every cluster-spanning subset is certifiably
    pruned; returns ``(labels, coarsening_rounds, boundary_pairs)``.

    Starts from the connected components of the pair-mergeability graph
    (pairs neither Lemma 3.1 nor Theorem 3.2 pruned) and merges
    clusters violating the module-level certificate until it holds.
    Terminates in at most ``n`` rounds (each merges ≥ 2 clusters); a
    single surviving cluster degenerates to the exact pipeline and is
    trivially certified.
    """
    n = matrices.size
    # margin[i, j] = Δ(i, j) − Γ(i, j): the pair is Lemma 3.1 pruned
    # when it is ≥ −tol.  bw_pruned is the Theorem 3.2 pair verdict,
    # with the batch predicate's keep-favouring tolerance.
    margin = matrices.delta - matrices.gamma
    b = matrices.bandwidth
    total = b[:, None] + b[None, :]
    threshold = library.max_link_bandwidth() + np.minimum(b[:, None], b[None, :])
    bw_scale = np.maximum(1.0, np.maximum(np.abs(total), np.abs(threshold)))
    bw_pruned = (total >= threshold + PRUNE_TOL * bw_scale) | (total == threshold)
    geo_pair_pruned = margin >= -PRUNE_TOL * np.maximum(
        1.0, np.maximum(np.abs(matrices.gamma), np.abs(matrices.delta))
    )
    mergeable = ~(geo_pair_pruned | bw_pruned)
    np.fill_diagonal(mergeable, False)
    labels = _components(n, mergeable)

    neg = np.maximum(0.0, -margin)
    rounds = 0
    while True:
        same = labels[:, None] == labels[None, :]
        neg_in = (neg * same).sum(axis=1) - np.diagonal(neg)
        # certificate per cross pair: bandwidth-pruned, or margin beats
        # the pivot's in-cluster negative mass with tolerance to spare
        scale = np.maximum(1.0, np.maximum(np.abs(margin), neg_in[:, None]))
        safe = bw_pruned | (margin >= neg_in[:, None] + PRUNE_TOL * scale)
        viol_rows, viol_cols = np.nonzero(~same & ~safe)
        if viol_rows.size == 0:
            break
        rounds += 1
        merged = mergeable.copy()
        merged[viol_rows, viol_cols] = True
        merged[viol_cols, viol_rows] = True
        mergeable = merged
        labels = _components(n, mergeable)

    same = labels[:, None] == labels[None, :]
    boundary_pairs = int(np.count_nonzero(np.triu(~same, 1)))
    return labels, rounds, boundary_pairs


def _clusters_from_labels(labels: np.ndarray) -> List[List[int]]:
    """Index groups ordered by their smallest member (deterministic)."""
    groups: Dict[int, List[int]] = {}
    for i, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


# ----------------------------------------------------------------------
# cluster bookkeeping
# ----------------------------------------------------------------------


def _merge_stats(master: GenerationStats, part: GenerationStats) -> None:
    """Fold one cluster's generation stats into the aggregate."""
    master.subsets_enumerated += part.subsets_enumerated
    master.pruned_geometric += part.pruned_geometric
    master.pruned_bandwidth += part.pruned_bandwidth
    master.pruned_apriori += part.pruned_apriori
    master.pruned_hops += part.pruned_hops
    master.infeasible_plans += part.infeasible_plans
    master.budget_truncated = master.budget_truncated or part.budget_truncated
    for k, v in part.survivors_by_k.items():
        master.survivors_by_k[k] = master.survivors_by_k.get(k, 0) + v
    for k, v in part.pruning_survivors_by_k.items():
        master.pruning_survivors_by_k[k] = master.pruning_survivors_by_k.get(k, 0) + v
    master.retired_at_k.update(part.retired_at_k)
    master.chunks_replayed += part.chunks_replayed


# ----------------------------------------------------------------------
# strategy: decompose
# ----------------------------------------------------------------------


def synthesize_decomposed(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    tracker: Optional[BudgetTracker],
    journal: Optional[CheckpointJournal],
    start: float,
) -> SynthesisResult:
    """The ``strategy="decompose"`` pipeline (see the module docstring).

    Per-cluster candidate generation reuses :func:`generate_candidates`
    wholesale — including budget checkpoints and journal chunk replay
    (chunk keys carry a group digest, so per-cluster records never
    collide).
    Each per-component covering solve runs the budgeted chain of
    :func:`~repro.core.synthesis._budgeted_cover` under the same
    budget; the report carries the worst block tag.
    """
    tracer = current_tracer()
    arcs = graph.arcs
    n = len(arcs)
    with tracer.span("decompose", arcs=n):
        matrices = compute_matrices(graph)
        with tracer.span("decompose.partition"):
            labels, rounds, boundary_pairs = certified_partition(matrices, library)
        clusters = _clusters_from_labels(labels)
        tracer.gauge("decompose.clusters", float(len(clusters)))
        tracer.count("decompose.coarsening_rounds", rounds)
        decomposition = DecompositionReport(
            strategy="decompose",
            n_clusters=len(clusters),
            cluster_sizes=[len(c) for c in clusters],
            coarsening_rounds=rounds,
            boundary_pairs_pruned=boundary_pairs,
        )

        master = GenerationStats()
        p2p_by_arc: Dict[str, Candidate] = {}
        mergings: List[Candidate] = []
        attempts: List[StageAttempt] = []
        capped = False
        for ci, idxs in enumerate(clusters):
            names = [matrices.arc_names[i] for i in idxs]
            sub = graph.subgraph(names)
            with tracer.span("decompose.cluster", index=ci, arcs=len(names)):
                try:
                    cs, cap = _generate_cluster(
                        sub, library, options, budget=tracker, journal=journal
                    )
                except BudgetExceeded:
                    # The budget died inside this cluster's (mandatory)
                    # point-to-point pass.  With no cluster finished yet
                    # nothing is servable — same as the exact pipeline,
                    # raise.  Otherwise feasibility needs a p2p plan per
                    # remaining arc; they are cheap (one plan each), so
                    # in degrade mode finish the remaining clusters
                    # p2p-only off-budget rather than serving nothing.
                    if ci == 0 or options.on_budget_exhausted == "fail":
                        raise
                    master.budget_truncated = True
                    attempts.append(
                        StageAttempt(
                            "decompose.generate", "budget-p2p-only",
                            detail=f"cluster {ci} of {len(clusters)}",
                        )
                    )
                    cs = generate_candidates(
                        sub, library, **options.candidate_args(max_arity=1)
                    )
                    cap = None
            if cap is not None:
                capped = True
                decomposition.notes.append(
                    f"cluster {ci} enumeration capped below arity {cap} "
                    f"(subset valve) — unexplored higher-arity columns void "
                    f"the gap certificate; set max_arity for a bounded-exact run"
                )
            _merge_stats(master, cs.stats)
            for c in cs.point_to_point:
                p2p_by_arc[c.arc_names[0]] = c
            mergings.extend(cs.mergings)

        decomposition.certified = not (master.budget_truncated or capped)
        decomposition.gap_bound = 0.0 if decomposition.certified else None
        if master.budget_truncated:
            decomposition.notes.append(
                "budget truncated candidate generation; certificate void"
            )

        point_to_point = [p2p_by_arc[a.name] for a in arcs]
        candidates = CandidateSet(
            point_to_point=point_to_point, mergings=mergings, stats=master
        )

        def solve(
            covering: CoveringProblem, replayed: Optional[CoverSolution]
        ) -> Tuple[CoverSolution, Optional[DegradationReport]]:
            reports: List[DegradationReport] = []
            if replayed is not None:
                cover = replayed
            else:
                with tracer.span("covering.solve", components=0):
                    cover, reports = _solve_components(
                        graph, labels, matrices, candidates, covering, tracker
                    )
            if not cover.optimal:
                decomposition.certified = False
                decomposition.gap_bound = None
                decomposition.notes.append("covering solve degraded under budget")
            if tracker is None:
                return cover, None
            truncated = master.budget_truncated
            # the worst block tag, and every attempt in block order
            quality = max(
                (r.quality for r in reports),
                key=list(ResultQuality).index,
                default=(
                    ResultQuality.FEASIBLE_SUBOPTIMAL if truncated else ResultQuality.OPTIMAL
                ),
            )
            report = DegradationReport(
                quality=quality,
                source_stage="decompose",
                attempts=attempts + [a for r in reports for a in r.attempts],
                budget_exhausted=truncated or tracker.expired(),
                candidate_generation_truncated=truncated,
                deadline_s=tracker.budget.deadline_s,
                nodes_used=tracker.nodes_used,
            )
            _fail_unless_optimal(report, cover, tracker, options.on_budget_exhausted)
            return cover, report

        return _cover_and_assemble(
            graph, library, options, candidates, solve, start, journal, decomposition
        )


def _generate_cluster(
    sub: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    **execution: Any,
) -> Tuple[CandidateSet, Optional[int]]:
    """One cluster's candidates, plus the arity its enumeration was
    capped below (``None`` when it ran to completion).

    At unbounded arity a cluster that would pass the subset valve is
    served from the arities it already planned, which the valve's
    error carries as ``partial``.  The exact pipeline refuses such an
    instance, and so does decompose under an explicit ``max_arity``.
    """
    try:
        return generate_candidates(sub, library, **options.candidate_args(), **execution), None
    except EnumerationLimitError as exc:
        if options.max_arity is not None:
            raise
        return exc.partial, exc.arity


def _solve_components(
    graph: ConstraintGraph,
    labels: np.ndarray,
    matrices: ArcMatrices,
    candidates: CandidateSet,
    covering: CoveringProblem,
    tracker: Optional[BudgetTracker],
) -> Tuple[CoverSolution, List[DegradationReport]]:
    """Solve one covering instance per cluster and reassemble.

    The certificate guarantees no candidate spans clusters,
    so the global UCP is block-diagonal and the per-block optima
    compose into the global optimum (a fact checked at assembly:
    ``check_solution`` re-verifies feasibility and weight).  Each block
    runs the budgeted covering chain under ``"degrade"``, so a ``"fail"``
    policy sees the assembled cover; the block reports (budgeted runs
    only) come back in block order.
    """
    tracer = current_tracer()
    arc_component = {
        matrices.arc_names[i]: int(labels[i]) for i in range(matrices.size)
    }
    blocks: Dict[int, List[str]] = {}
    for arc in graph.arcs:
        blocks.setdefault(arc_component[arc.name], []).append(arc.name)
    columns_by_block: Dict[int, List[Column]] = {lab: [] for lab in blocks}
    for cand in candidates.all:
        lab = arc_component[cand.arc_names[0]]
        columns_by_block[lab].append(
            Column(name=cand.label(), rows=frozenset(cand.arc_names), weight=cand.cost)
        )

    selected: List[str] = []
    total = 0.0
    optimal = True
    reports: List[DegradationReport] = []
    for lab in sorted(blocks, key=lambda l: blocks[l][0]):
        problem = CoveringProblem(blocks[lab], columns_by_block[lab])
        with tracer.span(
            "decompose.solve", component=lab, rows=problem.n_rows,
            columns=problem.n_columns,
        ):
            solution, report = _budgeted_cover(
                problem, tracker,
                candidate_set_complete=not candidates.stats.budget_truncated,
            )
        selected.extend(solution.column_names)
        total += solution.weight
        optimal = optimal and solution.optimal
        if report is not None:
            reports.append(report)
    assembled = CoverSolution(
        column_names=tuple(selected), weight=total, optimal=optimal,
        stats={"components": len(blocks)},
    )
    covering.check_solution(assembled)
    return assembled, reports
