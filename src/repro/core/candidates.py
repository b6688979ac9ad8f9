"""``GenerateCandidateArcImplementations`` — Figure 2 of the paper.

Produces the set S of candidate arc implementations:

1. the optimum point-to-point implementation of every constraint arc
   (these alone form the optimum point-to-point implementation graph,
   Definition 2.6 / Lemma 2.1);
2. every K-way merging (K = 2 .. |A|) that survives the pruning
   conditions of Section 3 — Lemma 3.1/3.2 on the Γ and Δ matrices and
   Theorem 3.2 on the bandwidth vector — with Theorem 3.1 used to
   retire an arc's Γ column as soon as it participates in no K-way
   merging (it then participates in none of higher arity either).

Each surviving merging is costed by solving its placement problem
(:func:`repro.core.merging.build_merging_plan`).  The generation
statistics (how many subsets were enumerated, pruned by which rule,
survived at each K) are recorded for the paper's Figure 4 counts and
for the pruning-ablation benchmark.

Pruning levels (the ablation axis):

- ``NONE`` — enumerate every subset (exponential; small graphs only);
- ``LEMMAS`` — the paper's sound pruning (default, exact);
- ``APRIORI`` — additionally require every (K-1)-subset of a candidate
  to have survived level K-1.  This is a *heuristic* strengthening (the
  paper does not prove it sound); it is exposed for the ablation bench
  and off by default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..obs import TracerLike, current_tracer
from ..runtime.budget import Budget, BudgetTracker, as_tracker
from ..runtime.checkpoint import CheckpointJournal
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import BudgetExceeded, EnumerationLimitError, InfeasibleError
from .library import CommunicationLibrary
from .matrices import ArcMatrices, IncrementalArcMatrices, compute_matrices
from .merging import MergingPlan, build_merging_plans_batch
from .mixed_segmentation import MixedChainPlan, best_mixed_segmentation
from .point_to_point import PointToPointPlan, best_point_to_point
from .pruning import lemma_3_2_not_mergeable_batch, theorem_3_2_not_mergeable_batch

__all__ = [
    "PruningLevel",
    "Candidate",
    "GenerationStats",
    "CandidateSet",
    "generate_candidates",
]


class PruningLevel(Enum):
    """How aggressively candidate enumeration prunes merge subsets."""

    NONE = "none"
    LEMMAS = "lemmas"
    APRIORI = "apriori"


#: hard ceiling on enumerated merge subsets — a deliberate loud failure
#: instead of an open-ended hang on highly-mergeable large instances.
MAX_ENUMERATED_SUBSETS = 2_000_000

#: subsets evaluated per vectorized pruning batch.  Bounds peak memory
#: (the Lemma 3.2 gather is (chunk, k, k) float64 per matrix) and sets
#: the budget-checkpoint granularity of the pruning pass.
_PRUNE_CHUNK = 8192

#: surviving subsets per checkpoint journal record — the unit a killed
#: run loses at most and a resumed one replays.  The boundaries key the
#: journal's chunk records, so changing the width orphans journals
#: written before.
_PLAN_CHUNK = 512


@dataclass(frozen=True)
class Candidate:
    """One column of the eventual covering matrix.

    ``arc_names`` is the set of constraint arcs this candidate
    implements; ``cost`` the column weight; ``plan`` either a
    :class:`PointToPointPlan` (single arc) or a :class:`MergingPlan`.
    """

    arc_names: Tuple[str, ...]
    cost: float
    plan: Union[PointToPointPlan, MergingPlan, MixedChainPlan]

    @property
    def is_merging(self) -> bool:
        """True when the candidate is a K-way merging (K >= 2)."""
        return isinstance(self.plan, MergingPlan)

    @property
    def is_mixed_chain(self) -> bool:
        """True when the candidate is a heterogeneous segmentation."""
        return isinstance(self.plan, MixedChainPlan)

    @property
    def k(self) -> int:
        """Number of constraint arcs covered."""
        return len(self.arc_names)

    def label(self) -> str:
        """Compact human-readable identifier for reports."""
        joined = "+".join(self.arc_names)
        return f"{'merge' if self.is_merging else 'p2p'}({joined})"


@dataclass
class GenerationStats:
    """Bookkeeping of one candidate-generation run."""

    subsets_enumerated: int = 0
    pruned_geometric: int = 0
    pruned_bandwidth: int = 0
    pruned_apriori: int = 0
    pruned_hops: int = 0
    infeasible_plans: int = 0
    #: merging enumeration was cut short by a wall-clock/node budget —
    #: the point-to-point candidates are complete (feasibility holds)
    #: but the optimum may use a merging that was never generated.
    budget_truncated: bool = False
    #: *generated* merge candidates per arity K: subsets that survived
    #: the Section 3 pruning AND produced a feasible merging plan (the
    #: paper's Fig. 4 text reports 13 / 21 / 16 / 5 for K = 2..5 on the
    #: WAN example; there every pruning survivor is feasible).  Subsets
    #: whose plan is infeasible, or never planned because the budget
    #: truncated the run, are not counted here.
    survivors_by_k: Dict[int, int] = field(default_factory=dict)
    #: pruning-pass survivors per arity K *before* plan feasibility —
    #: the raw Lemma 3.2 / Theorem 3.2 outcome, used by the
    #: pruning-ablation bench.  ``>= survivors_by_k[k]`` always.
    pruning_survivors_by_k: Dict[int, int] = field(default_factory=dict)
    #: arcs retired (Theorem 3.1) keyed by the arity at which they fell out.
    retired_at_k: Dict[str, int] = field(default_factory=dict)
    #: planning chunks replayed from a checkpoint journal instead of
    #: re-solved (resume runs only).
    chunks_replayed: int = 0

    @property
    def total_mergings(self) -> int:
        """Total generated merge candidates across all arities."""
        return sum(self.survivors_by_k.values())


@dataclass
class CandidateSet:
    """The set S plus the statistics of its generation."""

    point_to_point: List[Candidate]
    mergings: List[Candidate]
    stats: GenerationStats

    @property
    def all(self) -> List[Candidate]:
        """Every candidate (point-to-point first, then mergings)."""
        return self.point_to_point + self.mergings

    def mergings_of_arity(self, k: int) -> List[Candidate]:
        """The surviving K-way merging candidates."""
        return [c for c in self.mergings if c.k == k]


def _singleton(
    arc: Arc, library: CommunicationLibrary, heterogeneous: bool, hop_penalty: float
) -> Candidate:
    """``arc``'s singleton column: its optimum point-to-point plan (or,
    with ``heterogeneous``, a cheaper mixed-link-type chain), weighted
    with ``hop_penalty`` per hop like every merging."""
    plan: Union[PointToPointPlan, MixedChainPlan]
    plan = best_point_to_point(arc.distance, arc.bandwidth, library)
    if heterogeneous:
        try:
            mixed = best_mixed_segmentation(arc.distance, arc.bandwidth, library)
            if mixed.cost < plan.cost - 1e-12:
                plan = mixed
        except InfeasibleError:
            pass  # e.g. bandwidth needs duplication — keep the homogeneous plan
    return Candidate(
        arc_names=(arc.name,), cost=plan.cost + hop_penalty * plan.max_hops, plan=plan
    )


def _admit_merging(
    plan: MergingPlan,
    max_merge_hops: Optional[int],
    hop_penalty: float,
    stats: Optional[GenerationStats] = None,
) -> Optional[Candidate]:
    """Whether a planned merging becomes a covering column, and at what
    weight: ``None`` when its worst path exceeds ``max_merge_hops``
    (counted in ``stats.pruned_hops``), else the candidate weighted
    ``cost + hop_penalty x max_hops``."""
    if max_merge_hops is not None and plan.max_hops > max_merge_hops:
        if stats is not None:
            stats.pruned_hops += 1
        return None
    cost = plan.cost + hop_penalty * plan.max_hops
    return Candidate(arc_names=plan.arc_names, cost=cost, plan=plan)


def generate_candidates(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    pruning: PruningLevel = PruningLevel.LEMMAS,
    max_arity: Optional[int] = None,
    heterogeneous: bool = False,
    max_merge_hops: Optional[int] = None,
    polish_placement: bool = True,
    hop_penalty: float = 0.0,
    budget: Union[Budget, BudgetTracker, None] = None,
    journal: Optional[CheckpointJournal] = None,
) -> CandidateSet:
    """Run Figure 2's candidate generation on ``graph`` over ``library``.

    ``max_arity`` caps K (None = up to |A|).  Every surviving merging is
    kept, even one costing no less than its members' singletons, so the
    candidate counts match the paper's; the covering step screens those
    out (:func:`~repro.covering.reductions.screen_dominated`).
    ``heterogeneous`` additionally evaluates mixed-link-type chains
    (:mod:`repro.core.mixed_segmentation`) for each arc's singleton
    candidate and keeps the cheaper plan.  ``max_merge_hops`` drops
    merging candidates whose worst path would traverse more than that
    many communication vertices (a latency constraint; singletons are
    never dropped, so feasibility is preserved).  ``hop_penalty`` adds
    ``penalty × worst-path hops`` to every candidate's covering weight —
    a *weighted multi-objective* alternative to the hard hop budget:
    sweeping it traces the same cost/latency frontier in single runs.
    Note the resulting ``Candidate.cost`` (and the synthesis
    ``total_cost``) is then the *penalized* objective; the monetary
    cost of the final architecture is ``implementation.cost()``.

    Raises :class:`InfeasibleError` if some arc has no point-to-point
    implementation at all (then no implementation graph exists either),
    and its subclass :class:`~repro.core.exceptions.EnumerationLimitError`
    before an arity whose subsets would pass
    :data:`MAX_ENUMERATED_SUBSETS`; the error's ``partial`` is the
    candidate set of the arities below it.

    ``budget`` adds cooperative checkpoints to every enumeration loop.
    The mandatory point-to-point pass raises
    :class:`~repro.core.exceptions.BudgetExceeded` when interrupted
    (without it nothing is feasible); the optional merging enumeration
    instead *truncates* — the candidates generated so far are returned
    and ``stats.budget_truncated`` is set, preserving feasibility at
    the price of possible suboptimality.

    Every placement problem is solved in this process; parallelism
    lives across instances (:func:`repro.batch.run_batch`).

    ``journal`` (a :class:`~repro.runtime.checkpoint.CheckpointJournal`)
    makes the expensive planning passes crash-tolerant: every completed
    planning chunk is durably recorded, and a resumed run replays
    recorded chunks instead of re-solving their placements.  The
    pruning passes re-run on resume (they are cheap and deterministic);
    replayed chunks still feed the plan-outcome obs counters, so a
    resumed run reports the same deterministic totals as a fresh one.
    """
    if hop_penalty < 0:
        raise ValueError(f"hop_penalty must be nonnegative, got {hop_penalty}")
    stats = GenerationStats()
    tracker = as_tracker(budget)
    tracer = current_tracer()
    arcs = graph.arcs
    n = len(arcs)

    with tracer.span("candidates.generate", arcs=n, pruning=pruning.value) as gen_span:
        p2p_candidates: List[Candidate] = []
        with tracer.span("candidates.p2p", arcs=n):
            for arc in arcs:
                tracker.checkpoint("candidates.p2p")
                tracer.count("candidates.p2p.plans")
                p2p_candidates.append(_singleton(arc, library, heterogeneous, hop_penalty))

        plans: List[MergingPlan] = []
        limit: Optional[EnumerationLimitError] = None
        if n >= 2:
            matrices = IncrementalArcMatrices(graph)
            try:
                _enumerate_mergings(
                    graph, library, matrices, pruning, max_arity, stats, plans,
                    polish_placement, tracker=tracker, journal=journal,
                )
            except EnumerationLimitError as exc:
                limit = exc  # raised below, carrying the arities it let finish

        mergings: List[Candidate] = []
        for merge_plan in plans:
            candidate = _admit_merging(merge_plan, max_merge_hops, hop_penalty, stats)
            if candidate is not None:
                mergings.append(candidate)
        if max_merge_hops is not None:
            tracer.count("candidates.pruned.hops", stats.pruned_hops)

        gen_span.set("point_to_point", len(p2p_candidates))
        gen_span.set("mergings", len(mergings))
        gen_span.set("budget_truncated", stats.budget_truncated)
        tracer.gauge("candidates.total", len(p2p_candidates) + len(mergings))
        candidates = CandidateSet(point_to_point=p2p_candidates, mergings=mergings, stats=stats)
        if limit is not None:
            limit.partial = candidates
            raise limit
        return candidates


def _record_plan_outcome(
    tracer: TracerLike, k: int, plan: Optional[MergingPlan]
) -> None:
    """Count one placement solve, solved or replayed from the journal,
    so fresh and resumed runs accumulate identical deterministic totals."""
    tracer.count("candidates.plans.built")
    if plan is None:
        tracer.count("candidates.plans.infeasible")
    else:
        tracer.count("candidates.plans.feasible")
        tracer.count(f"candidates.survivors.k{k}")


def _prune_arity(
    matrices: ArcMatrices,
    k: int,
    pruning: PruningLevel,
    prev_survivors: Set[FrozenSet[str]],
    max_bw: float,
    stats: GenerationStats,
    tracker: BudgetTracker,
) -> Optional[List[Tuple[int, ...]]]:
    """Batch-evaluate every K-subset of the (compacted) active matrices
    against the pruning conditions; ``None`` signals budget truncation
    mid-pass.

    ``matrices`` holds only the still-active arcs (Theorem 3.1 retirees
    are gone — see :class:`~repro.core.matrices.IncrementalArcMatrices`),
    so subsets enumerate over ``range(size)``.  Subsets stream out of
    ``itertools.combinations`` in chunks; each chunk is one batched
    predicate call over the Γ/Δ column sums and one over the bandwidth
    vector instead of one ``np.ix_`` block per subset.  APRIORI's
    survivor memory is keyed by arc *name* (stable across compaction).

    Every K-subset counts against :data:`MAX_ENUMERATED_SUBSETS`, so an
    arity that would pass it raises
    :class:`~repro.core.exceptions.EnumerationLimitError` before
    enumerating any.
    """
    subsets = math.comb(matrices.size, k)
    if stats.subsets_enumerated + subsets > MAX_ENUMERATED_SUBSETS:
        raise EnumerationLimitError(
            f"candidate enumeration would exceed {MAX_ENUMERATED_SUBSETS} subsets "
            f"at arity {k} ({subsets} subsets of {matrices.size} mergeable arcs) — "
            f"set max_arity to bound the search (the result stays exact "
            f"within that arity)",
            arity=k,
        )
    tracer = current_tracer()
    names = matrices.arc_names
    survivors: List[Tuple[int, ...]] = []
    combos = itertools.combinations(range(matrices.size), k)
    while True:
        chunk = list(itertools.islice(combos, _PRUNE_CHUNK))
        if not chunk:
            return survivors
        try:
            tracker.checkpoint("candidates.subset", force=True)
        except BudgetExceeded:
            stats.budget_truncated = True
            return None
        stats.subsets_enumerated += len(chunk)
        tracer.count("candidates.subsets.enumerated", len(chunk))
        if pruning is PruningLevel.APRIORI and k > 2:
            kept = []
            for subset in chunk:
                fs = frozenset(names[i] for i in subset)
                if any(fs - {nm} not in prev_survivors for nm in fs):
                    stats.pruned_apriori += 1
                    tracer.count("candidates.pruned.apriori")
                else:
                    kept.append(subset)
            chunk = kept
            if not chunk:
                continue
        if pruning is PruningLevel.NONE:
            survivors.extend(chunk)
            continue
        arr = np.asarray(chunk, dtype=int)
        geometric = lemma_3_2_not_mergeable_batch(matrices, arr)
        pruned_geo = int(np.count_nonzero(geometric))
        stats.pruned_geometric += pruned_geo
        tracer.count("candidates.pruned.lemma_3_2", pruned_geo)
        arr = arr[~geometric]
        if arr.shape[0]:
            bandwidth = theorem_3_2_not_mergeable_batch(matrices.bandwidth[arr], max_bw)
            pruned_bw = int(np.count_nonzero(bandwidth))
            stats.pruned_bandwidth += pruned_bw
            tracer.count("candidates.pruned.theorem_3_2", pruned_bw)
            arr = arr[~bandwidth]
        survivors.extend(tuple(row) for row in arr.tolist())


def _absorb_plans(
    plans: Sequence[Optional[MergingPlan]],
    k: int,
    stats: GenerationStats,
    feasible: List[MergingPlan],
) -> None:
    """Fold one chunk's plans into the stats and the feasible-plan list."""
    for plan in plans:
        if plan is None:
            stats.infeasible_plans += 1
            continue
        stats.survivors_by_k[k] += 1
        feasible.append(plan)


def _chunked(groups: Sequence[Tuple[str, ...]]) -> List[List[Tuple[str, ...]]]:
    """The canonical planning-chunk boundaries (the checkpoint journal
    keys)."""
    return [list(groups[i:i + _PLAN_CHUNK]) for i in range(0, len(groups), _PLAN_CHUNK)]


def _plan_arity(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    names: Sequence[str],
    survivors_k: Sequence[Tuple[int, ...]],
    k: int,
    stats: GenerationStats,
    feasible: List[MergingPlan],
    tracker: BudgetTracker,
    polish_placement: bool,
    journal: Optional[CheckpointJournal] = None,
) -> bool:
    """Cost one arity's survivors; False ⇒ budget truncated.

    Work proceeds in ``_PLAN_CHUNK`` boundaries, each one journal
    record.  Replayed chunks still feed the plan-outcome counters (the
    totals stay deterministic across fresh and resumed runs).
    """
    tracer = current_tracer()
    for index, chunk in enumerate(_chunked([tuple(names[i] for i in s) for s in survivors_k])):
        plans = journal.get_chunk(k, index, chunk) if journal is not None else None
        if plans is not None:
            stats.chunks_replayed += 1
            for plan in plans:
                _record_plan_outcome(tracer, k, plan)
        else:
            # Same checkpoint cadence as the historical one-at-a-time
            # loop (one "candidates.plan" per group, in order), taken
            # *before* the batched solve: on BudgetExceeded at group j
            # the first j groups — exactly the ones the serial loop
            # would have finished — are still solved and kept.
            upto = len(chunk)
            truncated = False
            for i in range(len(chunk)):
                try:
                    tracker.checkpoint("candidates.plan")
                except BudgetExceeded:
                    upto = i
                    truncated = True
                    break
            plans = (
                build_merging_plans_batch(
                    graph, chunk[:upto], library, polish_placement=polish_placement
                )
                if upto
                else []
            )
            for plan in plans:
                _record_plan_outcome(tracer, k, plan)
            if truncated:
                # keep the partial chunk's work (anytime semantics)
                # but never journal it: only *completed* chunks are
                # durable, so a resume re-solves this one whole.
                stats.budget_truncated = True
                _absorb_plans(plans, k, stats, feasible)
                return False
            if journal is not None:
                journal.record_chunk(k, index, chunk, plans)
        _absorb_plans(plans, k, stats, feasible)
    return True


def _enumerate_mergings(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    matrices: IncrementalArcMatrices,
    pruning: PruningLevel,
    max_arity: Optional[int],
    stats: GenerationStats,
    feasible: List[MergingPlan],
    polish_placement: bool = True,
    tracker: Optional[BudgetTracker] = None,
    journal: Optional[CheckpointJournal] = None,
) -> None:
    """The main loop of Figure 2: increasing K, shrinking active set.

    Each arity runs a vectorized pruning pass (:func:`_prune_arity`) and
    solves every survivor's placement (:func:`_plan_arity`).  The loop
    ends after the first arity without survivors.  Theorem 3.1
    retirement then physically removes every arc in no surviving subset
    (:meth:`~repro.core.matrices.IncrementalArcMatrices.remove_arcs` —
    exact entry copies, no recomputation), so later arities gather from
    ever-smaller matrices.  Appends the feasible plans to ``feasible``,
    unweighted and unfiltered (the journal records them raw; admission
    runs on the result).  On :class:`BudgetExceeded` from a checkpoint
    the enumeration stops and keeps the plans built so far (anytime
    behavior); ``stats.budget_truncated`` records the cut.  The
    :data:`MAX_ENUMERATED_SUBSETS` valve raises
    :class:`~repro.core.exceptions.EnumerationLimitError`, and
    ``feasible`` then holds every arity below it.
    """
    tracker = tracker if tracker is not None else as_tracker(None)
    tracer = current_tracer()
    n = matrices.size
    top = n if max_arity is None else min(max_arity, n)
    max_bw = library.max_link_bandwidth()
    prev_survivors: Set[FrozenSet[str]] = set()

    for k in range(2, top + 1):
        if matrices.size < k:
            break
        view = matrices.view()
        names = view.arc_names
        with tracer.span("candidates.arity", k=k, active=view.size) as arity_span:
            with tracer.span("candidates.prune", k=k):
                survivors_k = _prune_arity(
                    view, k, pruning, prev_survivors, max_bw, stats, tracker
                )
            if survivors_k is None:
                arity_span.set("budget_truncated", True)
                break

            stats.pruning_survivors_by_k[k] = len(survivors_k)
            arity_span.set("pruning_survivors", len(survivors_k))
            stats.survivors_by_k[k] = 0
            if not survivors_k:
                break
            with tracer.span("candidates.plan", k=k, survivors=len(survivors_k)):
                completed = _plan_arity(
                    graph, library, names, survivors_k, k, stats, feasible,
                    tracker, polish_placement, journal=journal,
                )
            arity_span.set("generated", stats.survivors_by_k[k])
            if not completed:
                arity_span.set("budget_truncated", True)
                break

            # Theorem 3.1: arcs in no K-way merging leave the Γ matrix
            # (row/column deletion — an incremental update, not a
            # recomputation).
            in_some = {i for subset in survivors_k for i in subset}
            retired = [names[i] for i in range(view.size) if i not in in_some]
            for name in retired:
                stats.retired_at_k[name] = k
                tracer.count("candidates.retired.theorem_3_1")
            matrices.remove_arcs(retired)
            prev_survivors = {
                frozenset(names[i] for i in s) for s in survivors_k
            }
