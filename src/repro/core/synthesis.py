"""End-to-end constraint-driven communication synthesis.

:func:`synthesize` chains the paper's two steps:

1. candidate generation (:mod:`repro.core.candidates` — Figure 2);
2. global selection as a weighted Unate Covering Problem
   (:mod:`repro.covering` — rows are constraint arcs, columns the
   candidates, weights the candidate costs);

then materializes the selected candidates into a single
:class:`~repro.core.implementation.ImplementationGraph`, validates it
against Definition 2.4, and returns everything a caller could want to
inspect in a :class:`SynthesisResult`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # circular at runtime: decompose builds on this module
    from .decompose import DecompositionReport

from ..covering.bnb import greedy_cover, solve_cover
from ..covering.ilp import solve_ilp
from ..covering.matrix import Column, CoverSolution, CoveringProblem
from ..covering.reductions import screen_dominated
from ..obs import NULL_TRACER, Tracer, current_tracer, tracing
from ..runtime.budget import Budget, BudgetTracker, as_tracker
from ..runtime.checkpoint import CheckpointJournal, instance_fingerprint
from ..runtime.faults import fault_point
from ..runtime.report import DegradationReport, ResultQuality, StageAttempt
from .candidates import Candidate, CandidateSet, PruningLevel, generate_candidates
from .constraint_graph import ConstraintGraph
from .exceptions import BudgetExceeded, CoveringError, InfeasibleError, SynthesisError
from .implementation import ImplementationGraph, Path
from .library import CommunicationLibrary
from .merging import materialize_merging
from .mixed_segmentation import materialize_mixed_chain
from .point_to_point import materialize_plan
from .validation import validate

__all__ = [
    "AUTO_EXACT_MAX_ARCS",
    "STRATEGIES",
    "SynthesisOptions",
    "SynthesisResult",
    "build_covering_problem",
    "materialize_selection",
    "resolve_strategy",
    "synthesize",
]

#: the recognised values of ``SynthesisOptions.strategy``.
STRATEGIES = ("auto", "exact", "decompose")

#: the exact covering engines; a budgeted chain runs the one the cover's
#: width picks, then the other.
_EXACT_ENGINES = ("bnb", "ilp")

#: screened covers with at least this many columns go to HiGHS
#: (``"ilp"``), narrower ones to the native B&B (``"bnb"``).  The screen
#: leaves the measured workloads no tied optimum, so both engines serve
#: the same labels and the cutover only sets speed.  On screened covers
#: (2-core x86, scipy 1.17): batch-warm's 50 are 8-28 columns, bnb 12 ms
#: a cover on average and HiGHS 13 ms; the 12-arc
#: ``clustered_graph(2 x 5 ports, seeds 2000-2009)`` covers are 18-56
#: columns, bnb 3-125 ms and HiGHS 6-34 ms; decompose300's blocks are
#: 314-765 columns, HiGHS 21-109 ms a block, and bnb finishes none of
#: them in 10 s.  The conformance covers stay below the cutover (the
#: widest, allgather, screens from 170 to 50 columns).
ILP_CUTOVER_COLUMNS = 192

#: ``strategy="auto"`` keeps exhaustive enumeration up to this many
#: arcs — the paper-scale regime, where exactness is cheap and every
#: historical result stays byte-identical — and certified cluster
#: decomposition above it.
AUTO_EXACT_MAX_ARCS = 16


def resolve_strategy(strategy: str, n_arcs: int) -> str:
    """The concrete strategy a run will use (resolves ``"auto"``)."""
    if strategy != "auto":
        return strategy
    return "exact" if n_arcs <= AUTO_EXACT_MAX_ARCS else "decompose"


@dataclass(frozen=True)
class SynthesisOptions:
    """Configuration for one synthesis run.

    The global step's engine is not an option: every driver's cover
    goes through :func:`_budgeted_cover`, which picks it from the
    screened cover's width.  ``validate_result`` runs the full
    Definition 2.4 validator on the final graph (on by default — it is
    cheap at paper scales and catches construction bugs loudly).
    """

    pruning: PruningLevel = PruningLevel.LEMMAS
    max_arity: Optional[int] = None
    #: also consider heterogeneous (mixed-link-type) chains per arc.
    heterogeneous: bool = False
    #: drop merging candidates whose worst path exceeds this many
    #: communication vertices (latency constraint; None = unconstrained).
    max_merge_hops: Optional[int] = None
    #: refine merge-point placement with Nelder-Mead on nonlinear cost
    #: surfaces (True, default) or accept the linear-surrogate placement
    #: (False — much faster on floor-style SoC costs, small quality risk).
    polish_placement: bool = True
    #: weighted multi-objective knob: add ``hop_penalty x worst-path
    #: hops`` to every candidate's weight.  total_cost then reports the
    #: penalized objective; implementation.cost() stays monetary.
    hop_penalty: float = 0.0
    validate_result: bool = True
    #: budgeted runs only: on budget exhaustion either serve the best
    #: incumbent with an honest quality tag (``"degrade"``, default) or
    #: raise :class:`~repro.core.exceptions.BudgetExceeded` (``"fail"``).
    on_budget_exhausted: str = "degrade"
    #: crash tolerance: path of a checkpoint journal
    #: (:class:`~repro.runtime.checkpoint.CheckpointJournal`).  Completed
    #: planning chunks, covering incumbents and the final cover are
    #: durably recorded as the run progresses, so a killed run loses at
    #: most one in-flight work unit.  ``None`` (default) = no journal.
    checkpoint_path: Optional[str] = None
    #: with ``checkpoint_path``: resume from an existing journal instead
    #: of starting it fresh.  The journal's instance fingerprint must
    #: match (graph, library, options) or synthesis raises
    #: :class:`~repro.core.exceptions.CheckpointIncompatibleError`; a
    #: corrupted/truncated journal tail is discarded with a report,
    #: never resumed over.  A resume under a fresh ``budget`` continues
    #: from the journal — completed work is never re-spent.
    resume: bool = False
    #: how to scale: ``"exact"`` enumerates every K-way subset (the
    #: paper's algorithm), ``"decompose"`` partitions the arcs into
    #: certified clusters and synthesizes them independently, and
    #: ``"auto"`` (default) picks by instance size — exact at paper
    #: scale, so small-instance results never change.  See
    #: :mod:`repro.core.decompose` for decompose's guarantees
    #: (``result.decomposition`` reports a certified optimality-gap
    #: bound).
    strategy: str = "auto"
    #: uniform static headroom: synthesize as if every ``b(a)`` were
    #: ``(1 + demand_margin)`` times larger, so the architecture keeps
    #: slack for bursts/overload.  ``0.0`` (default) reproduces the
    #: paper exactly.  The closed loop (:mod:`repro.loop`) instead
    #: tightens arcs *selectively* from simulation feedback and leaves
    #: this at 0 to avoid double-scaling.
    demand_margin: float = 0.0

    def __post_init__(self) -> None:
        """Refuse values no driver can honour, before any work starts."""
        if self.max_arity is not None and self.max_arity < 1:
            raise SynthesisError(
                f"max_arity must be a positive merge size (or None), got {self.max_arity}"
            )
        if self.on_budget_exhausted not in ("degrade", "fail"):
            raise SynthesisError(
                f"unknown on_budget_exhausted {self.on_budget_exhausted!r} "
                f"(use 'degrade' or 'fail')"
            )
        if self.strategy not in STRATEGIES:
            raise SynthesisError(
                f"unknown strategy {self.strategy!r} (use one of {', '.join(STRATEGIES)})"
            )
        if not (self.demand_margin >= 0.0):
            raise SynthesisError(f"demand_margin must be >= 0, got {self.demand_margin}")

    def result_shaping(self) -> Dict[str, Any]:
        """The options that can change *what* a synthesis returns.

        The one list behind every "same answer?" key: checkpoint
        fingerprints, batch resume keys and queue manifests.  Execution
        knobs (``validate_result``, budget policy, checkpointing) are
        left out, so a resume may change them.
        """
        return {
            "pruning": self.pruning.value,
            "max_arity": self.max_arity,
            "heterogeneous": self.heterogeneous,
            "max_merge_hops": self.max_merge_hops,
            "polish_placement": self.polish_placement,
            "hop_penalty": self.hop_penalty,
            "strategy": self.strategy,
            "demand_margin": self.demand_margin,
            # retired options, pinned at the values every journal
            # fingerprint, batch resume key and queue manifest on disk
            # was written with, so those stay valid
            "drop_dominated": False,
            "ucp_solver": "bnb",
            "max_cluster_arcs": None,
        }

    def candidate_args(self, **overrides: Any) -> Dict[str, Any]:
        """The :func:`~repro.core.candidates.generate_candidates`
        arguments these options ask for — the one mapping every driver
        generates through; ``overrides`` replace single entries."""
        args: Dict[str, Any] = {
            "pruning": self.pruning,
            "max_arity": self.max_arity,
            "heterogeneous": self.heterogeneous,
            "max_merge_hops": self.max_merge_hops,
            "polish_placement": self.polish_placement,
            "hop_penalty": self.hop_penalty,
        }
        args.update(overrides)
        return args


@dataclass
class SynthesisResult:
    """Everything produced by one synthesis run."""

    implementation: ImplementationGraph
    selected: List[Candidate]
    total_cost: float
    candidates: CandidateSet
    covering: CoveringProblem
    cover: CoverSolution
    #: cost of the optimum point-to-point implementation graph
    #: (Definition 2.6) — the no-merging baseline, for the savings ratio.
    point_to_point_cost: float
    elapsed_seconds: float
    #: audit trail of the supervised run (None for unbudgeted runs):
    #: which fallback stages ran, and how trustworthy the result is
    #: (``optimal`` / ``feasible_suboptimal`` / ``degraded_greedy``).
    degradation: Optional[DegradationReport] = None
    #: the observability tracer of the run (None unless ``trace`` was
    #: requested): spans, counters and gauges, exportable via
    #: :mod:`repro.obs` (text summary, JSON metrics, Chrome trace).
    trace: Optional[Tracer] = None
    #: what the decompose strategy did (None for exact runs): cluster
    #: sizes and the certified optimality-gap bound.
    #: See :class:`~repro.core.decompose.DecompositionReport`.
    decomposition: Optional["DecompositionReport"] = None

    @property
    def savings(self) -> float:
        """Absolute cost saved versus the point-to-point baseline."""
        return self.point_to_point_cost - self.total_cost

    @property
    def savings_ratio(self) -> float:
        """Fraction of the baseline cost saved (0 when merging never helps)."""
        if self.point_to_point_cost == 0:
            return 0.0
        return self.savings / self.point_to_point_cost

    @property
    def merged_groups(self) -> List[Sequence[str]]:
        """Arc-name groups implemented by a shared trunk."""
        return [c.arc_names for c in self.selected if c.is_merging]


def build_covering_problem(graph: ConstraintGraph, candidates: CandidateSet) -> CoveringProblem:
    """Rows = constraint arcs, columns = candidates, weights = costs."""
    rows = [a.name for a in graph.arcs]
    columns = [
        Column(name=c.label(), rows=frozenset(c.arc_names), weight=c.cost)
        for c in candidates.all
    ]
    return CoveringProblem(rows, columns)


def materialize_selection(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    selected: Sequence[Candidate],
    name: str = "implementation",
) -> ImplementationGraph:
    """Build one implementation graph realizing every selected candidate.

    When selections overlap on an arc (legal in unate covering, if
    rarely optimal) the arc's path sets are unioned.
    """
    impl = ImplementationGraph(library=library, norm=graph.norm, name=name)
    for port in graph.ports:
        impl.add_computational_vertex(port)

    paths_by_arc: Dict[str, List[Path]] = {}
    for candidate in selected:
        if candidate.is_merging:
            produced = materialize_merging(impl, graph, candidate.plan)
            for arc_name, paths in produced.items():
                paths_by_arc.setdefault(arc_name, []).extend(paths)
        elif candidate.is_mixed_chain:
            (arc_name,) = candidate.arc_names
            arc = graph.arc(arc_name)
            paths = materialize_mixed_chain(
                impl, candidate.plan, arc.source.name, arc.target.name
            )
            paths_by_arc.setdefault(arc_name, []).extend(paths)
        else:
            (arc_name,) = candidate.arc_names
            arc = graph.arc(arc_name)
            paths = materialize_plan(impl, candidate.plan, arc.source.name, arc.target.name)
            paths_by_arc.setdefault(arc_name, []).extend(paths)

    for arc_name, paths in paths_by_arc.items():
        impl.set_arc_implementation(arc_name, paths)
    return impl


def synthesize(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: Optional[SynthesisOptions] = None,
    budget: Union[Budget, BudgetTracker, None] = None,
    trace: Union[bool, Tracer] = False,
) -> SynthesisResult:
    """Solve Problem 2.1 exactly for ``graph`` over ``library``.

    Returns the minimum-cost implementation graph together with the
    intermediate artifacts (candidate set, covering instance, cover).
    Raises :class:`~repro.core.exceptions.InfeasibleError` when some arc
    has no implementation, :class:`SynthesisError` on an empty graph
    (:class:`SynthesisOptions` refuses bad option values when built).

    With a ``budget`` the run is *supervised*: every hot loop gains
    cooperative checkpoints against the wall-clock/node budget, and the
    covering step runs the anytime fallback chain of
    :func:`_budgeted_cover` (the exact engine the screened cover's
    width picks, the other one, then greedy).  On budget exhaustion the
    best feasible cover is returned — never an exception, as long as
    one exists and ``options.on_budget_exhausted`` is ``"degrade"`` —
    with ``result.degradation`` recording what happened and how
    trustworthy the answer is.

    ``trace`` turns on the observability layer (:mod:`repro.obs`):
    ``True`` creates a fresh :class:`~repro.obs.Tracer`, or pass your
    own to accumulate across runs.  The tracer rides along on
    ``result.trace`` with hierarchical spans, pipeline counters and
    gauges; disabled (the default) every instrumentation point is a
    single no-op call.
    """
    options = options or SynthesisOptions()
    if len(graph) == 0:
        raise SynthesisError("constraint graph has no arcs — nothing to synthesize")
    library.validate()

    if trace is True:
        tracer: Optional[Tracer] = Tracer(label=f"synthesize:{graph.name}")
    elif trace is False or trace is None:
        # honour an ambient tracer installed via ``with tracing(...)``
        ambient = current_tracer()
        tracer = ambient if ambient is not NULL_TRACER else None
    else:
        tracer = trace

    if tracer is None:
        return _synthesize_traced(graph, library, options, budget)
    with tracing(tracer):
        result = _synthesize_traced(graph, library, options, budget)
    result.trace = tracer
    return result


def _replay_solution(
    journal: Optional[CheckpointJournal], covering: CoveringProblem
) -> Optional[CoverSolution]:
    """The journal's recorded final cover, iff it was served optimal and
    still solves ``covering``.

    A degraded cover (a partial, greedy's, or one over truncated
    candidates) is not replayed: the solve re-runs instead, and bnb
    seeds from the journal's best incumbent.  The instance fingerprint
    already guarantees the same candidate universe; the feasibility
    re-check means a hand-edited or stale record degrades to a normal
    solve instead of poisoning the result.
    """
    if journal is None or journal.solution is None:
        return None
    recorded = journal.solution
    if not recorded.optimal or recorded.quality not in (None, ResultQuality.OPTIMAL.value):
        return None
    candidate = CoverSolution(
        column_names=recorded.column_names,
        weight=recorded.weight,
        optimal=recorded.optimal,
        stats={"replayed": 1},
    )
    try:
        covering.check_solution(candidate)
    except CoveringError:
        return None
    return candidate


def _replayed_report(journal: CheckpointJournal, tracker: BudgetTracker) -> DegradationReport:
    """Audit trail for a supervised run served from the journal's
    optimal cover (:func:`_replay_solution` replays no other)."""
    assert journal.solution is not None
    stage = journal.solution.source_stage or "journal"
    return DegradationReport(
        quality=ResultQuality.OPTIMAL,
        source_stage=stage,
        attempts=[StageAttempt(stage, "replayed", detail="checkpoint journal")],
        deadline_s=tracker.budget.deadline_s,
        nodes_used=tracker.nodes_used,
    )


def _synthesize_traced(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    budget: Union[Budget, BudgetTracker, None],
) -> SynthesisResult:
    tracer = current_tracer()
    start = time.perf_counter()
    journal: Optional[CheckpointJournal] = None
    if options.checkpoint_path is not None:
        journal = CheckpointJournal.open(
            options.checkpoint_path,
            instance_fingerprint(graph, library, options),
            resume=options.resume,
        )
        if journal.tail_report is not None:
            tracer.count("checkpoint.tail_discarded")
    try:
        return _synthesize_journaled(graph, library, options, budget, journal, start)
    finally:
        if journal is not None:
            journal.close()


def _synthesize_journaled(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    budget: Union[Budget, BudgetTracker, None],
    journal: Optional[CheckpointJournal],
    start: float,
) -> SynthesisResult:
    tracer = current_tracer()
    if options.demand_margin:
        # every strategy below sees only the inflated demands; the
        # fingerprint was taken over the original graph + options (which
        # include the margin), so journals stay consistent either way.
        graph = graph.with_scaled_bandwidths(1.0 + options.demand_margin)
    strategy = resolve_strategy(options.strategy, len(graph))
    with tracer.span(
        "synthesize",
        graph=graph.name,
        arcs=len(graph),
        strategy=strategy,
    ) as root_span:
        tracker = as_tracker(budget) if budget is not None else None
        if strategy == "exact":
            result = _synthesize_exact(graph, library, options, tracker, journal, start)
        else:
            # imported lazily: decompose builds on this module's types
            from .decompose import synthesize_decomposed

            result = synthesize_decomposed(graph, library, options, tracker, journal, start)
        root_span.set("total_cost", result.total_cost)
        return result


def _synthesize_exact(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    tracker: Optional[BudgetTracker],
    journal: Optional[CheckpointJournal],
    start: float,
) -> SynthesisResult:
    """The paper's pipeline: every pruning survivor planned, then one
    covering solve — supervised through the fallback chain under a
    budget, by the width-picked engine alone without one."""
    tracer = current_tracer()
    candidates = generate_candidates(
        graph, library, **options.candidate_args(), budget=tracker, journal=journal
    )

    def solve(
        covering: CoveringProblem, replayed: Optional[CoverSolution]
    ) -> Tuple[CoverSolution, Optional[DegradationReport]]:
        with tracer.span("covering.solve", supervised=tracker is not None):
            if replayed is not None:
                if tracker is None:
                    return replayed, None
                assert journal is not None
                return replayed, _replayed_report(journal, tracker)
            return _budgeted_cover(
                covering, tracker, options.on_budget_exhausted,
                candidate_set_complete=not candidates.stats.budget_truncated,
                journal=journal,
            )

    return _cover_and_assemble(graph, library, options, candidates, solve, start, journal)


def _stage_cover(
    stage: str,
    problem: CoveringProblem,
    tracker: Optional[BudgetTracker],
    journal: Optional[CheckpointJournal],
) -> CoverSolution:
    """One stage's cover.  The engines are module globals looked up per
    call, so a wrapped ``solve_cover``/``solve_ilp`` sees every solve."""
    if stage == "bnb":
        return solve_cover(problem, budget=tracker, journal=journal)
    if stage == "ilp":
        return solve_ilp(problem, budget=tracker, journal=journal)
    return greedy_cover(problem)  # one linear pass, never budgeted


def _run_stage(
    stage: str,
    problem: CoveringProblem,
    tracker: Optional[BudgetTracker],
    journal: Optional[CheckpointJournal],
    attempts: List[StageAttempt],
) -> Tuple[Optional[CoverSolution], Optional[CoverSolution]]:
    """Run one chain stage and record it; returns ``(cover, partial)``.

    ``cover`` is set when the stage completed; ``partial`` is the
    incumbent a stage interrupted by its budget left behind.  Any other
    :class:`SynthesisError` just ends the stage; infeasibility raises.
    """
    tracer = current_tracer()
    tracer.count("supervisor.attempts")
    t0 = time.perf_counter()
    cover: Optional[CoverSolution] = None
    partial: Optional[CoverSolution] = None
    detail = ""
    with tracer.span(f"supervisor.{stage}") as span:
        try:
            fault_point(f"supervisor.{stage}")
            cover = _stage_cover(stage, problem, tracker, journal)
            outcome = "completed"
        except BudgetExceeded as exc:
            outcome, detail, partial = "budget_exceeded", str(exc), exc.partial
        except InfeasibleError:
            span.set("outcome", "infeasible")
            raise  # no budget can fix a truly infeasible instance
        except SynthesisError as exc:
            outcome, detail = "error", str(exc)
        span.set("outcome", outcome)
    tracer.count(f"supervisor.attempts.{outcome}")
    attempts.append(StageAttempt(stage, outcome, time.perf_counter() - t0, detail))
    return cover, partial


def _budgeted_cover(
    problem: CoveringProblem,
    tracker: Optional[BudgetTracker],
    on_budget_exhausted: str = "degrade",
    candidate_set_complete: bool = True,
    journal: Optional[CheckpointJournal] = None,
) -> Tuple[CoverSolution, Optional[DegradationReport]]:
    """The one covering solve of every driver, under its budget policy.

    ``problem`` is screened once
    (:func:`~repro.covering.reductions.screen_dominated`, counted in
    ``covering.columns_screened``) and every stage solves the screened
    cover, whose columns all belong to ``problem``.  The primary exact
    engine follows from the screened width: ``"ilp"`` from
    :data:`ILP_CUTOVER_COLUMNS` columns on, ``"bnb"`` below.

    Without a ``tracker``, the primary engine runs alone, its errors
    propagate, and there is no report.

    With one, the chain is the primary on half the remaining time, then
    the other exact engine on the rest; an exact stage is skipped once
    the deadline has passed.  A stage stopped by the budget leaves its
    ``.partial`` cover, any other :class:`SynthesisError` just ends it.
    When no exact engine completed, :func:`~repro.covering.bnb.greedy_cover`
    runs without the budget (one linear pass, so the deadline can be
    overshot by that much) and the cheapest of the partials and greedy's
    cover is served, a partial on a tie.  Tags: ``optimal`` for a
    completed exact engine (``feasible_suboptimal`` when
    ``candidate_set_complete`` is False), ``feasible_suboptimal`` for a
    partial, ``degraded_greedy`` for greedy.

    Raises :class:`BudgetExceeded` when no stage left a cover, and under
    ``on_budget_exhausted="fail"`` whenever the tag is not ``optimal``
    (the served cover rides along as ``.partial``).  Each stage runs in
    a ``supervisor.<stage>`` span behind a fault site of the same name.
    """
    screened = screen_dominated(problem)
    current_tracer().count("covering.columns_screened", problem.n_columns - screened.n_columns)
    problem = screened
    primary = "ilp" if problem.n_columns >= ILP_CUTOVER_COLUMNS else "bnb"
    if tracker is None:
        return _stage_cover(primary, problem, None, journal), None
    problem.validate_coverable()  # infeasibility is not a degradation case
    attempts: List[StageAttempt] = []
    partials: List[Tuple[CoverSolution, str]] = []
    cover: Optional[CoverSolution] = None
    source = ""
    chain = [primary] + [e for e in _EXACT_ENGINES if e != primary]
    for stage, share in zip(chain, (0.5, 1.0)):
        if tracker.expired():
            attempts.append(StageAttempt(stage, "skipped", detail="global deadline exhausted"))
            current_tracer().count("supervisor.stages.skipped")
            continue
        cover, partial = _run_stage(stage, problem, tracker.stage(share), journal, attempts)
        if cover is not None:
            source = stage
            break
        if partial is not None:
            partials.append((partial, f"{stage}-partial"))

    if cover is not None:
        quality = (
            ResultQuality.OPTIMAL if candidate_set_complete else ResultQuality.FEASIBLE_SUBOPTIMAL
        )
    else:
        greedy, _ = _run_stage("greedy", problem, None, None, attempts)
        if greedy is not None:
            partials.append((greedy, "greedy"))
        if not partials:
            raise BudgetExceeded(
                "every fallback stage failed and no feasible cover was found "
                f"[{'; '.join(f'{a.stage}:{a.outcome}' for a in attempts)}]",
                reason="deadline" if tracker.expired() else "stages",
            )
        # min keeps the first of equal weights: partials precede greedy
        cover, source = min(partials, key=lambda p: p[0].weight)
        quality = (
            ResultQuality.DEGRADED_GREEDY
            if source == "greedy"
            else ResultQuality.FEASIBLE_SUBOPTIMAL
        )

    report = DegradationReport(
        quality=quality,
        source_stage=source,
        attempts=attempts,
        budget_exhausted=tracker.expired(),
        candidate_generation_truncated=not candidate_set_complete,
        deadline_s=tracker.budget.deadline_s,
        elapsed_s=tracker.elapsed_s(),
        nodes_used=tracker.nodes_used,
    )
    _fail_unless_optimal(report, cover, tracker, on_budget_exhausted)
    return cover, report


def _fail_unless_optimal(
    report: DegradationReport,
    cover: CoverSolution,
    tracker: BudgetTracker,
    on_budget_exhausted: str,
) -> None:
    """Under ``on_budget_exhausted="fail"``, raise :class:`BudgetExceeded`
    for any tag but ``optimal``, with the served cover as ``.partial``."""
    if on_budget_exhausted == "fail" and report.quality is not ResultQuality.OPTIMAL:
        raise BudgetExceeded(
            f"budget exhausted before an optimal result (best available: "
            f"{report.quality.value} from {report.source_stage}, weight {cover.weight:g})",
            reason="deadline" if tracker.expired() else "degraded",
            partial=cover,
        )


def _cover_and_assemble(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    candidates: CandidateSet,
    solve: Callable[
        [CoveringProblem, Optional[CoverSolution]],
        Tuple[CoverSolution, Optional[DegradationReport]],
    ],
    start: float,
    journal: Optional[CheckpointJournal] = None,
    decomposition: Optional["DecompositionReport"] = None,
) -> SynthesisResult:
    """The tail every synthesis driver returns through.

    Builds the covering instance over ``candidates``, hands it to the
    driver's ``solve(covering, replayed)`` — its budget policy, which
    returns ``(cover, report)`` and serves ``replayed``, the journal's
    still-valid optimal cover, instead of solving when there is one —
    journals the final cover, then selects by label,
    materializes, validates and assembles the :class:`SynthesisResult`.
    ``total_cost`` is the ``math.fsum`` of the selected weights:
    correctly rounded, so independent of the order a covering solver
    summed them in (bnb's running sum follows string-hash order).
    """
    tracer = current_tracer()
    with tracer.span("covering.build"):
        covering = build_covering_problem(graph, candidates)
    tracer.gauge("covering.rows", covering.n_rows)
    tracer.gauge("covering.columns", covering.n_columns)

    replayed = _replay_solution(journal, covering)
    if replayed is not None:
        tracer.count("checkpoint.solution_replayed")
    cover, report = solve(covering, replayed)
    if journal is not None and replayed is None:
        if report is not None:
            stage = report.source_stage
        elif decomposition is not None:
            stage = decomposition.strategy
        else:
            stage = cover.engine
        journal.record_solution(
            stage=stage,
            column_names=cover.column_names,
            weight=cover.weight,
            optimal=cover.optimal,
            quality=report.quality.value if report is not None else None,
        )

    by_label = {c.label(): c for c in candidates.all}
    selected = [by_label[name] for name in cover.column_names]
    tracer.count("synthesis.selected", len(selected))
    with tracer.span("materialize", selected=len(selected)):
        impl = materialize_selection(graph, library, selected, name=f"{graph.name}-impl")
    if options.validate_result:
        with tracer.span("validate"):
            validate(impl, graph)

    elapsed = time.perf_counter() - start
    if report is not None:
        report.elapsed_s = elapsed  # account materialization + validation too
        report.chunks_replayed = candidates.stats.chunks_replayed
    return SynthesisResult(
        implementation=impl,
        selected=selected,
        total_cost=math.fsum(c.cost for c in selected),
        candidates=candidates,
        covering=covering,
        cover=cover,
        point_to_point_cost=sum(c.cost for c in candidates.point_to_point),
        elapsed_seconds=elapsed,
        degradation=report,
        decomposition=decomposition,
    )
