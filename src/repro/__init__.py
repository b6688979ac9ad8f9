"""repro — Constraint-Driven Communication Synthesis (DAC 2002).

A complete reimplementation of Pinto, Carloni and
Sangiovanni-Vincentelli's constraint-driven communication synthesis:
constraint graphs, communication libraries, the candidate-generation
algorithm with its pruning theory (Lemmas 3.1/3.2, Theorems 3.1/3.2),
merge-point placement, an exact weighted-unate-covering substrate, and
the domain instances (WAN, LAN, on-chip, MPEG-4 decoder) used to
regenerate the paper's tables and figures.

Quickstart::

    from repro import synthesize
    from repro.domains import wan_example

    graph, library = wan_example()
    result = synthesize(graph, library)
    print(result.total_cost, result.merged_groups)
"""

from .core import (  # noqa: F401
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    Arc,
    ArcImplementationKind,
    ArcMatrices,
    AssumptionViolation,
    BudgetExceeded,
    CheckpointError,
    CheckpointIncompatibleError,
    InstanceFormatError,
    AuditReport,
    audit_result,
    Candidate,
    CandidateSet,
    CommunicationLibrary,
    ConstraintGraph,
    DecompositionReport,
    GenerationStats,
    ImplArc,
    ImplementationGraph,
    ImplVertex,
    IncrementalSynthesizer,
    InfeasibleError,
    LibraryError,
    Link,
    MergingPlan,
    ModelError,
    NodeKind,
    NodeSpec,
    Path,
    PlacementResult,
    Point,
    PointToPointPlan,
    Port,
    PruningLevel,
    SynthesisError,
    SynthesisOptions,
    SynthesisResult,
    ValidationError,
    MixedChainPlan,
    best_mixed_segmentation,
    best_point_to_point,
    build_covering_problem,
    build_merging_plan,
    check_assumption,
    classify_arc_implementation,
    merge_node_overhead,
    shared_arc_groups,
    tree_node_count,
    compute_delta,
    compute_gamma,
    compute_matrices,
    generate_candidates,
    materialize_plan,
    materialize_selection,
    point_to_point_cost,
    resolve_strategy,
    synthesize,
    validate,
    CacheStats,
    PersistentCache,
    current_persistent_cache,
    library_fingerprint,
    persistent_cache,
)
from .batch import (  # noqa: F401
    BatchSummary,
    InstanceRef,
    discover_corpus,
    run_batch,
)
from .covering import (  # noqa: F401
    Column,
    CoveringProblem,
    CoverSolution,
    SolverOptions,
    greedy_cover,
    solve_cover,
    solve_exhaustive,
    solve_ilp,
)
from .obs import (  # noqa: F401
    NullTracer,
    Tracer,
    current_tracer,
    format_trace_summary,
    metrics_dict,
    to_chrome_trace,
    tracing,
    write_chrome_trace,
)
from .runtime import (  # noqa: F401
    Budget,
    BudgetTracker,
    CheckpointJournal,
    DegradationReport,
    FaultInjector,
    FaultSpec,
    ResultQuality,
    StageAttempt,
    WorkerCrashFault,
    instance_fingerprint,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
