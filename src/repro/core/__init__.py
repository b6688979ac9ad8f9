"""Core of the constraint-driven communication synthesis library.

Re-exports the model types (constraint graph, library, implementation
graph), the paper's algorithm pieces (point-to-point synthesis, Γ/Δ
matrices, pruning lemmas, candidate generation, merging construction)
and the end-to-end :func:`~repro.core.synthesis.synthesize` driver.
"""

from .cache import (
    CacheStats,
    PersistentCache,
    current_persistent_cache,
    library_fingerprint,
    persistent_cache,
)
from .candidates import Candidate, CandidateSet, GenerationStats, PruningLevel, generate_candidates
from .constraint_graph import Arc, ConstraintGraph, Port
from .exceptions import (
    AssumptionViolation,
    BudgetExceeded,
    CheckpointError,
    CheckpointIncompatibleError,
    CoveringError,
    InfeasibleError,
    InstanceFormatError,
    LibraryError,
    ModelError,
    SynthesisError,
    ValidationError,
)
from .geometry import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    ChebyshevNorm,
    EuclideanNorm,
    ManhattanNorm,
    MinkowskiNorm,
    Norm,
    Point,
)
from .audit import AuditReport, audit_result
from .incremental import IncrementalSynthesizer
from .implementation import (
    ArcImplementationKind,
    ImplArc,
    ImplementationGraph,
    ImplVertex,
    Path,
    classify_arc_implementation,
    shared_arc_groups,
)
from .library import CommunicationLibrary, Link, NodeKind, NodeSpec
from .matrices import ArcMatrices, compute_delta, compute_gamma, compute_matrices
from .merging import MergingPlan, build_merging_plan, materialize_merging
from .mixed_segmentation import MixedChainPlan, best_mixed_segmentation
from .mux_trees import merge_node_overhead, tree_node_count
from .placement import PlacementResult, StageCost, optimize_two_points, weiszfeld
from .point_to_point import (
    PointToPointPlan,
    best_point_to_point,
    check_assumption,
    materialize_plan,
    point_to_point_cost,
)
from .pruning import (
    lemma_3_1_not_mergeable,
    lemma_3_2_not_mergeable,
    subset_pruned,
    theorem_3_2_not_mergeable,
)
from .synthesis import (
    STRATEGIES,
    SynthesisOptions,
    SynthesisResult,
    build_covering_problem,
    materialize_selection,
    resolve_strategy,
    synthesize,
)

# must follow .synthesis: decompose builds on its types at import time
from .decompose import (
    DecompositionReport,
    certified_partition,
    synthesize_decomposed,
)
from .validation import validate, validate_bandwidth, validate_capacity, validate_structure

__all__ = [name for name in dir() if not name.startswith("_")]
