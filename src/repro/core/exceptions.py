"""Exception hierarchy for the communication-synthesis library.

Every error deliberately raised by this package derives from
:class:`SynthesisError`, so callers can catch the whole family with one
``except`` clause while still distinguishing the common cases.
"""

from __future__ import annotations

__all__ = [
    "SynthesisError",
    "ModelError",
    "InstanceFormatError",
    "LibraryError",
    "AssumptionViolation",
    "InfeasibleError",
    "EnumerationLimitError",
    "ValidationError",
    "CoveringError",
    "BudgetExceeded",
    "CheckpointError",
    "CheckpointIncompatibleError",
    "BatchError",
]


class SynthesisError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(SynthesisError):
    """An input model (constraint graph, ports, arcs) is malformed —
    e.g. an arc length inconsistent with its endpoint positions."""


class InstanceFormatError(ModelError):
    """An on-disk instance or library document is malformed — a missing
    key, a wrong type, or unparseable JSON.

    ``field`` is the dotted path of the offending field within the
    document (e.g. ``constraint_graph.arcs[3].bandwidth``), or ``""``
    when the failure predates field navigation (invalid JSON, wrong
    top-level type).  The CLI maps this family to exit code 5 with a
    one-line diagnostic instead of a traceback.
    """

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field


class LibraryError(SynthesisError):
    """A communication library is malformed (negative costs, empty,
    links with nonpositive bandwidth, ...)."""


class AssumptionViolation(SynthesisError):
    """Assumption 2.1 of the paper does not hold for the given library
    and constraint graph, so the exact algorithm's pruning lemmas are
    not guaranteed sound."""


class InfeasibleError(SynthesisError):
    """No implementation exists — the library cannot realize some arc
    (e.g. every link's bandwidth is below the constraint and duplication
    is disabled)."""


class EnumerationLimitError(InfeasibleError):
    """Candidate enumeration would pass its subset ceiling
    (``repro.core.candidates.MAX_ENUMERATED_SUBSETS``) — a loud refusal
    instead of an open-ended hang.  ``arity`` is the merge size K whose
    subsets would pass it; every lower arity finished.

    ``partial`` carries the admitted ``CandidateSet`` of those lower
    arities, just as :class:`BudgetExceeded` carries its incumbent —
    callers that accept a capped universe serve it instead of
    regenerating.
    """

    def __init__(self, message: str, arity: int, partial=None) -> None:
        super().__init__(message)
        self.arity = arity
        self.partial = partial

    def __reduce__(self):  # pickles across pool workers with its fields
        return type(self), (str(self), self.arity, self.partial)


class ValidationError(SynthesisError):
    """An implementation graph fails the Definition 2.4 checks."""


class CoveringError(SynthesisError):
    """A covering-problem instance is malformed or unsolvable (a row
    with no covering column)."""


class BudgetExceeded(CoveringError):
    """A wall-clock deadline or node budget ran out before the solver
    finished.

    ``partial`` carries the best *feasible* solution found before the
    budget expired (a ``CoverSolution`` with ``optimal=False``), or
    ``None`` when no incumbent existed yet — callers that prefer a
    degraded answer over a failure inspect it instead of re-raising.
    ``reason`` distinguishes ``"deadline"`` from ``"nodes"`` exhaustion
    (fault injection uses ``"injected-..."`` variants).
    """

    def __init__(self, message: str, reason: str = "deadline", partial=None) -> None:
        super().__init__(message)
        self.reason = reason
        self.partial = partial


class CheckpointError(SynthesisError):
    """A checkpoint journal cannot be used at all — the file is not a
    journal (unreadable or corrupted header), or a record being written
    cannot be serialized.  Distinct from a corrupted *tail*, which is
    detected, reported and discarded without raising."""


class CheckpointIncompatibleError(CheckpointError):
    """A checkpoint journal belongs to a different instance: its header
    fingerprint does not match the (graph, library, options) being
    resumed.  Resuming would silently poison the result, so this is a
    hard error (CLI exit code 6)."""

    def __init__(self, message: str, expected: str = "", found: str = "") -> None:
        super().__init__(message)
        self.expected = expected
        self.found = found


class BatchError(SynthesisError):
    """A corpus-scale batch run is unusable as *invoked* — a ``--resume``
    pointing at a missing results stream, a work-queue directory with no
    (or an incompatible) manifest, a merge over an incomplete queue.
    Always an invocation/environment problem, never a failing instance:
    per-instance failures are contained as ``"failed"`` records and
    reported through :class:`~repro.batch.BatchSummary`.  The CLI maps
    this family to exit code 5 with a one-line diagnostic naming the
    offending path."""
