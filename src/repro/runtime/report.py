"""Result-quality taxonomy and the degradation report.

A supervised run never dies without an answer if any feasible incumbent
exists — but then the caller must know *what kind* of answer it got.
:class:`ResultQuality` is the three-level tag, :class:`DegradationReport`
the full audit trail (every stage run, its outcome and timing)
attached to :class:`~repro.core.synthesis.SynthesisResult`.

Serving guidance: every quality level is Definition 2.4-validated and
therefore *functionally* safe to serve; ``optimal`` is the exact paper
result, ``feasible_suboptimal`` may overpay but is solver-vetted, and
``degraded_greedy`` should be treated as a stopgap — serve it, but
re-run with a larger budget before committing the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

__all__ = ["ResultQuality", "StageAttempt", "DegradationReport"]


class ResultQuality(Enum):
    """How trustworthy a supervised synthesis result is."""

    #: proved minimum-cost over the complete candidate set.
    OPTIMAL = "optimal"
    #: feasible and solver-improved, but optimality was not proved
    #: (budget ran out mid-search, or the candidate set was truncated).
    FEASIBLE_SUBOPTIMAL = "feasible_suboptimal"
    #: the weight-greedy fallback produced it after every exact stage
    #: failed — valid, but with no quality guarantee at all.
    DEGRADED_GREEDY = "degraded_greedy"


@dataclass(frozen=True)
class StageAttempt:
    """One run of one fallback-chain stage."""

    stage: str  # "bnb" | "ilp" | "greedy" (| "decompose.generate")
    #: "completed" | "budget_exceeded" | "error" | "skipped" | "replayed"
    #: (| "budget-p2p-only" for decompose's generation fallback)
    outcome: str
    elapsed_s: float = 0.0
    detail: str = ""


@dataclass
class DegradationReport:
    """Audit trail of one supervised solve, attached to the result."""

    quality: ResultQuality
    #: stage whose solution is being served ("bnb", "ilp", "greedy",
    #: or "bnb-partial"/"ilp-partial" for budget-interrupted incumbents).
    source_stage: str
    attempts: List[StageAttempt] = field(default_factory=list)
    #: the global budget ran out before the chain finished.
    budget_exhausted: bool = False
    #: candidate generation was cut short by the budget, so even an
    #: "exactly" solved cover may miss the true optimum.
    candidate_generation_truncated: bool = False
    deadline_s: Optional[float] = None
    elapsed_s: float = 0.0
    nodes_used: int = 0
    #: planning chunks replayed from a checkpoint journal (resume runs).
    chunks_replayed: int = 0

    @property
    def degraded(self) -> bool:
        """True unless the result is the proven optimum."""
        return self.quality is not ResultQuality.OPTIMAL

    def summary(self) -> str:
        """One line for CLI reports and logs."""
        chain = " -> ".join(f"{a.stage}:{a.outcome}" for a in self.attempts)
        extra = f" chunks_replayed={self.chunks_replayed}" if self.chunks_replayed else ""
        return (
            f"quality={self.quality.value} via {self.source_stage} "
            f"[{chain}] elapsed={self.elapsed_s:.3f}s nodes={self.nodes_used}{extra}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for result summaries."""
        return {
            "quality": self.quality.value,
            "source_stage": self.source_stage,
            "budget_exhausted": self.budget_exhausted,
            "candidate_generation_truncated": self.candidate_generation_truncated,
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
            "nodes_used": self.nodes_used,
            "chunks_replayed": self.chunks_replayed,
            "attempts": [
                {
                    "stage": a.stage,
                    "outcome": a.outcome,
                    "elapsed_s": a.elapsed_s,
                    "detail": a.detail,
                }
                for a in self.attempts
            ],
        }
