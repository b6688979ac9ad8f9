"""Wall-clock and node budgets with cooperative checkpoints.

The exact algorithm's branch-and-bound has worst-case exponential
blowup, and a production service must never hang forever.  A
:class:`Budget` is the immutable *spec* (deadline, node cap, check
cadence); :meth:`Budget.start` produces the mutable
:class:`BudgetTracker` that hot loops consult:

- :meth:`BudgetTracker.checkpoint` — called once per loop iteration.
  It is cheap (a counter increment plus a fault-injection hook); the
  wall clock is only read on the first call and every ``check_every``
  calls after that, so the deadline can be overshot by at most one
  *checkpoint interval* — ``check_every`` iterations of the enclosing
  loop.
- :meth:`BudgetTracker.charge_node` — checkpoint plus a global
  search-node counter enforcing ``max_nodes`` across all solver stages.
  A solver that searches in one external call (the HiGHS ILP engine)
  takes :meth:`BudgetTracker.nodes_left` as its own node limit and is
  charged afterwards with :meth:`BudgetTracker.add_nodes`.

Both raise :class:`~repro.core.exceptions.BudgetExceeded` when a limit
is hit, which every loop in the pipeline is written to tolerate (the
budgeted covering chain turns it into a degraded-but-feasible answer).

Trackers derived with :meth:`BudgetTracker.stage` implement the
covering chain's per-stage timeouts: the child gets its own (shorter)
deadline but shares the root node counter, so the global budget holds
no matter how stages are sliced.  ``clock`` is injectable for tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..core.exceptions import BudgetExceeded
from .faults import fault_point

__all__ = ["Budget", "BudgetTracker", "as_tracker"]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one synthesis run (immutable spec).

    ``deadline_s`` — wall-clock seconds (None = unlimited);
    ``max_nodes`` — total search nodes across every solver stage
    (None = unlimited); ``check_every`` — checkpoint calls between
    wall-clock reads (the overshoot granularity).
    """

    deadline_s: Optional[float] = None
    max_nodes: Optional[int] = None
    check_every: int = 64

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError(f"deadline_s must be nonnegative, got {self.deadline_s}")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError(f"max_nodes must be positive, got {self.max_nodes}")
        if self.check_every <= 0:
            raise ValueError(f"check_every must be positive, got {self.check_every}")

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetTracker":
        """Begin tracking now (``clock`` is injectable for tests)."""
        return BudgetTracker(self, clock=clock)


class BudgetTracker:
    """Live budget state threaded through the synthesis pipeline."""

    def __init__(
        self,
        budget: Budget,
        clock: Callable[[], float] = time.monotonic,
        _parent: Optional["BudgetTracker"] = None,
    ) -> None:
        self.budget = budget
        self._clock = clock
        self._parent = _parent
        self._t0 = clock()
        self._calls = 0
        self._nodes = 0  # root-only: stages delegate to the root counter

    # ------------------------------------------------------------------
    @property
    def root(self) -> "BudgetTracker":
        """The outermost tracker (owner of the node counter)."""
        node = self
        while node._parent is not None:
            node = node._parent
        return node

    @property
    def nodes_used(self) -> int:
        """Search nodes charged so far (shared across stages)."""
        return self.root._nodes

    def elapsed_s(self) -> float:
        """Seconds since this tracker started."""
        return self._clock() - self._t0

    def remaining_s(self) -> float:
        """Seconds left before this tracker's deadline (inf = no deadline)."""
        if self.budget.deadline_s is None:
            return float("inf")
        return self.budget.deadline_s - self.elapsed_s()

    def expired(self) -> bool:
        """True when this tracker's (or an ancestor's) deadline passed."""
        if self.remaining_s() < 0:
            return True
        return self._parent.expired() if self._parent is not None else False

    # ------------------------------------------------------------------
    def checkpoint(self, site: str = "", force: bool = False) -> None:
        """Cooperative interruption point for hot loops.

        Raises :class:`BudgetExceeded` when the deadline has passed
        (checked on the first and every ``check_every``-th call) or a
        fault is injected at ``site``.  ``force=True`` reads the wall
        clock unconditionally — used at *chunk* boundaries (vectorized
        pruning batches, parallel planning chunks) where one call
        stands in for many loop iterations and the ``check_every``
        cadence would let the deadline slip by whole chunks.
        """
        fault_point(site)
        self._calls += 1
        if (force or (self._calls - 1) % self.budget.check_every == 0) and self.expired():
            raise BudgetExceeded(
                f"deadline of {self.budget.deadline_s}s exceeded at {site or 'checkpoint'} "
                f"(elapsed {self.elapsed_s():.3f}s)",
                reason="deadline",
            )

    def charge_node(self, site: str = "") -> None:
        """Checkpoint plus one unit of the global node budget."""
        root = self.root
        root._nodes += 1
        cap = root.budget.max_nodes
        if cap is not None and root._nodes > cap:
            raise BudgetExceeded(
                f"node budget max_nodes={cap} exhausted at {site or 'node'}",
                reason="nodes",
            )
        self.checkpoint(site)

    def nodes_left(self) -> Optional[int]:
        """Search nodes left in the root budget (None = unlimited)."""
        cap = self.root.budget.max_nodes
        return None if cap is None else cap - self.nodes_used

    def add_nodes(self, count: int) -> None:
        """Charge ``count`` nodes that an external solver searched in one
        call.  Never raises: the solver was limited to :meth:`nodes_left`,
        and the next :meth:`charge_node` enforces the cap."""
        self.root._nodes += count

    # ------------------------------------------------------------------
    def stage(self, share: float = 1.0) -> "BudgetTracker":
        """A child tracker for one covering-chain stage.

        The child's deadline is ``share`` of this tracker's remaining
        time; node charges still count against the root budget.  With
        no deadline anywhere the child is unlimited too.
        """
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        remaining = self.remaining_s()
        deadline: Optional[float] = None
        if remaining != float("inf"):
            deadline = max(0.0, remaining) * share
        child_budget = Budget(
            deadline_s=deadline,
            max_nodes=None,  # node budget is enforced at the root
            check_every=self.budget.check_every,
        )
        return BudgetTracker(child_budget, clock=self._clock, _parent=self)


def as_tracker(
    budget: Union[Budget, BudgetTracker, None],
    clock: Callable[[], float] = time.monotonic,
) -> BudgetTracker:
    """Normalize a ``Budget``/``BudgetTracker``/None into a live tracker.

    None yields an unlimited tracker, so call sites can thread budgets
    unconditionally; an already-started tracker passes through (keeping
    one shared clock and node counter across the whole pipeline).
    """
    if budget is None:
        return Budget().start(clock)
    if isinstance(budget, BudgetTracker):
        return budget
    return budget.start(clock)
