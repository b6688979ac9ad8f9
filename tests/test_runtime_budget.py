"""Unit tests for the cooperative budget layer (repro.runtime.budget)."""

import pytest

from repro.core.exceptions import BudgetExceeded
from repro.runtime import Budget, BudgetTracker, as_tracker


class FakeClock:
    """Deterministic injectable monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestBudgetSpec:
    def test_defaults_are_unlimited(self):
        b = Budget()
        assert b.deadline_s is None and b.max_nodes is None

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            Budget(deadline_s=-1.0)

    def test_nonpositive_max_nodes_rejected(self):
        with pytest.raises(ValueError, match="max_nodes"):
            Budget(max_nodes=0)

    def test_nonpositive_check_every_rejected(self):
        with pytest.raises(ValueError, match="check_every"):
            Budget(check_every=0)


class TestTracker:
    def test_unlimited_never_raises(self):
        tracker = Budget().start()
        for _ in range(1000):
            tracker.checkpoint("x")
            tracker.charge_node("x")
        assert tracker.remaining_s() == float("inf")
        assert not tracker.expired()

    def test_deadline_detected_on_first_checkpoint(self):
        clock = FakeClock()
        tracker = Budget(deadline_s=1.0).start(clock=clock)
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded, match="deadline"):
            tracker.checkpoint("site")

    def test_check_every_bounds_overshoot_granularity(self):
        """The wall clock is read on calls 1, 1+N, 1+2N, ... — never in
        between, so overshoot is at most one checkpoint interval."""
        clock = FakeClock()
        tracker = Budget(deadline_s=1.0, check_every=4).start(clock=clock)
        tracker.checkpoint()  # call 1 checks: fine, clock at 0
        clock.advance(5.0)  # deadline now long gone
        for _ in range(3):  # calls 2-4 do not read the clock
            tracker.checkpoint()
        with pytest.raises(BudgetExceeded):  # call 5 = 1 + check_every
            tracker.checkpoint()

    def test_node_budget_enforced(self):
        tracker = Budget(max_nodes=5).start()
        for _ in range(5):
            tracker.charge_node("n")
        with pytest.raises(BudgetExceeded, match="nodes"):
            tracker.charge_node("n")
        exc = pytest.raises(BudgetExceeded, tracker.charge_node, "n").value
        assert exc.reason == "nodes"

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        tracker = Budget(deadline_s=10.0).start(clock=clock)
        clock.advance(4.0)
        assert tracker.elapsed_s() == pytest.approx(4.0)
        assert tracker.remaining_s() == pytest.approx(6.0)


class TestStageTrackers:
    def test_stage_gets_share_of_remaining(self):
        clock = FakeClock()
        root = Budget(deadline_s=10.0).start(clock=clock)
        clock.advance(2.0)
        child = root.stage(share=0.5)
        assert child.budget.deadline_s == pytest.approx(4.0)  # 8s left * 0.5

    def test_stage_of_unlimited_root_is_unlimited(self):
        child = Budget().start().stage(share=0.5)
        assert child.budget.deadline_s is None

    def test_stage_shares_root_node_counter(self):
        root = Budget(max_nodes=3).start()
        child = root.stage()
        child.charge_node()
        child.charge_node()
        assert root.nodes_used == 2
        grandchild = child.stage()
        grandchild.charge_node()
        with pytest.raises(BudgetExceeded, match="nodes"):
            grandchild.charge_node()

    def test_child_expires_with_parent(self):
        clock = FakeClock()
        root = Budget(deadline_s=1.0).start(clock=clock)
        child = root.stage(share=1.0)
        clock.advance(2.0)
        assert child.expired()

    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError, match="share"):
            Budget().start().stage(share=0.0)


class TestAsTracker:
    def test_none_is_unlimited(self):
        tracker = as_tracker(None)
        assert tracker.budget.deadline_s is None

    def test_tracker_passes_through_identically(self):
        tracker = Budget(deadline_s=5.0).start()
        assert as_tracker(tracker) is tracker

    def test_budget_is_started(self):
        tracker = as_tracker(Budget(deadline_s=5.0))
        assert isinstance(tracker, BudgetTracker)
        assert tracker.budget.deadline_s == 5.0
