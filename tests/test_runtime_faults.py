"""Unit tests for the deterministic fault-injection harness."""

import pytest

from repro.core.exceptions import BudgetExceeded, SynthesisError
from repro.runtime import FaultInjector, FaultSpec, active_injector, fault_point


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(site="x", kind="nonsense")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="x", probability=1.5)

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec(site="x", after=-1)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="x", times=0)

    def test_custom_exception_needs_no_kind(self):
        spec = FaultSpec(site="x", kind="custom-ok", exception=RuntimeError)
        assert isinstance(spec.build_exception("x"), RuntimeError)


class TestKinds:
    def test_timeout_raises_budget_exceeded(self):
        with FaultInjector([FaultSpec(site="s", kind="timeout")]):
            with pytest.raises(BudgetExceeded) as exc:
                fault_point("s")
        assert exc.value.reason == "injected-timeout"

    def test_node_budget_raises_budget_exceeded(self):
        with FaultInjector([FaultSpec(site="s", kind="node_budget")]):
            with pytest.raises(BudgetExceeded) as exc:
                fault_point("s")
        assert exc.value.reason == "injected-node-budget"

    def test_error_raises_synthesis_error(self):
        with FaultInjector([FaultSpec(site="s", kind="error")]):
            with pytest.raises(SynthesisError) as exc:
                fault_point("s")
        assert type(exc.value) is SynthesisError


class TestFiringRules:
    def test_noop_without_injector(self):
        assert active_injector() is None
        fault_point("anything")  # must not raise

    def test_other_sites_untouched(self):
        with FaultInjector([FaultSpec(site="s", kind="error")]):
            fault_point("other")  # no match, no raise

    def test_glob_site_patterns(self):
        with FaultInjector([FaultSpec(site="bnb.*", kind="error")]):
            fault_point("greedy.select")
            with pytest.raises(SynthesisError):
                fault_point("bnb.node")

    def test_after_skips_initial_hits(self):
        with FaultInjector([FaultSpec(site="s", kind="error", after=3)]) as inj:
            for _ in range(3):
                fault_point("s")
            with pytest.raises(SynthesisError):
                fault_point("s")
        assert inj.hits("s") == 4

    def test_times_caps_firings(self):
        with FaultInjector([FaultSpec(site="s", kind="error", times=2)]) as inj:
            for _ in range(2):
                with pytest.raises(SynthesisError):
                    fault_point("s")
            fault_point("s")  # budget of injected faults used up
            assert inj.total_fired == 2

    def test_seeded_probability_is_deterministic(self):
        def firing_pattern(seed):
            pattern = []
            with FaultInjector([FaultSpec(site="s", kind="error", probability=0.5)], seed=seed):
                for _ in range(64):
                    try:
                        fault_point("s")
                        pattern.append(False)
                    except SynthesisError:
                        pattern.append(True)
            return pattern

        a, b = firing_pattern(7), firing_pattern(7)
        assert a == b
        assert any(a) and not all(a)  # p=0.5 over 64 hits: both outcomes occur


class TestContextManagement:
    def test_inner_injector_wins_and_outer_restored(self):
        outer = FaultInjector([FaultSpec(site="s", kind="timeout")])
        inner = FaultInjector([])  # injects nothing
        with outer:
            with inner:
                assert active_injector() is inner
                fault_point("s")  # inner masks the outer timeout
            assert active_injector() is outer
            with pytest.raises(BudgetExceeded):
                fault_point("s")
        assert active_injector() is None

    def test_exception_exit_still_deactivates(self):
        with pytest.raises(BudgetExceeded):
            with FaultInjector([FaultSpec(site="s", kind="timeout")]):
                fault_point("s")
        assert active_injector() is None


class TestStallFaults:
    def test_stall_blocks_without_raising(self):
        naps = []
        inj = FaultInjector(
            [FaultSpec(site="s", kind="stall", stall_s=2.5)], sleep=naps.append
        )
        with inj:
            fault_point("s")  # no exception
            fault_point("s")
        assert naps == [2.5, 2.5]
        assert inj.total_stalled_s == 5.0
        assert inj.total_fired == 2

    def test_stall_spec_requires_positive_duration(self):
        with pytest.raises(ValueError, match="stall_s"):
            FaultSpec(site="s", kind="stall")
        with pytest.raises(ValueError, match="stall_s"):
            FaultSpec(site="s", kind="error", stall_s=1.0)

    def test_stall_stacks_in_front_of_a_raising_spec(self):
        naps = []
        plan = [
            FaultSpec(site="s", kind="stall", stall_s=1.0),
            FaultSpec(site="s", kind="timeout"),
        ]
        with FaultInjector(plan, sleep=naps.append):
            with pytest.raises(BudgetExceeded):
                fault_point("s")
        assert naps == [1.0]  # stalled first, then the timeout fired

    def test_stall_honours_after_and_times(self):
        naps = []
        plan = [FaultSpec(site="s", kind="stall", stall_s=0.5, after=1, times=2)]
        with FaultInjector(plan, sleep=naps.append) as inj:
            for _ in range(5):
                fault_point("s")
        assert naps == [0.5, 0.5]  # skipped hit 1, fired on 2 and 3 only
        assert inj.total_stalled_s == 1.0


class TestQueueFaultKinds:
    """The multi-host queue's fault kinds (see repro.batch.queue for the
    sites that catch them)."""

    def test_host_death_raises_its_dedicated_exception(self):
        from repro.runtime import HostDeathFault

        with FaultInjector([FaultSpec(site="queue.solve", kind="host_death")]):
            with pytest.raises(HostDeathFault):
                fault_point("queue.solve")

    def test_heartbeat_stall_raises_its_dedicated_exception(self):
        from repro.runtime import HeartbeatStallFault

        with FaultInjector([FaultSpec(site="queue.heartbeat", kind="heartbeat_stall")]):
            with pytest.raises(HeartbeatStallFault):
                fault_point("queue.heartbeat")

    def test_stale_clock_carries_its_skew(self):
        from repro.runtime import StaleClockFault

        with FaultInjector([FaultSpec(site="queue.clock", kind="stale_clock",
                                      skew_s=-7.5)]):
            with pytest.raises(StaleClockFault) as exc:
                fault_point("queue.clock")
        assert exc.value.skew_s == -7.5

    def test_stale_clock_requires_nonzero_skew(self):
        with pytest.raises(ValueError, match="skew_s"):
            FaultSpec(site="s", kind="stale_clock")
        with pytest.raises(ValueError, match="skew_s"):
            FaultSpec(site="s", kind="error", skew_s=1.0)
