"""Tests for LID-aware synthesis — selecting under the stateless +
stateful repeater cost function (the paper's §5 proposal, closed)."""

import pytest

from repro import SynthesisOptions, synthesize
from repro.domains.lid import classify_repeaters, lid_aware_synthesize, lid_cost
from repro.domains.soc import soc_library
from repro.core.constraint_graph import ConstraintGraph
from repro.core.geometry import MANHATTAN, Point


def _two_parallel(length_mm=6.0, pitch=0.3):
    g = ConstraintGraph(norm=MANHATTAN, name="lid-pair")
    g.add_port("u1", Point(0, 0))
    g.add_port("u2", Point(0, pitch))
    g.add_port("v1", Point(length_mm, 0))
    g.add_port("v2", Point(length_mm, pitch))
    g.add_channel("c1", "u1", "v1", bandwidth=1e9)
    g.add_channel("c2", "u2", "v2", bandwidth=1e9)
    return g


OPTS = SynthesisOptions(max_arity=2, validate_result=False)


class TestLidAwareSynthesis:
    def test_relaxed_clock_matches_plain_synthesis_structure(self):
        """With l_clock huge, every repeater is a buffer at cost
        c_buffer = 1, i.e. exactly the plain SoC cost model — the
        selected structure must coincide."""
        g = _two_parallel()
        lib = soc_library()
        plain = synthesize(g, lib, OPTS)
        lid = lid_aware_synthesize(g, lib, l_clock=1e6, options=OPTS)
        assert lid.merged_groups == plain.merged_groups
        assert lid.total_cost == pytest.approx(plain.total_cost, rel=1e-6)

    def test_objective_matches_reported_cost(self):
        g = _two_parallel()
        lib = soc_library()
        lid = lid_aware_synthesize(g, lib, l_clock=2.0, c_relay=8.0, options=OPTS)
        out = lid_cost(lid.implementation, l_clock=2.0, c_buffer=1.0, c_relay=8.0)
        links = lid.implementation.link_cost()
        from repro import NodeKind

        other_nodes = sum(
            v.cost for v in lid.implementation.communication_vertices
            if v.node.kind is not NodeKind.REPEATER
        )
        assert lid.total_cost == pytest.approx(out["cost"] + links + other_nodes, rel=1e-6)

    def test_tight_clock_changes_selection(self):
        """A merged trunk inserts stateless muxes whose straddling wires
        break a tight clock; LID-aware selection with expensive relays
        must diverge from the plain (merge-happy) answer somewhere on
        the relay-price axis."""
        g = _two_parallel(length_mm=6.0, pitch=0.3)
        lib = soc_library(mux_cost_units=0.2, demux_cost_units=0.2)
        plain = synthesize(g, lib, OPTS)
        assert plain.merged_groups  # plain model merges the pair

        # with very expensive relay stations and l_clock = 1.2 (exactly
        # 2 x l_crit), the merged structure's mux-adjacent stages force
        # relays that dedicated wires avoid, flipping the decision
        lid = lid_aware_synthesize(
            g, lib, l_clock=1.25, c_buffer=1.0, c_relay=60.0, options=OPTS
        )
        plain_class = classify_repeaters(plain.implementation, 1.25)
        lid_class = classify_repeaters(lid.implementation, 1.25)
        lid_objective_of_plain = (
            plain.implementation.link_cost()
            + sum(
                v.cost for v in plain.implementation.communication_vertices
                if v.node.kind.value != "repeater"
            )
            + plain_class.buffer_count * 1.0
            + plain_class.relay_count * 60.0
            + plain_class.violations * 60.0
        )
        # the LID-aware optimum is at least as good under its own objective
        assert lid.total_cost <= lid_objective_of_plain + 1e-6

    def test_relay_price_sweep_monotone(self):
        g = _two_parallel()
        lib = soc_library()
        costs = [
            lid_aware_synthesize(g, lib, l_clock=2.0, c_relay=cr, options=OPTS).total_cost
            for cr in (1.0, 8.0, 40.0)
        ]
        assert costs == sorted(costs)

    def test_follows_the_engine_rule(self, monkeypatch):
        """The LID cover picks its engine by width, as synthesize() does:
        at or above ``ILP_CUTOVER_COLUMNS`` it goes to the ILP engine,
        which reaches the bnb optimum."""
        import repro.core.synthesis as synthesis_mod

        engines = []
        real_ilp = synthesis_mod.solve_ilp

        def spy(*args, **kwargs):
            engines.append("ilp")
            return real_ilp(*args, **kwargs)

        monkeypatch.setattr(synthesis_mod, "solve_ilp", spy)
        g = _two_parallel()
        lib = soc_library()
        bnb = lid_aware_synthesize(g, lib, l_clock=2.0, options=OPTS)
        assert engines == []
        monkeypatch.setattr(synthesis_mod, "ILP_CUTOVER_COLUMNS", 1)
        ilp = lid_aware_synthesize(g, lib, l_clock=2.0, options=OPTS)
        assert engines == ["ilp"]
        assert ilp.total_cost == pytest.approx(bnb.total_cost, rel=1e-9)
