"""Latency-insensitive extension — the paper's stated follow-on.

The paper's Example 2 result "is valid as long as ... all links on the
chip have a delay smaller than the clock period.  Naturally, with the
advent of deep sub-micron (DSM) process technology (0.13µ and below),
this will be true for fewer wires.  Still the approach ... can be
combined with the recently proposed latency-insensitive methodology
[1], after making sure to define a cost function centered on the
minimization of both stateless (buffers) and stateful (latches)
repeaters."

This module implements exactly that cost function on synthesized
implementation graphs:

- a wire can run at most ``l_clock`` millimeters within one clock
  period; any repeater position beyond that horizon must become a
  **relay station** (stateful: latches + control, per Carloni et al.'s
  latency-insensitive protocol) instead of a plain **buffer**
  (stateless inverter);
- walking every path of the implementation graph and accumulating
  distance-since-last-stateful-element classifies each repeater
  instance; shared trunk repeaters are classified once;
- :func:`lid_cost` weighs the two populations
  (``c_relay > c_buffer`` — a relay station is an order of magnitude
  larger than an inverter).

Shrinking ``l_clock`` (higher clock frequency / worse DSM wires) turns
buffers into relay stations one by one — the DSM trend the conclusion
describes — without changing the synthesized topology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.implementation import ImplementationGraph
from ..core.library import NodeKind

__all__ = [
    "RepeaterClassification",
    "classify_repeaters",
    "lid_cost",
    "lid_example",
    "lid_aware_synthesize",
]


def lid_example():
    """A DSM global-interconnect instance for the LID analysis.

    Six blocks on a 12 × 12 mm die with Manhattan routing over the
    Example 2 library (``l_crit = 0.6 mm``): every global channel needs
    a long repeater chain, so the buffer-versus-relay-station split of
    :func:`classify_repeaters` is non-trivial across the ``l_clock``
    sweep.  Returns ``(graph, library)`` like the other domain
    builders.
    """
    from ..core.constraint_graph import ConstraintGraph
    from ..core.geometry import MANHATTAN, Point
    from .soc import soc_library

    graph = ConstraintGraph(norm=MANHATTAN, name="lid-example")
    graph.add_port("cpu0", Point(1.0, 1.0), module="cpu0")
    graph.add_port("cpu1", Point(11.0, 1.0), module="cpu1")
    graph.add_port("l3", Point(6.0, 6.0), module="l3")
    graph.add_port("mem", Point(1.0, 11.0), module="mem")
    graph.add_port("nic", Point(11.0, 11.0), module="nic")
    graph.add_port("acc", Point(6.0, 1.5), module="acc")

    for name, src, dst, bw in [
        ("c1", "cpu0", "l3", 64e9),
        ("c2", "cpu1", "l3", 64e9),
        ("c3", "l3", "mem", 32e9),
        ("c4", "acc", "l3", 16e9),
        ("c5", "l3", "nic", 8e9),
        ("c6", "cpu0", "nic", 4e9),
    ]:
        graph.add_channel(name, src, dst, bandwidth=bw)
    return graph, soc_library()


@dataclass(frozen=True)
class RepeaterClassification:
    """Stateless/stateful split of a synthesized architecture's repeaters.

    ``violations`` counts path stretches that exceed ``l_clock`` with no
    repeater available to latch at — those wires cannot meet timing at
    this clock no matter the classification (the synthesis would need a
    denser segmentation, i.e. a smaller effective l_crit).
    """

    buffers: Tuple[str, ...]
    relay_stations: Tuple[str, ...]
    l_clock: float
    violations: int = 0

    @property
    def buffer_count(self) -> int:
        """Plain stateless repeaters (inverters)."""
        return len(self.buffers)

    @property
    def relay_count(self) -> int:
        """Stateful relay stations (latch-based)."""
        return len(self.relay_stations)

    @property
    def total(self) -> int:
        """All repeater instances."""
        return self.buffer_count + self.relay_count


def classify_repeaters(impl: ImplementationGraph, l_clock: float) -> RepeaterClassification:
    """Classify every repeater instance as buffer or relay station.

    For each registered path, walk source → sink accumulating wire
    length since the last *stateful* element (computational vertices
    and relay stations reset the budget; muxes, demuxes and plain
    buffers do not).  A repeater reached with the budget exhausted
    becomes a relay station.  A repeater shared by several paths (a
    trunk of a merging) is stateful if **any** traversal requires it —
    conservative, and consistent: classification is computed in a first
    pass and reused, iterating to a fixed point so that an upgrade
    upstream can relax the need downstream.

    ``l_clock`` is the distance a signal crosses in one clock period,
    in the graph's own length unit.
    """
    if l_clock <= 0:
        raise ValueError(f"l_clock must be positive, got {l_clock}")

    repeaters = {
        v.name
        for v in impl.communication_vertices
        if v.node.kind is NodeKind.REPEATER
    }
    stateful: Set[str] = set()

    tol = 1e-12 * max(1.0, l_clock)
    violations = 0

    # Monotone fixed point: each pass walks every path accumulating wire
    # length since the last stateful element (source ports and relay
    # stations reset the budget; muxes/demuxes/buffers do not).  When
    # the budget breaks, the *last repeater passed since the reset* is
    # upgraded to a relay station — the latest feasible latch point, so
    # the number of upgrades per path is minimal.  The stateful set only
    # grows, so the loop terminates in <= |repeaters| + 1 passes.
    for _ in range(len(repeaters) + 1):
        demanded: Set[str] = set()
        pass_violations = 0
        for arc_name in impl.implemented_arcs:
            for path in impl.arc_implementation(arc_name):
                vertices = impl.path_vertices(path)
                since = 0.0
                # (repeater name, `since` value when it was crossed)
                latch_point = None
                for arc_id, nxt in zip(path.arc_names, vertices[1:]):
                    since += impl.impl_arc(arc_id).length
                    if since > l_clock + tol:
                        if latch_point is not None:
                            name, dist_at = latch_point
                            demanded.add(name)
                            since -= dist_at
                            latch_point = None
                        if since > l_clock + tol:
                            # even latching at the last repeater (or with
                            # none available) this stretch breaks timing
                            pass_violations += 1
                            since = 0.0
                            latch_point = None
                    vertex = impl.vertex(nxt)
                    if (
                        vertex.is_computational
                        or nxt in stateful
                        or nxt in demanded
                    ):
                        since = 0.0
                        latch_point = None
                    elif (
                        vertex.is_communication
                        and vertex.node.kind is NodeKind.REPEATER
                    ):
                        latch_point = (nxt, since)
        violations = pass_violations
        if demanded <= stateful:
            break
        stateful |= demanded

    stateful &= repeaters
    buffers = tuple(sorted(repeaters - stateful))
    relays = tuple(sorted(stateful))
    return RepeaterClassification(
        buffers=buffers, relay_stations=relays, l_clock=l_clock, violations=violations
    )


def lid_cost(
    impl: ImplementationGraph,
    l_clock: float,
    c_buffer: float = 1.0,
    c_relay: float = 8.0,
) -> Dict[str, float]:
    """The conclusion's cost function: weighted stateless + stateful
    repeater count for a synthesized on-chip architecture.

    Returns a breakdown dict with ``buffers``, ``relay_stations``,
    ``cost`` and the classification itself under ``classification``.
    """
    classification = classify_repeaters(impl, l_clock)
    cost = classification.buffer_count * c_buffer + classification.relay_count * c_relay
    return {
        "buffers": float(classification.buffer_count),
        "relay_stations": float(classification.relay_count),
        "cost": cost,
        "classification": classification,
    }


def lid_aware_synthesize(
    graph,
    library,
    l_clock: float,
    c_buffer: float = 1.0,
    c_relay: float = 8.0,
    options=None,
):
    """Synthesize under the conclusion's stateless+stateful cost function.

    The paper's closing proposal: "define a cost function centered on
    the minimization of both stateless (buffers) and stateful (latches)
    repeaters".  This driver implements it end to end:

    1. generate candidates as usual (the geometric/bandwidth pruning is
       cost-model-independent given Assumption 2.1);
    2. **re-weight every candidate** by materializing it stand-alone and
       evaluating ``c_buffer × buffers + c_relay × relays + link costs``
       under the ``l_clock`` budget — so a merging whose extra trunk
       stages would all become relay stations is priced accordingly;
    3. solve the covering with the LID weights and materialize.

    Returns a :class:`~repro.core.synthesis.SynthesisResult` whose
    ``total_cost`` is the LID objective (``implementation.cost()``
    still reports the plain component cost).  Candidates whose
    stand-alone materialization has timing violations at ``l_clock``
    are charged ``c_relay`` per violation on top — soft-discouraging,
    not excluding, since denser segmentation is not in the library's
    vocabulary to fix.
    """
    from ..core.candidates import Candidate, CandidateSet, generate_candidates
    from ..core.synthesis import (
        SynthesisOptions,
        _budgeted_cover,
        _cover_and_assemble,
        materialize_selection,
    )

    opts = options or SynthesisOptions()
    start = time.perf_counter()
    # unpenalized: the LID weight below replaces the monetary cost
    candidates = generate_candidates(graph, library, **opts.candidate_args(hop_penalty=0.0))

    def lid_weight(candidate: Candidate) -> float:
        scratch = materialize_selection(graph, library, [candidate], name="lid-probe")
        classification = classify_repeaters(scratch, l_clock)
        links = scratch.link_cost()
        non_repeater_nodes = sum(
            v.cost
            for v in scratch.communication_vertices
            if v.node.kind is not NodeKind.REPEATER
        )
        return (
            links
            + non_repeater_nodes
            + classification.buffer_count * c_buffer
            + classification.relay_count * c_relay
            + classification.violations * c_relay
        )

    reweighted_p2p = [
        Candidate(arc_names=c.arc_names, cost=lid_weight(c), plan=c.plan)
        for c in candidates.point_to_point
    ]
    reweighted_merge = [
        Candidate(arc_names=c.arc_names, cost=lid_weight(c), plan=c.plan)
        for c in candidates.mergings
    ]
    lid_candidates = CandidateSet(
        point_to_point=reweighted_p2p, mergings=reweighted_merge, stats=candidates.stats
    )
    result = _cover_and_assemble(
        graph, library, opts, lid_candidates,
        lambda covering, _replayed: _budgeted_cover(covering, None), start,
    )
    result.implementation.name = f"{graph.name}-lid-impl"
    return result
