#!/usr/bin/env python3
"""Quickstart: synthesize a communication architecture in ~30 lines.

Builds a four-node system with five channels, defines a two-tier link
library (cheap slow copper, expensive fast fiber), and lets the
synthesizer decide which channels share a trunk.

Run:  python examples/quickstart.py
"""

from repro import (
    Budget,
    CommunicationLibrary,
    ConstraintGraph,
    Link,
    NodeKind,
    NodeSpec,
    Point,
    SynthesisOptions,
    synthesize,
)
from repro.analysis import synthesis_report

# 1. Describe WHAT must communicate: ports with positions, channels
#    with distance (implied by geometry) and bandwidth requirements.
graph = ConstraintGraph(name="quickstart")
graph.add_port("sensor-a", Point(0, 0))
graph.add_port("sensor-b", Point(2, 8))
graph.add_port("sensor-c", Point(-3, 5))
graph.add_port("gateway", Point(120, 40))

graph.add_channel("feed-a", "sensor-a", "gateway", bandwidth=8.0)
graph.add_channel("feed-b", "sensor-b", "gateway", bandwidth=8.0)
graph.add_channel("feed-c", "sensor-c", "gateway", bandwidth=8.0)
graph.add_channel("cmd-a", "gateway", "sensor-a", bandwidth=1.0)
graph.add_channel("sync", "sensor-a", "sensor-b", bandwidth=2.0)

# 2. Describe WHAT PARTS are available: links (bandwidth, reach, cost)
#    and nodes (repeaters, muxes, demuxes).
library = CommunicationLibrary("quickstart-lib")
library.add_link(Link("copper", bandwidth=10.0, cost_per_unit=2.0))
library.add_link(Link("fiber", bandwidth=1000.0, cost_per_unit=4.5))
library.add_node(NodeSpec("mux", NodeKind.MUX, cost=10.0))
library.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=10.0))
library.add_node(NodeSpec("repeater", NodeKind.REPEATER, cost=5.0))

# 3. Synthesize the minimum-cost architecture (exact algorithm).
#    The 30 s budget makes the run supervised: if the exact solver ever
#    blew its deadline, the anytime fallback chain would still return a
#    valid architecture — with an honest quality tag instead of a hang.
result = synthesize(graph, library, SynthesisOptions(), budget=Budget(deadline_s=30.0))

print(synthesis_report(result, title="Quickstart synthesis"))
print()
if result.merged_groups:
    for group in result.merged_groups:
        print(f"-> channels {', '.join(group)} share one trunk")
else:
    print("-> every channel got a dedicated link")
print(f"-> result quality: {result.degradation.quality.value}")
