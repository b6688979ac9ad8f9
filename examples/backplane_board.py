#!/usr/bin/env python3
"""Multi-chip backplane design — the paper's "multi-chip multi-processor
system" target, plus the cost-versus-latency trade.

Six processor blades uplink to a switch hub across a 60 cm backplane.
Dedicated retimed PCB traces cost ~36 per uplink; SerDes lanes are
far faster but cost a PHY (~30) per instance — so the synthesizer
merges neighbouring blades' uplinks onto shared lanes through crossbar
chips.  The second half sweeps a latency (hop) budget and prints the
Pareto frontier a board architect would pick from.

Run:  python examples/backplane_board.py        (~30 s)
"""

from repro import SynthesisOptions, synthesize
from repro.analysis import latency_sweep, pareto_front, synthesis_report
from repro.core.merging import stage_plans
from repro.domains import multichip_example

graph, library = multichip_example()

result = synthesize(graph, library, SynthesisOptions(max_arity=4))
print(synthesis_report(result, title="Six-blade backplane"))
print()
for group in result.merged_groups:
    merge = next(c for c in result.selected if c.arc_names == group)
    print(f"shared lane: {', '.join(group)}  "
          f"(trunk {stage_plans(graph, merge.plan, library).trunk.link.name}, "
          f"{merge.plan.trunk_bandwidth / 1e9:.0f} Gbps, "
          f"{merge.plan.max_hops} hops worst-case)")
print()

print("latency sweep — max communication hops allowed on merged paths:")
points = latency_sweep(
    graph, library, budgets=(0, 2, 4, 8, None), options=SynthesisOptions(max_arity=4)
)
print(f"{'budget':>7} {'worst hops':>11} {'cost':>8} {'shared lanes':>13}")
for p in points:
    budget = "inf" if p.hop_budget is None else p.hop_budget
    print(f"{budget:>7} {p.worst_hops:>11} {p.cost:>8.1f} {len(p.merged_groups):>13}")

front = pareto_front(points)
print("\nPareto frontier (hops, cost):",
      ", ".join(f"({p.worst_hops}, {p.cost:.1f})" for p in front))
print("Every extra hop of allowed store-and-forward latency buys lane sharing;")
print("the knee sits where neighbouring blades first share a PHY.")
