#!/usr/bin/env python3
"""Full reproduction of the paper's Example 1 (Section 4, Figures 3-4,
Tables 1-2).

Prints the Γ and Δ matrices in the paper's format, runs the synthesis,
reports the candidate counts the paper quotes, and writes SVG drawings
of the constraint graph (Figure 3-b) and the optimal implementation
(Figure 4) next to this script.

Run:  python examples/wan_paper_example.py
"""

from pathlib import Path

from repro import compute_matrices, synthesize
from repro.analysis import (
    format_delta_table,
    format_gamma_table,
    render_constraint_graph_svg,
    render_implementation_svg,
    synthesis_report,
)
from repro.core.merging import stage_plans
from repro.domains import wan_example

graph, library = wan_example()
matrices = compute_matrices(graph)

print("Table 1 — Constrained Distance Sum Matrix Γ(a_i, a_j) [km]")
print(format_gamma_table(matrices))
print()
print("Table 2 — Merging Distance Sum Matrix Δ(a_i, a_j) [km]")
print(format_delta_table(matrices))
print()

result = synthesize(graph, library)
print(synthesis_report(result, title="Example 1: WAN synthesis (Figure 4)"))
print()

# The paper's Figure 4 narrative, asserted:
assert result.merged_groups == [("a4", "a5", "a6")], result.merged_groups
merge = next(c for c in result.selected if c.is_merging)
assert stage_plans(graph, merge.plan, library).trunk.link.name == "optical"
assert result.candidates.stats.survivors_by_k[2] == 13
assert result.candidates.stats.retired_at_k["a8"] == 2
print("Paper claims verified: a4+a5+a6 merged on an optical trunk,")
print("all other arcs dedicated radio links, 13 two-way candidates,")
print("a8 unmergeable.")

out_dir = Path(__file__).resolve().parent
(out_dir / "wan_constraint_graph.svg").write_text(render_constraint_graph_svg(graph))
(out_dir / "wan_implementation.svg").write_text(render_implementation_svg(result.implementation))
print(f"\nSVGs written to {out_dir}/wan_*.svg")
