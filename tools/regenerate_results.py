#!/usr/bin/env python3
"""Regenerate docs/RESULTS.md and docs/figures/ from live runs.

One command re-derives the repository's headline numbers — the paper
reproduction targets and the extension studies — and writes them as a
markdown report plus SVG figures, so documentation can never drift
from the code:

    python tools/regenerate_results.py            # writes docs/RESULTS.md
    python tools/regenerate_results.py --fast     # skips the slow MPEG-4 run
    python tools/regenerate_results.py --records  # rewrites tests/fixtures/records/

Everything here reuses public APIs only; the script is itself smoke-
tested by tests/test_tools.py.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import SynthesisOptions, compute_matrices, synthesize
from repro.analysis import (
    format_delta_table,
    format_gamma_table,
    latency_sweep,
    markdown_table,
    pareto_front,
    render_pareto_svg,
    render_sweep_svg,
    result_to_markdown,
)
from repro.baselines import greedy_synthesis, point_to_point_baseline
from repro.domains import mpeg4_example, multichip_example, wan_example
from repro.domains.mpeg4 import MPEG4_MAX_ARITY
from repro.domains.soc import count_repeaters
from repro.sim import simulate

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
FIGURES = DOCS / "figures"


def wan_section(lines: list) -> None:
    graph, library = wan_example()
    result = synthesize(graph, library)
    baseline = point_to_point_baseline(graph, library, check=False)
    greedy = greedy_synthesis(graph, library, max_group=3, check=False)
    sim = simulate(result.implementation, graph, duration=50.0)

    lines += ["## Example 1 — WAN (paper Figure 4)", ""]
    lines.append(
        markdown_table(
            ["quantity", "value"],
            [
                ("optimal merge", "+".join(result.merged_groups[0])),
                ("total cost [$]", result.total_cost),
                ("point-to-point baseline [$]", baseline.total_cost),
                ("greedy heuristic [$] (stalls!)", greedy.total_cost),
                ("saving vs p2p", f"{result.savings_ratio:.1%}"),
                ("2-way candidates (paper: 13)", result.candidates.stats.survivors_by_k[2]),
                ("4-way candidates (paper: 16)", result.candidates.stats.survivors_by_k[4]),
                ("all demands sustained (fluid sim)", str(sim.all_satisfied)),
            ],
        )
    )
    lines += ["", "### Γ matrix (paper Table 1)", "", "```",
              format_gamma_table(compute_matrices(graph)), "```", ""]
    lines += ["### Δ matrix (paper Table 2)", "", "```",
              format_delta_table(compute_matrices(graph)), "```", ""]
    lines += [result_to_markdown(result, title="Selected implementation"), ""]


def mpeg4_section(lines: list) -> None:
    graph, library = mpeg4_example()
    result = synthesize(graph, library, SynthesisOptions(max_arity=MPEG4_MAX_ARITY))
    baseline = point_to_point_baseline(graph, library, check=False)
    lines += ["## Example 2 — MPEG-4 decoder (paper Figure 5)", ""]
    lines.append(
        markdown_table(
            ["quantity", "value"],
            [
                ("repeaters, merge-aware optimum (paper: 55)", count_repeaters(result.implementation)),
                ("repeaters, dedicated wiring", count_repeaters(baseline.implementation)),
                ("merge groups", "; ".join("+".join(g) for g in result.merged_groups)),
            ],
        )
    )
    lines.append("")


def backplane_section(lines: list) -> None:
    graph, library = multichip_example()
    points = latency_sweep(
        graph, library, budgets=(0, 2, 4, None), options=SynthesisOptions(max_arity=4)
    )
    front = pareto_front(points)
    lines += ["## Extension — blade backplane cost/latency frontier", ""]
    lines.append(
        markdown_table(
            ["hop budget", "worst hops", "cost", "shared lanes"],
            [
                ("inf" if p.hop_budget is None else p.hop_budget,
                 p.worst_hops, p.cost, len(p.merged_groups))
                for p in points
            ],
        )
    )
    lines += ["", f"Pareto frontier: "
              + ", ".join(f"({p.worst_hops} hops, {p.cost:.1f})" for p in front), ""]

    FIGURES.mkdir(parents=True, exist_ok=True)
    (FIGURES / "backplane_pareto.svg").write_text(render_pareto_svg(points))
    lines.append("![frontier](figures/backplane_pareto.svg)")
    lines.append("")


def scaling_section(lines: list) -> None:
    from repro.netgen import clustered_graph, two_tier_library

    library = two_tier_library()
    sizes = [4, 6, 8]
    exact_costs, p2p_costs = [], []
    for n in sizes:
        g = clustered_graph(n_clusters=2, ports_per_cluster=4, n_arcs=n,
                            separation=100.0, seed=42)
        r = synthesize(g, library, SynthesisOptions(max_arity=4, validate_result=False))
        exact_costs.append(r.total_cost)
        p2p_costs.append(r.point_to_point_cost)

    FIGURES.mkdir(parents=True, exist_ok=True)
    (FIGURES / "scaling_costs.svg").write_text(
        render_sweep_svg(
            sizes, {"point-to-point": p2p_costs, "exact": exact_costs},
            x_label="|A| (channels)", y_label="cost", title="clustered scaling",
        )
    )
    lines += ["## Scaling (clustered instances, seed 42)", ""]
    lines.append(
        markdown_table(
            ["|A|", "p2p cost", "exact cost", "saved"],
            [
                (n, p, e, f"{1 - e / p:.1%}")
                for n, p, e in zip(sizes, p2p_costs, exact_costs)
            ],
        )
    )
    lines += ["", "![scaling](figures/scaling_costs.svg)", ""]


def regenerate_conformance(out: Path) -> None:
    """Refresh the golden conformance fixture (intentional drift only).

    ``tests/test_conformance.py`` pins these records; run this after an
    *intended* cost-affecting change, eyeball the diff, and commit the
    fixture alongside the change.
    """
    import json

    from repro.domains.conformance import conformance_snapshot

    snapshot = conformance_snapshot()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    for name, record in snapshot.items():
        print(f"  {name}: cost {record['total_cost']:,.6g}, "
              f"{len(record['selected'])} selected")
    print(f"wrote {out}")


def regenerate_records(directory: Path) -> None:
    """Rewrite the on-disk record fixtures from the current code.

    ``tests/test_record_fixtures.py`` holds every durable record file
    to these bytes; run this after bumping ``CACHE_VERSION`` or
    ``JOURNAL_VERSION`` and commit the files with the bump.  Writes, in
    ``directory`` (which holds ``wan.json``, ``broken.json`` and
    ``mpeg4.json``):

    - ``cache/`` and ``results.jsonl``: the persistent cache and results
      stream of a ``max_arity`` 3 batch over ``wan.json`` and
      ``broken.json``;
    - ``journal.ckpt``: the journal of a ``max_arity`` 3 checkpointed
      solve of ``mpeg4.json`` (header, chunk, incumbent and solution
      records).

    Runs inside ``directory`` so the results stream records the
    instance paths relative to it.
    """
    import os
    import shutil

    from repro import run_batch
    from repro.batch import InstanceRef
    from repro.io import load_instance

    options = SynthesisOptions(max_arity=3)
    shutil.rmtree(directory / "cache", ignore_errors=True)
    for name in ("results.jsonl", "journal.ckpt"):
        (directory / name).unlink(missing_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        summary = run_batch(
            [InstanceRef("wan", Path("wan.json")), InstanceRef("broken", Path("broken.json"))],
            options=options, cache_dir="cache", results_path="results.jsonl",
        )
        graph, library = load_instance("mpeg4.json")
        synthesize(graph, library, replace(options, checkpoint_path="journal.ckpt"))
    finally:
        os.chdir(cwd)
    print(f"  batch: {[(r['name'], r['status']) for r in summary.records]}")
    for path in sorted(directory.glob("cache/*")) + [
        directory / "results.jsonl", directory / "journal.ckpt",
    ]:
        print(f"  {path.relative_to(directory)}: {path.stat().st_size:,} bytes")
    print(f"wrote {directory}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="skip the MPEG-4 run")
    parser.add_argument("--out", default=str(DOCS / "RESULTS.md"))
    parser.add_argument(
        "--conformance",
        action="store_true",
        help="instead of RESULTS.md, regenerate the golden conformance "
        "fixture (tests/fixtures/conformance.json) that "
        "tests/test_conformance.py pins",
    )
    parser.add_argument(
        "--records",
        action="store_true",
        help="instead of RESULTS.md, rewrite the on-disk record fixtures "
        "(tests/fixtures/records/) that tests/test_record_fixtures.py pins",
    )
    args = parser.parse_args(argv)

    if args.conformance:
        regenerate_conformance(ROOT / "tests" / "fixtures" / "conformance.json")
        return 0
    if args.records:
        regenerate_records(ROOT / "tests" / "fixtures" / "records")
        return 0

    t0 = time.perf_counter()
    lines = [
        "# RESULTS — regenerated live",
        "",
        "Produced by `python tools/regenerate_results.py`; every number",
        "below comes from an actual synthesis/simulation run of the",
        "checked-in code (no hand-maintained values).",
        "",
    ]
    wan_section(lines)
    if not args.fast:
        mpeg4_section(lines)
    backplane_section(lines)
    scaling_section(lines)
    lines.append(f"_Regenerated in {time.perf_counter() - t0:.1f} s._")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} and {FIGURES}/*.svg in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
