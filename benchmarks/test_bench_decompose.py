"""Experiment S3 — scalability past exhaustive enumeration.

The exhaustive pipeline enumerates every K-way merging the lemmas
cannot prune; on dense-local instances that wall is combinatorial and
lands around a few dozen arcs.  This bench runs the decompose strategy
on a 1000-arc clustered instance (20 islands, purely local traffic —
the paper's WAN regime dialed up two orders of magnitude), asserts the
partition certificate claims gap 0, that the merged network genuinely
beats point-to-point, and that the whole run finishes inside a CI-safe
deadline.  Timings and counters land in ``BENCH_decompose.json`` at the
repo root (uploaded as a CI artifact).
"""

import json
import os
import time
from pathlib import Path

from repro import SynthesisOptions, synthesize
from repro.domains import wan_library
from repro.io import atomic_write
from repro.netgen import clustered_graph

from .conftest import comparison_table

#: measured 2.7-2.8 s on a 2-core machine; generous headroom for slow CI runners.
DEADLINE_S = 300.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_decompose.json"

INSTANCE = {
    "n_clusters": 20,
    "ports_per_cluster": 12,
    "n_arcs": 1000,
    "cluster_spread": 5.0,
    "separation": 500.0,
    "bandwidth_range": (1.0, 3.0),
    "seed": 42,
    "intra_fraction": 1.0,
}


def test_bench_decompose_1000_arcs(benchmark):
    graph = clustered_graph(**INSTANCE)
    library = wan_library()
    options = SynthesisOptions(
        strategy="decompose", max_arity=2, polish_placement=False
    )

    def run():
        return synthesize(graph, library, options)

    t0 = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0

    report = result.decomposition
    assert report is not None and report.strategy == "decompose"
    # the certificate must hold on purely-local traffic: clean clusters,
    # zero coarsening debt, certified zero optimality gap
    assert report.certified and report.gap_bound == 0.0
    assert report.n_clusters >= 2
    p2p_cost = sum(c.cost for c in result.candidates.point_to_point)
    assert result.total_cost < p2p_cost  # merging must actually pay
    savings = 1.0 - result.total_cost / p2p_cost
    assert wall_s < DEADLINE_S, (
        f"1000-arc decompose run took {wall_s:.1f}s, over the {DEADLINE_S:.0f}s "
        f"CI deadline"
    )

    record = {
        "instance": {"generator": "clustered_graph", **INSTANCE,
                     "bandwidth_range": list(INSTANCE["bandwidth_range"])},
        "options": {"strategy": "decompose", "max_arity": 2,
                    "polish_placement": False},
        "wall_seconds": wall_s,
        "nproc": os.cpu_count(),
        "deadline_seconds": DEADLINE_S,
        "total_cost": result.total_cost,
        "point_to_point_cost": p2p_cost,
        "savings_ratio": savings,
        "n_clusters": report.n_clusters,
        "cluster_sizes": report.cluster_sizes,
        "coarsening_rounds": report.coarsening_rounds,
        "boundary_pairs_pruned": report.boundary_pairs_pruned,
        "gap_bound": report.gap_bound,
        "certified": report.certified,
        "candidates": len(result.candidates.all),
        "mergings": len(result.candidates.mergings),
        "selected": len(result.selected),
    }
    atomic_write(RESULT_PATH, json.dumps(record, indent=2) + "\n")

    print()
    print(
        comparison_table(
            "S3 — 1000-arc cluster decomposition",
            [
                ("arcs", 1000, len(graph)),
                ("clusters certified", ">= 2", report.n_clusters),
                ("optimality gap bound", "0 (certified)",
                 f"{report.gap_bound} ({'certified' if report.certified else 'uncertified'})"),
                ("wall time [s]", f"< {DEADLINE_S:.0f}", f"{wall_s:.1f}"),
                ("cost vs point-to-point", "< 1.0",
                 f"{result.total_cost / p2p_cost:.3f}"),
                ("savings", "-", f"{savings:.1%}"),
                ("mergings enumerated", "-", len(result.candidates.mergings)),
            ],
        )
    )
