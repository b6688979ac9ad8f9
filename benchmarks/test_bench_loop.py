"""Experiment L1 — the closed synthesis/simulation loop on the WAN.

Times a full margin sweep of :func:`repro.loop.margin_sweep` over the
paper's WAN instance: every margin must converge within the iteration
budget, the cost x simulated-latency front must be non-empty and
dominance-free, and the sweep must serialize byte-identically on a
re-run (the determinism contract the CI smoke job also checks).
Iterations-to-convergence, front size, and wall time land in
``BENCH_loop.json`` at the repo root (uploaded as a CI artifact).
"""

import json
import os
import time
from pathlib import Path

from repro.domains import wan_example
from repro.io import atomic_write
from repro.loop import LoopOptions, margin_sweep, sweep_front, sweep_to_json

from .conftest import comparison_table

#: measured ~2s single-core; generous headroom for slow CI runners.
DEADLINE_S = 120.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_loop.json"

MARGINS = (0.0, 0.1, 0.25, 0.5)
LOOP = LoopOptions(margin=0.0, max_iterations=5)


def test_bench_loop_wan_margin_sweep(benchmark):
    graph, library = wan_example()

    def run():
        return margin_sweep(graph, library, margins=MARGINS, loop=LOOP)

    t0 = time.perf_counter()
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0

    assert all(p.converged for p in points), (
        f"unconverged margins: {[p.margin for p in points if not p.converged]}"
    )
    max_iters = max(p.iterations for p in points)
    assert max_iters <= LOOP.max_iterations

    front = sweep_front(points)
    assert front, "Pareto front is empty"
    for p in front:
        assert not any(q.dominates(p) for q in points)

    doc = sweep_to_json(points, front, instance=graph.name)
    again = margin_sweep(graph, library, margins=MARGINS, loop=LOOP)
    assert sweep_to_json(again, sweep_front(again), instance=graph.name) == doc

    assert wall_s < DEADLINE_S, (
        f"WAN margin sweep took {wall_s:.1f}s, over the {DEADLINE_S:.0f}s "
        f"CI deadline"
    )

    record = {
        "instance": graph.name,
        "margins": list(MARGINS),
        "max_iterations_budget": LOOP.max_iterations,
        "sim": LOOP.sim,
        "wall_seconds": wall_s,
        "deadline_seconds": DEADLINE_S,
        "iterations_to_convergence": {
            str(p.margin): p.iterations for p in points
        },
        "max_iterations_observed": max_iters,
        "front_size": len(front),
        "front": [
            {"margin": p.margin, "cost": p.cost, "latency": p.latency}
            for p in front
        ],
        "cost_span": [min(p.cost for p in points), max(p.cost for p in points)],
        "latency_span": [
            min(p.latency for p in points),
            max(p.latency for p in points),
        ],
        "deterministic_rerun": True,
        "nproc": os.cpu_count(),
    }
    atomic_write(RESULT_PATH, json.dumps(record, indent=2, sort_keys=True) + "\n")

    print()
    print(
        comparison_table(
            "L1 — closed-loop WAN margin sweep",
            [
                ("margins swept", len(MARGINS), len(points)),
                ("all converged", "yes", "yes"),
                ("max iterations", f"<= {LOOP.max_iterations}", max_iters),
                ("front size", ">= 1", len(front)),
                ("byte-identical re-run", "yes", "yes"),
                ("wall time [s]", f"< {DEADLINE_S:.0f}", f"{wall_s:.1f}"),
            ],
        )
    )
