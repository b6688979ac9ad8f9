"""Experiment A2 — ablation of the unate-covering solver machinery.

The paper leans on "state-of-the-art UCP solvers [4, 8]" (reductions,
lower bounds, branch-and-bound).  This bench builds the covering
instance of a 12-arc clustered synthesis and solves it with the full
solver, with reductions disabled, with lower bounds disabled, and with
the independent 0-1 ILP formulation — asserting identical optima and
reporting explored-node counts.
"""

import pytest

from repro import PruningLevel, SynthesisOptions, build_covering_problem, generate_candidates
from repro.covering import SolverOptions, solve_cover, solve_ilp
from repro.netgen import clustered_graph, two_tier_library

from .conftest import comparison_table


@pytest.fixture(scope="module")
def covering_instance():
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=4, n_arcs=9, separation=100.0, seed=42
    )
    library = two_tier_library()
    candidates = generate_candidates(graph, library, pruning=PruningLevel.LEMMAS, max_arity=3)
    return build_covering_problem(graph, candidates)


CONFIGS = {
    "full": SolverOptions(),
    "no-reductions": SolverOptions(use_reductions=False),
    "no-bounds": SolverOptions(use_lower_bounds=False, use_lp_bound=False),
    "no-lp": SolverOptions(use_lp_bound=False),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_bench_ucp_bnb_configs(benchmark, covering_instance, config):
    options = CONFIGS[config]
    solution = benchmark.pedantic(
        lambda: solve_cover(covering_instance, options), rounds=2, iterations=1
    )
    reference = solve_cover(covering_instance)
    print()
    print(
        f"bnb[{config:<13}] rows={covering_instance.n_rows} "
        f"cols={covering_instance.n_columns} nodes={solution.stats['nodes']:>6.0f} "
        f"weight={solution.weight:,.1f}"
    )
    assert solution.weight == pytest.approx(reference.weight, rel=1e-9)


def test_bench_ucp_ilp(benchmark, covering_instance):
    solution = benchmark.pedantic(
        lambda: solve_ilp(covering_instance), rounds=2, iterations=1
    )
    reference = solve_cover(covering_instance)
    rows = [
        ("covering matrix", "-", f"{covering_instance.n_rows}x{covering_instance.n_columns}"),
        ("ILP (HiGHS) MIP nodes", "-", f"{solution.stats['nodes']:.0f}"),
        ("optimum weight (ilp == bnb)", "equal", f"{solution.weight:,.1f}"),
    ]
    print()
    print(comparison_table("A2 — 0-1 ILP cross-check", rows))
    assert solution.weight == pytest.approx(reference.weight, rel=1e-6)
