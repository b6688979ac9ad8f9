"""Property-based tests of the full synthesis pipeline.

The heavyweight guarantees:

- the exact synthesis (lemma pruning + UCP) matches the exhaustive
  partition oracle on random small instances — i.e. the pruning lemmas
  never cut the true optimum;
- Lemma 3.1-pruned pairs never co-occur inside a merge group of the
  exhaustive optimum;
- every synthesized graph passes the Definition 2.4 validator and
  never costs more than the point-to-point baseline.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import PruningLevel, SynthesisOptions, compute_matrices, synthesize
from repro.baselines import exhaustive_synthesis, point_to_point_baseline
from repro.core.pruning import lemma_3_1_not_mergeable
from repro.core.validation import validate
from repro.covering import solve_ilp
from repro.netgen import clustered_graph, two_tier_library, uniform_graph

# deliberately varied economics: trunk/feeder price ratios around the
# merge/no-merge crossover, with and without node costs.
libraries = st.builds(
    two_tier_library,
    fast_cost_per_unit=st.sampled_from([2.5, 3.0, 4.0, 5.5, 7.0]),
    mux_cost=st.sampled_from([0.0, 5.0, 40.0]),
    demux_cost=st.sampled_from([0.0, 5.0]),
)

small_clustered = st.builds(
    clustered_graph,
    n_clusters=st.just(2),
    ports_per_cluster=st.sampled_from([2, 3]),  # >= 4 ports: 5 arcs always fit
    n_arcs=st.integers(min_value=2, max_value=5),
    separation=st.sampled_from([30.0, 100.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)

small_uniform = st.builds(
    uniform_graph,
    n_ports=st.sampled_from([4, 5]),
    n_arcs=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)

small_graphs = st.one_of(small_clustered, small_uniform)


@settings(max_examples=25, deadline=None)
@given(small_graphs, libraries)
def test_exact_synthesis_matches_partition_oracle(graph, library):
    """Pruning + covering loses nothing versus brute-force partitions."""
    exact = synthesize(graph, library)
    oracle = exhaustive_synthesis(graph, library, check=False)
    assert exact.total_cost == pytest.approx(oracle.total_cost, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(small_graphs, libraries)
def test_lemma_31_never_prunes_optimal_pairs(graph, library):
    """Soundness of Lemma 3.1: pairs it declares unmergeable never appear
    together inside any merge group of the optimum."""
    matrices = compute_matrices(graph)
    name_to_idx = {a.name: i for i, a in enumerate(graph.arcs)}
    exact = synthesize(graph, library)
    # the exact optimum equals the partition oracle (previous property),
    # so checking its merge groups checks the oracle's too.
    for group in exact.merged_groups:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert not lemma_3_1_not_mergeable(
                    matrices, name_to_idx[a], name_to_idx[b]
                ), f"optimal merge {group} contains a Lemma 3.1-pruned pair ({a}, {b})"


@settings(max_examples=25, deadline=None)
@given(small_graphs, libraries)
def test_synthesis_validates_and_never_exceeds_p2p(graph, library):
    result = synthesize(graph, library)
    validate(result.implementation, graph)
    baseline = point_to_point_baseline(graph, library, check=False)
    assert result.total_cost <= baseline.total_cost + 1e-9
    assert result.implementation.cost() == pytest.approx(result.total_cost, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(small_graphs, libraries)
def test_pruning_none_and_lemmas_agree(graph, library):
    """Turning pruning off entirely (exponential) gives the same optimum —
    the lemmas only remove provably-suboptimal candidates."""
    lemmas = synthesize(graph, library, SynthesisOptions(pruning=PruningLevel.LEMMAS))
    none = synthesize(graph, library, SynthesisOptions(pruning=PruningLevel.NONE))
    assert lemmas.total_cost == pytest.approx(none.total_cost, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(small_graphs, libraries)
def test_bnb_and_ilp_agree_end_to_end(graph, library):
    # the served (screened, width-routed) cover against HiGHS on the
    # full, unscreened cover
    result = synthesize(graph, library)
    assert result.total_cost == pytest.approx(solve_ilp(result.covering).weight, rel=1e-6)
