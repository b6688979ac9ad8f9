"""Vectorized candidate generation and the hot-path correctness fixes.

Covers the batched pruning predicates' agreement with the scalar ones,
plus regression tests for four bugs fixed in the same change:

1. ``_Search.run`` recursed twice per node — RecursionError on covering
   instances a few hundred columns wide (now an explicit stack);
2. ``GenerationStats.survivors_by_k`` counted pruning survivors, not
   generated candidates — infeasible plans inflated it (now
   post-feasibility, with ``pruning_survivors_by_k`` keeping the raw
   pruning outcome);
3. ``theorem_3_2_not_mergeable``'s tolerance pruned subsets strictly
   *below* the threshold (unsound for a sufficient condition);
4. library-derived caches (stage cost, point-to-point memo) survived
   library mutation and broke pickling.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np
import pytest

from repro import (
    CommunicationLibrary,
    Link,
    NodeKind,
    NodeSpec,
    generate_candidates,
)
from repro.core.matrices import compute_matrices
from repro.core.merging import stage_cost
from repro.core.point_to_point import best_point_to_point
from repro.core.pruning import (
    lemma_3_2_not_mergeable,
    lemma_3_2_not_mergeable_batch,
    theorem_3_2_not_mergeable,
    theorem_3_2_not_mergeable_batch,
)
from repro.covering.bnb import SolverOptions, solve_cover
from repro.covering.matrix import Column, CoveringProblem
from repro.netgen import parallel_channels_graph


class TestBnbExplicitStack:
    """Bug 1: recursion-per-node blew the interpreter stack."""

    @staticmethod
    def _deep_instance(n: int) -> CoveringProblem:
        """n rows, each coverable by exactly its own column: with
        reductions and bounds off, the 1-branch chain is n levels deep
        (every 0-branch dies immediately as uncoverable)."""
        rows = [f"r{i}" for i in range(n)]
        cols = [
            Column(name=f"c{i}", rows=frozenset({f"r{i}"}), weight=1.0)
            for i in range(n)
        ]
        return CoveringProblem(rows, cols)

    def test_deep_instance_no_recursion_error(self):
        n = 400
        problem = self._deep_instance(n)
        options = SolverOptions(
            use_reductions=False, use_lower_bounds=False, use_lp_bound=False
        )
        # Leave far less headroom than the tree is deep: the recursive
        # implementation needed >= n frames and died here.
        old_limit = sys.getrecursionlimit()
        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        sys.setrecursionlimit(depth + 160)
        try:
            solution = solve_cover(problem, options)
        finally:
            sys.setrecursionlimit(old_limit)
        assert solution.optimal
        assert solution.weight == pytest.approx(float(n))
        assert len(solution.column_names) == n

    def test_deep_instance_matches_reduced_solver(self):
        problem = self._deep_instance(40)
        bare = solve_cover(
            problem,
            SolverOptions(use_reductions=False, use_lower_bounds=False, use_lp_bound=False),
        )
        full = solve_cover(problem)
        assert bare.weight == pytest.approx(full.weight)
        assert set(bare.column_names) == set(full.column_names)


class TestSurvivorAccounting:
    """Bug 2: survivors_by_k counted subsets whose plan later failed."""

    def test_infeasible_plans_not_counted_as_survivors(self):
        graph = parallel_channels_graph(k=2, distance=100.0, pitch=1.0)
        lib = CommunicationLibrary("links-only")
        lib.add_link(Link("wire", bandwidth=1000.0, cost_per_unit=1.0))
        # No mux/demux: the pair survives pruning but no merging plan exists.
        cs = generate_candidates(graph, lib)
        assert cs.stats.pruning_survivors_by_k[2] == 1
        assert cs.stats.survivors_by_k[2] == 0
        assert cs.stats.infeasible_plans == 1
        assert cs.stats.total_mergings == 0
        assert len(cs.mergings) == 0

    def test_feasible_instance_counts_agree(self, wan_graph, wan_lib):
        """On the WAN example every pruning survivor is feasible, so the
        two families of counters coincide (paper Fig. 4 narrative)."""
        cs = generate_candidates(wan_graph, wan_lib)
        assert cs.stats.pruning_survivors_by_k == cs.stats.survivors_by_k


class TestTheorem32Tolerance:
    """Bug 3: tolerance direction pruned strictly-below-threshold subsets."""

    def test_strictly_below_threshold_is_kept(self):
        # total = 25e6, threshold = 25e6 + 0.005: strictly below.  The
        # old keep-unfavouring tolerance (threshold - tol*scale) pruned
        # this — unsound, since Theorem 3.2 is only sufficient.
        assert not theorem_3_2_not_mergeable([10e6, 15e6], 15e6 + 0.005)

    def test_exact_equality_still_prunes(self):
        # total = 25 == threshold = 15 + 10: the theorem's >= includes it.
        assert theorem_3_2_not_mergeable([10.0, 15.0], 15.0)

    def test_clearly_above_threshold_prunes(self):
        assert theorem_3_2_not_mergeable([10.0, 15.0], 10.0)

    def test_clearly_below_threshold_keeps(self):
        assert not theorem_3_2_not_mergeable([10.0, 15.0], 100.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        batch = rng.uniform(1.0, 50.0, size=(64, 3))
        # Mix in exact-boundary rows so the equality arm is exercised.
        batch[0] = [10.0, 15.0, 5.0]  # total 30 == 25 + min 5
        verdicts = theorem_3_2_not_mergeable_batch(batch, 25.0)
        for row, verdict in zip(batch, verdicts):
            assert verdict == theorem_3_2_not_mergeable(list(row), 25.0)


class TestBatchPruningEquivalence:
    """The vectorized Lemma 3.2 must agree with the scalar path on
    every subset — it's the identity guarantee's foundation."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_lemma_batch_matches_scalar(self, wan_graph, k):
        from itertools import combinations

        matrices = compute_matrices(wan_graph)
        n = len(matrices.arc_names)
        subsets = np.array(list(combinations(range(n), k)), dtype=int)
        verdicts = lemma_3_2_not_mergeable_batch(matrices, subsets)
        for subset, verdict in zip(subsets, verdicts):
            assert verdict == lemma_3_2_not_mergeable(matrices, subset)

    def test_batch_rejects_malformed_input(self, wan_graph):
        matrices = compute_matrices(wan_graph)
        with pytest.raises(ValueError):
            lemma_3_2_not_mergeable_batch(matrices, np.array([[0], [1]]))
        with pytest.raises(ValueError):
            theorem_3_2_not_mergeable_batch(np.array([1.0, 2.0]), 5.0)


class TestLibraryDerivedCaches:
    """Bug 4: derived caches survived mutation and broke pickling."""

    @staticmethod
    def _library() -> CommunicationLibrary:
        lib = CommunicationLibrary("cache-test")
        lib.add_link(Link("slow", bandwidth=100.0, cost_per_unit=5.0))
        lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=1.0))
        lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=1.0))
        return lib

    def test_p2p_memo_hits(self):
        lib = self._library()
        first = best_point_to_point(50.0, 10.0, lib)
        again = best_point_to_point(50.0, 10.0, lib)
        assert again is first  # memo hit, not a recomputation

    def test_p2p_memo_invalidated_by_add_link(self):
        lib = self._library()
        before = best_point_to_point(50.0, 10.0, lib)
        lib.add_link(Link("fast-cheap", bandwidth=1000.0, cost_per_unit=1.0))
        after = best_point_to_point(50.0, 10.0, lib)
        assert after is not before
        assert after.cost < before.cost
        assert after.link.name == "fast-cheap"

    def test_stage_cost_cache_invalidated_by_mutation(self):
        lib = self._library()
        fn = stage_cost(50.0, lib)
        assert stage_cost(50.0, lib) is fn
        lib.add_link(Link("fast-cheap", bandwidth=1000.0, cost_per_unit=1.0))
        fn2 = stage_cost(50.0, lib)
        assert fn2 is not fn

    def test_version_counter_bumps_on_mutation(self):
        lib = self._library()
        v0 = lib.version
        lib.add_link(Link("extra", bandwidth=10.0, cost_per_unit=9.0))
        assert lib.version > v0

    def test_used_library_still_pickles(self):
        """Caches hold closures (unpicklable) — __getstate__ must drop
        them or the process pool can't ship the library to workers."""
        lib = self._library()
        stage_cost(50.0, lib)  # populate the closure cache
        best_point_to_point(50.0, 10.0, lib)  # populate the p2p memo
        clone = pickle.loads(pickle.dumps(lib))
        # The clone works and re-derives its own caches.
        assert best_point_to_point(50.0, 10.0, clone).cost == pytest.approx(
            best_point_to_point(50.0, 10.0, lib).cost
        )
