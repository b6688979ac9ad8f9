"""Cluster-decomposition strategy: partition certificate, strategy
dispatch, the subset valve, and exactness against the exhaustive
pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Budget,
    SynthesisError,
    SynthesisOptions,
    synthesize,
)
from repro.core.decompose import (
    DecompositionReport,
    certified_partition,
    _clusters_from_labels,
)
from repro.core.matrices import compute_matrices
from repro.core.synthesis import AUTO_EXACT_MAX_ARCS, resolve_strategy
from repro.io.json_io import synthesis_result_to_dict
from repro.netgen import clustered_graph
from repro.domains import wan_library


@pytest.fixture(scope="module")
def two_island_instance():
    """Two tight 6-port islands, purely local traffic — the shape the
    certificate must split into (at least) two clusters."""
    graph = clustered_graph(
        n_clusters=2,
        ports_per_cluster=6,
        n_arcs=16,
        cluster_spread=4.0,
        separation=800.0,
        bandwidth_range=(1.0, 3.0),
        seed=7,
        intra_fraction=1.0,
    )
    return graph, wan_library()


class TestCertifiedPartition:
    def test_splits_separated_islands(self, two_island_instance):
        graph, library = two_island_instance
        labels, rounds, boundary = certified_partition(compute_matrices(graph), library)
        assert len(set(labels.tolist())) >= 2
        assert boundary > 0

    def test_clusters_respect_island_membership(self, two_island_instance):
        # no certified cluster may span both spatial islands: every
        # cross-island pair has a huge Lemma 3.1 margin
        graph, library = two_island_instance
        matrices = compute_matrices(graph)
        labels, _, _ = certified_partition(matrices, library)
        island = {}
        for i, name in enumerate(matrices.arc_names):
            arc = graph.arc(name)
            island[i] = arc.source.position.x > 0  # islands sit at x = ±800
        for cluster in _clusters_from_labels(labels):
            assert len({island[i] for i in cluster}) == 1

    def test_labels_deterministic(self, two_island_instance):
        graph, library = two_island_instance
        matrices = compute_matrices(graph)
        a = certified_partition(matrices, library)
        b = certified_partition(matrices, library)
        assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]

    def test_dense_instance_coarsens_to_one_cluster(self, wan_graph, wan_lib):
        # the paper's WAN arcs all interact — the certificate must
        # refuse to split rather than produce an unsound partition
        labels, _, _ = certified_partition(compute_matrices(wan_graph), wan_lib)
        assert len(set(labels.tolist())) == 1


class TestDecomposeStrategy:
    def test_matches_exact_on_islands(self, two_island_instance):
        graph, library = two_island_instance
        exact = synthesize(graph, library, SynthesisOptions(strategy="exact", max_arity=3))
        dec = synthesize(graph, library, SynthesisOptions(strategy="decompose", max_arity=3))
        assert dec.total_cost == pytest.approx(exact.total_cost, rel=1e-9)
        assert dec.decomposition is not None
        assert dec.decomposition.certified
        assert dec.decomposition.gap_bound == 0.0
        assert dec.decomposition.n_clusters >= 2

    def test_matches_exact_on_wan(self, wan_graph, wan_lib):
        # coarsened to one cluster, decompose degenerates to the exact
        # pipeline and must return the identical cover
        exact = synthesize(wan_graph, wan_lib)
        dec = synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="decompose"))
        assert dec.total_cost == pytest.approx(exact.total_cost, rel=1e-9)
        assert sorted(c.label() for c in dec.selected) == sorted(
            c.label() for c in exact.selected
        )
        assert dec.decomposition.gap_bound == 0.0

    def _second_cluster_p2p_fault(self, graph, library):
        """A timeout injected into the *second* cluster's p2p pass."""
        from repro.runtime import FaultSpec

        matrices = compute_matrices(graph)
        labels, _, _ = certified_partition(matrices, library)
        first = _clusters_from_labels(labels)[0]
        return FaultSpec(site="candidates.p2p", kind="timeout", after=len(first), times=1)

    def test_budget_death_midway_degrades(self, two_island_instance):
        # the first cluster finishes, then the budget dies in the next
        # cluster's p2p pass: remaining clusters fall back to p2p-only,
        # the result stays feasible and honestly uncertified
        from repro.runtime import FaultInjector

        graph, library = two_island_instance
        spec = self._second_cluster_p2p_fault(graph, library)
        with FaultInjector([spec]):
            r = synthesize(
                graph,
                library,
                SynthesisOptions(strategy="decompose", max_arity=2),
                budget=Budget(deadline_s=60.0),
            )
        assert r.degradation is not None
        assert r.degradation.degraded
        assert not r.decomposition.certified
        assert r.decomposition.gap_bound is None

    def test_budget_fail_mode_raises(self, two_island_instance):
        from repro import BudgetExceeded
        from repro.runtime import FaultInjector

        graph, library = two_island_instance
        spec = self._second_cluster_p2p_fault(graph, library)
        with FaultInjector([spec]):
            with pytest.raises(BudgetExceeded):
                synthesize(
                    graph,
                    library,
                    SynthesisOptions(
                        strategy="decompose", max_arity=2, on_budget_exhausted="fail"
                    ),
                    budget=Budget(deadline_s=60.0),
                )

    def test_already_expired_budget_raises(self, two_island_instance):
        # nothing servable: same contract as the exact pipeline
        from repro import BudgetExceeded

        graph, library = two_island_instance
        with pytest.raises(BudgetExceeded):
            synthesize(
                graph,
                library,
                SynthesisOptions(strategy="decompose", max_arity=2),
                budget=Budget(deadline_s=0.0),
            )

    def test_report_serialized_in_result_dict(self, two_island_instance):
        graph, library = two_island_instance
        r = synthesize(graph, library, SynthesisOptions(strategy="decompose", max_arity=2))
        doc = synthesis_result_to_dict(r)
        assert doc["decomposition"]["strategy"] == "decompose"
        assert doc["decomposition"]["gap_bound"] == 0.0
        exact = synthesize(graph, library, SynthesisOptions(max_arity=2))
        assert synthesis_result_to_dict(exact)["decomposition"] is None


class TestStrategyDispatch:
    def test_auto_thresholds(self):
        assert resolve_strategy("auto", AUTO_EXACT_MAX_ARCS) == "exact"
        assert resolve_strategy("auto", AUTO_EXACT_MAX_ARCS + 1) == "decompose"
        assert resolve_strategy("auto", 10_000) == "decompose"

    def test_explicit_strategy_wins(self):
        assert resolve_strategy("exact", 10_000) == "exact"
        assert resolve_strategy("decompose", 2) == "decompose"

    def test_unknown_strategy_rejected(self, wan_graph, wan_lib):
        # "colgen" was a strategy once; it is refused like any stranger
        for strategy in ("magic", "colgen"):
            with pytest.raises(SynthesisError, match="strategy"):
                synthesize(wan_graph, wan_lib, SynthesisOptions(strategy=strategy))

    def test_bad_max_cluster_arcs_rejected(self):
        # forced splits are gone, so the option is refused at construction
        for value in (1, 4, 1000):
            with pytest.raises(TypeError, match="max_cluster_arcs"):
                SynthesisOptions(max_cluster_arcs=value)

    def test_exact_runs_have_no_decomposition_report(self, wan_graph, wan_lib):
        r = synthesize(wan_graph, wan_lib)
        assert r.decomposition is None

    def test_report_to_dict_roundtrips_json(self):
        import json

        report = DecompositionReport(strategy="decompose", gap_bound=0.0, certified=True)
        assert json.loads(json.dumps(report.to_dict()))["certified"] is True


class TestFingerprint:
    def test_strategy_changes_fingerprint(self, wan_graph, wan_lib):
        from repro import instance_fingerprint

        exact = instance_fingerprint(wan_graph, wan_lib, SynthesisOptions())
        dec = instance_fingerprint(
            wan_graph, wan_lib, SynthesisOptions(strategy="decompose")
        )
        assert exact != dec


class TestEnumerationValveCap:
    def test_valve_trip_caps_universe_instead_of_refusing(
        self, wan_graph, wan_lib, monkeypatch
    ):
        # where the exact pipeline refuses an instance whose subset
        # count blows the enumeration valve, decompose serves the
        # arities below the one that tripped it: a feasible result with
        # an honestly voided certificate
        from repro.core import candidates as cand_mod
        from repro.core.exceptions import InfeasibleError

        # WAN's 8 arcs: the 28 pairs finish, the triples trip the valve
        monkeypatch.setattr(cand_mod, "MAX_ENUMERATED_SUBSETS", 30)
        with pytest.raises(InfeasibleError, match="set\\s+max_arity"):
            synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="exact"))

        r = synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="decompose"))
        d = r.decomposition
        assert not d.certified and d.gap_bound is None
        assert any("capped below arity 3" in note for note in d.notes)
        assert max(len(c.arc_names) for c in r.candidates.mergings) == 2
        p2p = sum(c.cost for c in r.candidates.point_to_point)
        assert r.total_cost <= p2p + 1e-9  # never worse than no merging

    def test_valve_never_trips_with_bounded_arity(self, wan_graph, wan_lib):
        # an explicit max_arity keeps the universe complete: full
        # certificate, exact cost
        r = synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="decompose", max_arity=3))
        assert r.decomposition.certified and r.decomposition.gap_bound == 0.0
        exact = synthesize(wan_graph, wan_lib, SynthesisOptions(max_arity=3))
        assert r.total_cost == pytest.approx(exact.total_cost, rel=1e-9)

    def test_valve_refuses_before_enumerating_the_arity(
        self, wan_graph, wan_lib, monkeypatch
    ):
        # the 28 pairs fit under a ceiling of 30, WAN's 35 triples of
        # its 7 still-active arcs would not: the exact run refuses
        # without enumerating one triple, and the error carries the
        # pairs' candidate set
        from repro.core import candidates as cand_mod
        from repro.core.exceptions import EnumerationLimitError
        from repro.obs import Tracer

        monkeypatch.setattr(cand_mod, "MAX_ENUMERATED_SUBSETS", 30)
        tracer = Tracer()
        with pytest.raises(EnumerationLimitError) as exc:
            synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="exact"), trace=tracer)
        assert exc.value.arity == 3
        assert tracer.counters["candidates.subsets.enumerated"] == 28
        partial = exc.value.partial
        assert partial.stats.subsets_enumerated == 28
        assert {c.k for c in partial.mergings} == {2}
        assert len(partial.point_to_point) == len(wan_graph.arcs)

    def test_capped_cluster_plans_each_survivor_once(self, wan_graph, wan_lib, monkeypatch):
        # the capped cluster is served from the pass that tripped the
        # valve, so no pair is planned a second time
        from repro.core import candidates as cand_mod

        monkeypatch.setattr(cand_mod, "MAX_ENUMERATED_SUBSETS", 30)
        r = synthesize(wan_graph, wan_lib, SynthesisOptions(strategy="decompose"), trace=True)
        stats = r.candidates.stats
        assert r.trace.counters["candidates.plans.built"] == sum(
            stats.pruning_survivors_by_k.values()
        )
        assert r.trace.counters["candidates.subsets.enumerated"] == stats.subsets_enumerated == 28
