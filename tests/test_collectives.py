"""Collective-communication generators and the accelerator domain."""

import math

import pytest

from repro import SynthesisOptions, synthesize
from repro.core.exceptions import ModelError
from repro.core.units import Gbps
from repro.domains import (
    collective_allgather_example,
    collective_allreduce_example,
    collective_library,
)
from repro.netgen import (
    all_to_all_graph,
    allgather_graph,
    ring_allreduce_graph,
    tree_allreduce_graph,
)


class TestRingAllreduce:
    def test_shape_and_bandwidths(self):
        g = ring_allreduce_graph(nodes=2, accels_per_node=2, rate=Gbps(4))
        k = 4
        assert len(g.arcs) == k
        assert [a.name for a in g.arcs] == [f"ring{i}" for i in range(k)]
        per_link = Gbps(4) * 2.0 * (k - 1) / k  # reduce-scatter + allgather
        for arc in g.arcs:
            assert arc.bandwidth == pytest.approx(per_link)

    def test_forms_a_single_cycle_over_all_ranks(self):
        g = ring_allreduce_graph(nodes=3, accels_per_node=2)
        succ = {a.source.name: a.target.name for a in g.arcs}
        assert len(succ) == 6  # every rank has exactly one outgoing hop
        seen, cur = [], "n0a0"
        for _ in range(6):
            seen.append(cur)
            cur = succ[cur]
        assert cur == "n0a0" and len(set(seen)) == 6

    def test_node_major_order_puts_one_hop_per_gap(self):
        """With 2 nodes x 2 accels, exactly 2 of the 4 hops cross the
        node gap — the others stay inside a chassis."""
        g = ring_allreduce_graph(nodes=2, accels_per_node=2)
        node = lambda p: p.split("a")[0]
        crossing = [
            a.name for a in g.arcs if node(a.source.name) != node(a.target.name)
        ]
        assert crossing == ["ring1", "ring3"]


class TestTreeAllreduce:
    def test_shape_and_parent_structure(self):
        g = tree_allreduce_graph(nodes=2, accels_per_node=2, rate=Gbps(4))
        assert len(g.arcs) == 2 * 3  # up + down per non-root rank
        ranks = ["n0a0", "n0a1", "n1a0", "n1a1"]
        for i in range(1, 4):
            up, down = g.arc(f"up{i}"), g.arc(f"down{i}")
            parent = ranks[(i - 1) // 2]
            assert up.source.name == ranks[i] and up.target.name == parent
            assert down.source.name == parent and down.target.name == ranks[i]
            assert up.bandwidth == down.bandwidth == Gbps(4)


class TestAllgatherAndAllToAll:
    def test_allgather_has_all_ordered_pairs_at_rate(self):
        g = allgather_graph(nodes=2, accels_per_node=2, rate=Gbps(2))
        assert len(g.arcs) == 4 * 3
        pairs = {(a.source.name, a.target.name) for a in g.arcs}
        assert len(pairs) == 12 and all(s != t for s, t in pairs)
        assert all(a.bandwidth == Gbps(2) for a in g.arcs)

    def test_all_to_all_splits_the_egress_budget(self):
        g = all_to_all_graph(nodes=2, accels_per_node=2, rate=Gbps(8))
        assert len(g.arcs) == 12
        for arc in g.arcs:
            assert arc.bandwidth == pytest.approx(Gbps(8) / 3)
        # each rank's total egress equals the budget
        egress = {}
        for arc in g.arcs:
            egress[arc.source.name] = egress.get(arc.source.name, 0.0) + arc.bandwidth
        assert all(v == pytest.approx(Gbps(8)) for v in egress.values())


class TestGeometry:
    def test_intra_node_short_cross_node_long(self):
        g = ring_allreduce_graph(
            nodes=2, accels_per_node=2, node_separation=10.0, accel_spread=0.5
        )
        node = lambda p: p.split("a")[0]
        for arc in g.arcs:
            if node(arc.source.name) == node(arc.target.name):
                assert arc.distance <= 2 * 0.5  # within the chassis
            else:
                assert arc.distance >= 10.0 - 2 * 0.5

    def test_adjacent_node_chord_matches_separation(self):
        """Node centers sit on a circle whose chord between neighbours
        is node_separation, for any node count."""
        for nodes in (2, 3, 5):
            radius = 10.0 / (2.0 * math.sin(math.pi / nodes))
            a0 = (radius * math.cos(0), radius * math.sin(0))
            a1 = (
                radius * math.cos(2 * math.pi / nodes),
                radius * math.sin(2 * math.pi / nodes),
            )
            chord = math.dist(a0, a1)
            assert chord == pytest.approx(10.0)

    def test_generators_are_deterministic(self):
        for build in (
            ring_allreduce_graph,
            tree_allreduce_graph,
            allgather_graph,
            all_to_all_graph,
        ):
            a, b = build(nodes=3, accels_per_node=2), build(nodes=3, accels_per_node=2)
            assert [(p.name, p.position.x, p.position.y) for p in a.ports] == [
                (p.name, p.position.x, p.position.y) for p in b.ports
            ]
            assert [(c.name, c.source.name, c.target.name, c.bandwidth) for c in a.arcs] == [
                (c.name, c.source.name, c.target.name, c.bandwidth) for c in b.arcs
            ]


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"nodes": 0}, "nodes"),
            ({"accels_per_node": 0}, "accels_per_node"),
            ({"nodes": 1, "accels_per_node": 1}, "at least 2"),
            ({"node_separation": 0.0}, "positive"),
            ({"accel_spread": -1.0}, "positive"),
            ({"rate": 0.0}, "rate"),
            ({"rate": float("nan")}, "rate"),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [ring_allreduce_graph, tree_allreduce_graph, allgather_graph, all_to_all_graph],
    )
    def test_bad_params_named(self, build, kwargs, fragment):
        with pytest.raises(ModelError, match=fragment):
            build(**kwargs)


class TestCollectiveDomain:
    def test_library_is_two_tier(self):
        lib = collective_library()
        nvlink, hca = lib.link("nvlink"), lib.link("hca")
        assert nvlink.bandwidth > hca.bandwidth
        assert nvlink.max_length < math.inf
        assert hca.max_length == math.inf
        assert hca.cost_fixed > nvlink.cost_fixed  # the NIC + switch port

    def test_allgather_example_merges_cross_node_streams(self):
        """The merging-heavy case: sharing hca lanes across a node's
        outbound shard streams must beat the point-to-point baseline."""
        graph, library = collective_allgather_example()
        result = synthesize(graph, library, SynthesisOptions(max_arity=4))
        assert result.total_cost < result.point_to_point_cost

    def test_allreduce_example_is_sane(self):
        graph, library = collective_allreduce_example()
        result = synthesize(graph, library)
        assert result.total_cost > 0
        assert result.total_cost <= result.point_to_point_cost


class TestScalableStrategiesCertifyCollectives:
    """Acceptance pin: on a moderate merging-heavy collective instance
    decompose reproduces the exact optimum with a certified gap bound
    of exactly 0."""

    @pytest.fixture(scope="class")
    def moderate_results(self):
        graph = all_to_all_graph(nodes=2, accels_per_node=2, rate=Gbps(8))
        library = collective_library()
        return {
            strategy: synthesize(
                graph, library, SynthesisOptions(strategy=strategy, max_arity=4)
            )
            for strategy in ("decompose", "exact")
        }

    @pytest.mark.parametrize("strategy", ["decompose"])
    def test_certified_gap_zero(self, moderate_results, strategy):
        result = moderate_results[strategy]
        assert result.decomposition is not None
        assert result.decomposition.certified
        assert result.decomposition.gap_bound == 0.0

    def test_strategies_agree_and_merge(self, moderate_results):
        dec, exact = moderate_results["decompose"], moderate_results["exact"]
        assert dec.total_cost == pytest.approx(exact.total_cost, rel=1e-9)
        assert dec.total_cost < dec.point_to_point_cost
