"""Construction and costing of K-way arc mergings (Definition 2.8).

A merging of arcs ``a_1..a_k`` routes all of them through a *common
path* — here modelled as the three-stage pipeline

    u_i --feeder_i--> [mux @ s] --trunk--> [demux @ t] --distributor_i--> v_i

where every stage is itself an optimum point-to-point implementation
(:mod:`repro.core.point_to_point`), the trunk carries the *sum* of the
merged bandwidths (mux semantics, matching Theorem 3.2), and the
positions ``s``/``t`` are chosen by the placement optimizer
(:mod:`repro.core.placement`).  Degenerate stages — a source sitting on
the merge point, or all arcs sharing a sink so the demux collapses onto
it — fall out naturally as zero-length stages whose cost is the link
family's fixed cost (zero for per-unit-priced links).

The module produces :class:`MergingPlan` objects (pure costed
descriptions) and can materialize them into an implementation graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import current_persistent_cache
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import InfeasibleError
from .geometry import Norm, Point
from .implementation import ImplementationGraph, Path
from .library import CommunicationLibrary, NodeKind, NodeSpec
from .mux_trees import tree_node_count
from .placement import optimize_two_points
# perfbench traces the placement layer under this module's names
from .placement import optimize_two_points_batch  # noqa: F401
from .point_to_point import (
    PointToPointPlan,
    best_point_to_point,
    materialize_plan,
    stage_cost,
)

__all__ = [
    "MergingPlan",
    "build_merging_plan",
    "build_merging_plans_batch",
    "materialize_merging",
]

#: distances below this are treated as "the stage collapsed onto a point".
_ZERO_LENGTH = 1e-9


@dataclass(frozen=True)
class MergingPlan:
    """A costed K-way merging of the named constraint arcs.

    ``cost`` is the full architecture cost of the merged implementation
    (feeders + trunk + distributors + mux + demux), i.e. the column
    weight this candidate contributes to the covering problem.
    """

    arc_names: Tuple[str, ...]
    merge_point: Point
    split_point: Point
    feeder_plans: Tuple[PointToPointPlan, ...]
    trunk_plan: PointToPointPlan
    distributor_plans: Tuple[PointToPointPlan, ...]
    mux: NodeSpec
    demux: NodeSpec
    #: instances of mux/demux needed — exceeds 1 when the node's
    #: max_degree forces a multi-level reduction tree (repro.core.mux_trees).
    mux_count: int
    demux_count: int
    cost: float
    placement_method: str

    @property
    def k(self) -> int:
        """The merging's arity (number of merged constraint arcs)."""
        return len(self.arc_names)

    @property
    def trunk_bandwidth(self) -> float:
        """Bandwidth the common path must sustain (Σ b(a_i))."""
        return self.trunk_plan.bandwidth

    @property
    def max_hops(self) -> int:
        """Worst-case communication vertices on any merged arc's path:
        feeder repeaters + mux + trunk repeaters + demux + distributor
        repeaters — a latency proxy for hop-constrained synthesis."""
        trunk_hops = self.trunk_plan.segments - 1
        worst = 0
        for fplan, dplan in zip(self.feeder_plans, self.distributor_plans):
            hops = (fplan.segments - 1) + 1 + trunk_hops + 1 + (dplan.segments - 1)
            worst = max(worst, hops)
        return worst


def _merge_cache_key(
    graph: ConstraintGraph, arcs: Sequence[Arc], polish_placement: bool
) -> list:
    """Persistent-cache key of one merging solve: the solve depends
    only on the norm, the polish flag, the group's endpoint geometry +
    bandwidths (in group order) and the library (covered by the key's
    fingerprint) — arc *names* are presentational and re-applied on a
    hit."""
    return [
        graph.norm.name,
        bool(polish_placement),
        [
            [
                a.source.position.x,
                a.source.position.y,
                a.target.position.x,
                a.target.position.y,
                a.bandwidth,
            ]
            for a in arcs
        ],
    ]


def build_merging_plan(
    graph: ConstraintGraph,
    arc_names: Sequence[str],
    library: CommunicationLibrary,
    polish_placement: bool = True,
) -> Optional[MergingPlan]:
    """Cost the K-way merging of ``arc_names``; ``None`` when infeasible.

    Infeasible means the library offers no mux or demux node, or some
    stage cannot be implemented point-to-point at all.  This is the
    paper's "simple nonlinear optimization problem" solved per
    candidate: positions of the communication nodes plus the exact
    structure and cost of every stage.
    """
    if len(arc_names) < 2:
        raise ValueError("a merging involves at least two arcs")
    arcs = [graph.arc(name) for name in arc_names]

    store = current_persistent_cache()
    cache_key = None
    if store is not None:
        cache_key = _merge_cache_key(graph, arcs, polish_placement)
        found, cached = store.lookup("merge", library, cache_key)
        if found:
            if cached is None:
                return None
            return replace(cached, arc_names=tuple(arc_names))

    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    if mux is None or demux is None:
        if store is not None:
            store.put("merge", library, cache_key, None)
        return None
    mux_count = tree_node_count(len(arcs), mux.max_degree)
    demux_count = tree_node_count(len(arcs), demux.max_degree)

    sources = [a.source.position for a in arcs]
    sinks = [a.target.position for a in arcs]
    total_bw = sum(a.bandwidth for a in arcs)

    try:
        feeder_costs = [stage_cost(a.bandwidth, library) for a in arcs]
        trunk_cost = stage_cost(total_bw, library)
        distributor_costs = feeder_costs  # same per-arc bandwidths on both sides
        placement = optimize_two_points(
            sources, sinks, feeder_costs, trunk_cost, distributor_costs,
            norm=graph.norm, polish=polish_placement,
        )
        s, t = placement.merge_point, placement.split_point

        feeder_plans = tuple(
            best_point_to_point(graph.norm.distance(a.source.position, s), a.bandwidth, library)
            for a in arcs
        )
        trunk_plan = best_point_to_point(graph.norm.distance(s, t), total_bw, library)
        distributor_plans = tuple(
            best_point_to_point(graph.norm.distance(t, a.target.position), a.bandwidth, library)
            for a in arcs
        )
    except InfeasibleError:
        if store is not None:
            store.put("merge", library, cache_key, None)
        return None

    cost = (
        sum(p.cost for p in feeder_plans)
        + trunk_plan.cost
        + sum(p.cost for p in distributor_plans)
        + mux_count * mux.cost
        + demux_count * demux.cost
    )
    plan = MergingPlan(
        arc_names=tuple(arc_names),
        merge_point=s,
        split_point=t,
        feeder_plans=feeder_plans,
        trunk_plan=trunk_plan,
        distributor_plans=distributor_plans,
        mux=mux,
        demux=demux,
        mux_count=mux_count,
        demux_count=demux_count,
        cost=cost,
        placement_method=placement.method,
    )
    if store is not None:
        store.put("merge", library, cache_key, plan)
    return plan


def build_merging_plans_batch(
    graph: ConstraintGraph,
    groups: Sequence[Sequence[str]],
    library: CommunicationLibrary,
    polish_placement: bool = True,
) -> List[Optional[MergingPlan]]:
    """:func:`build_merging_plan` for every group, in order — the name
    candidate generation plans each chunk through."""
    return [
        build_merging_plan(graph, names, library, polish_placement=polish_placement)
        for names in groups
    ]


def materialize_merging(
    impl: ImplementationGraph,
    graph: ConstraintGraph,
    plan: MergingPlan,
) -> Dict[str, List[Path]]:
    """Instantiate a merging plan into ``impl``.

    Adds the mux and demux vertices, materializes every stage, and
    returns, per merged constraint arc, the list of end-to-end paths
    (every feeder branch × trunk branch × distributor branch
    combination — contiguous by construction through the shared mux and
    demux vertices).
    """
    mux_v = impl.add_communication_vertex(plan.mux, plan.merge_point)
    demux_v = impl.add_communication_vertex(plan.demux, plan.split_point)
    # extra reduction-tree levels (bounded fan-in): cost-carrying node
    # instances co-located with the merge/split points.
    for _ in range(plan.mux_count - 1):
        impl.add_communication_vertex(plan.mux, plan.merge_point)
    for _ in range(plan.demux_count - 1):
        impl.add_communication_vertex(plan.demux, plan.split_point)

    for name in plan.arc_names:
        arc = graph.arc(name)
        impl.add_computational_vertex(arc.source)
        impl.add_computational_vertex(arc.target)

    trunk_paths = materialize_plan(impl, plan.trunk_plan, mux_v.name, demux_v.name)

    result: Dict[str, List[Path]] = {}
    for arc, fplan, dplan in zip(
        [graph.arc(n) for n in plan.arc_names], plan.feeder_plans, plan.distributor_plans
    ):
        feeder_paths = materialize_plan(impl, fplan, arc.source.name, mux_v.name)
        dist_paths = materialize_plan(impl, dplan, demux_v.name, arc.target.name)
        combined: List[Path] = []
        for fp in feeder_paths:
            for tp in trunk_paths:
                for dp in dist_paths:
                    combined.append(Path(fp.arc_names + tp.arc_names + dp.arc_names))
        result[arc.name] = combined
        impl.set_arc_implementation(arc.name, combined)
    return result
