"""Differential pack for the vectorized numeric path, and an
independent optimality check of merge placement.

Two synthesis hot paths run vectorized numpy code that promises the
exact doubles of a plain scalar loop: the batched Lemma 3.2 / Theorem
3.2 predicates of :mod:`repro.core.pruning`, and the Δ fill of
:mod:`repro.core.matrices`.  This pack keeps the
scalar loops as test oracles and holds the production code to them.  A
run on the ``"numpy"`` path is production as shipped; a run on the
``"python"`` path swaps every vectorized routine for its scalar oracle.

- **Conformance differential** — every registry domain synthesized on
  both paths must produce a byte-equal result JSON (volatile keys
  stripped), and the distilled golden record must match the committed
  fixture: identical selections and counts, placement-derived costs
  within 1e-9 relative.
- **Random-instance differential** — a seeded sweep of generated
  instances (clustered / uniform / star / ring topologies, random
  libraries, varied norms) with the same byte-equality bar, plus
  batched placement == solo placement on every sweep instance.
- **Placement certificate** — every linear-Euclidean merging plan of
  the conformance pack and the sweep satisfies 0 ∈ ∂F(s, t), checked
  from first principles rather than against another solver.
- **Property tests** — the incremental Γ/Δ maintenance equals a fresh
  recomputation after arbitrary removal/insertion sequences, and the
  batched predicates equal the scalar loops row by row.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro import SynthesisOptions, synthesize
from repro.batch.runner import stable_result_dict
from repro.core import matrices as matrices_mod
from repro.core import placement, pruning
from repro.core.constraint_graph import ConstraintGraph
from repro.core.geometry import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.core.matrices import (
    ArcMatrices,
    IncrementalArcMatrices,
    compute_delta,
    compute_matrices,
)
from repro.core.exceptions import InfeasibleError
from repro.core.merging import build_merging_plan, build_merging_plans_batch
from repro.core.point_to_point import stage_cost
from repro.core.pruning import (
    PRUNE_TOL,
    lemma_3_2_not_mergeable_batch,
    theorem_3_2_not_mergeable_batch,
)
from repro.domains.conformance import CONFORMANCE_CASES, conformance_record
from repro.netgen import (
    clustered_graph,
    random_library,
    ring_graph,
    star_graph,
    two_tier_library,
    uniform_graph,
)

# ----------------------------------------------------------------------
# the scalar oracles
# ----------------------------------------------------------------------

#: oracle invocations, so a test can prove the python path reached them.
ORACLE_CALLS: collections.Counter = collections.Counter()


def _lemma_3_2_loops(gamma, delta, subsets):
    """Lemma 3.2 by plain loops: every pivot's column sums, in member order."""
    ORACLE_CALLS["lemma"] += 1
    out = np.zeros(len(subsets), dtype=bool)
    for r, s in enumerate(subsets.tolist()):
        for p in s:
            gsum = 0.0
            dsum = 0.0
            for i in s:
                gsum += gamma[p][i]
                dsum += delta[p][i]
            gsum -= gamma[p][p]
            scale = max(1.0, abs(gsum), abs(dsum))
            if gsum <= dsum + PRUNE_TOL * scale:
                out[r] = True
                break
    return out


def _theorem_3_2_loops(bandwidths, max_link_bandwidth):
    """Theorem 3.2 by plain loops: left-to-right sum and running min."""
    ORACLE_CALLS["theorem"] += 1
    out = np.zeros(len(bandwidths), dtype=bool)
    for r, bs in enumerate(bandwidths.tolist()):
        total = 0.0
        mn = bs[0]
        for b in bs:
            total += b
            if b < mn:
                mn = b
        threshold = max_link_bandwidth + mn
        scale = max(1.0, abs(total), abs(threshold))
        out[r] = total >= threshold + PRUNE_TOL * scale or total == threshold
    return out


def _delta_pair_loop(graph):
    """Δ by the scalar pair loop, for every norm."""
    ORACLE_CALLS["delta"] += 1
    arcs = graph.arcs
    n = len(arcs)
    delta = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            du = graph.norm.distance(arcs[i].source.position, arcs[j].source.position)
            dv = graph.norm.distance(arcs[i].target.position, arcs[j].target.position)
            delta[i, j] = delta[j, i] = du + dv
    return delta


#: the numeric paths: "numpy" is production, "python" the oracles.
PATHS = ("numpy", "python")
#: the paths held to the python oracles.
VECTORIZED = ("numpy",)


@contextmanager
def _numeric_path(path):
    """Run the enclosed code on ``path``."""
    with ExitStack() as stack:
        if path == "python":
            for module, name, oracle in (
                (pruning, "_lemma_3_2_verdicts", _lemma_3_2_loops),
                (pruning, "_theorem_3_2_verdicts", _theorem_3_2_loops),
                (matrices_mod, "compute_delta", _delta_pair_loop),
            ):
                stack.enter_context(mock.patch.object(module, name, oracle))
        yield


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _solve_stable(graph, library, path, **opts) -> str:
    with _numeric_path(path):
        result = synthesize(graph, library, SynthesisOptions(**opts))
    return _canonical(stable_result_dict(result))


def test_python_path_reaches_every_oracle():
    """The differential below is only as strong as the python path is
    different: WAN drives both predicates, the SoC case (Manhattan) the
    Δ fill."""
    ORACLE_CALLS.clear()
    for name in ("wan", "soc"):
        builder, max_arity = CONFORMANCE_CASES[name]
        graph, library = builder()
        _solve_stable(graph, library, "python", max_arity=max_arity)
    assert set(ORACLE_CALLS) == {"lemma", "theorem", "delta"}


# ----------------------------------------------------------------------
# conformance pack on both paths
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "conformance.json"
    return json.loads(fixture.read_text())


@pytest.fixture(scope="module")
def python_records():
    with _numeric_path("python"):
        return {name: conformance_record(name) for name in CONFORMANCE_CASES}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", list(CONFORMANCE_CASES))
def test_conformance_record_bit_identical(name, path, python_records, golden):
    """Every pinned domain optimum is *bit*-identical on both paths —
    exact ``==`` on every float, not approx."""
    with _numeric_path(path):
        record = conformance_record(name)
    assert _canonical(record) == _canonical(python_records[name])
    # and the oracle run matches the committed golden: the same
    # selection and counts, and placement-derived costs within an
    # explicit tolerance (the placement solver may move the last bits)
    pinned = golden[name]
    assert record["total_cost"] == pytest.approx(pinned["total_cost"], rel=1e-9)
    assert [e["label"] for e in record["selected"]] == [e["label"] for e in pinned["selected"]]
    for live, want in zip(record["selected"], pinned["selected"]):
        assert live["cost"] == pytest.approx(want["cost"], rel=1e-9)
    for key in ("candidate_counts", "communication_vertices", "link_instances"):
        assert record[key] == pinned[key]


@pytest.mark.parametrize("path", VECTORIZED)
@pytest.mark.parametrize("name", list(CONFORMANCE_CASES))
def test_conformance_full_result_json_bit_identical(name, path):
    """The *entire* stable result document — implementation graph,
    cover, candidate costs — is byte-equal to the oracle run."""
    builder, max_arity = CONFORMANCE_CASES[name]
    graph, library = builder()
    baseline = _solve_stable(graph, library, "python", max_arity=max_arity)
    graph, library = builder()  # fresh instance: no shared mutable state
    assert _solve_stable(graph, library, path, max_arity=max_arity) == baseline


# ----------------------------------------------------------------------
# seeded random-instance differential sweep
# ----------------------------------------------------------------------


def _random_instance(seed: int):
    """A small but varied instance per seed: topology, library and
    pipeline options all rotate so the sweep crosses every hot path
    (placement, pruning batches, Δ fill, heterogeneous chains)."""
    norm = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)[seed % 3]
    kind = seed % 4
    if kind == 0:
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=5 + seed % 3,
            separation=60.0, seed=seed, norm=norm,
        )
    elif kind == 1:
        graph = uniform_graph(n_ports=6, n_arcs=5 + seed % 4, seed=seed, norm=norm)
    elif kind == 2:
        graph = star_graph(n_leaves=4 + seed % 3, inbound=bool(seed % 2))
    else:
        graph = ring_graph(n_nodes=5 + seed % 3)
    library = (
        two_tier_library() if seed % 2 == 0 else random_library(seed=seed)
    )
    options = {
        "max_arity": 3,
        "heterogeneous": seed % 5 == 0,
        "polish_placement": seed % 3 != 2,
    }
    return graph, library, options


SWEEP_SEEDS = list(range(24))


@pytest.mark.parametrize("path", VECTORIZED)
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_random_instances_bit_identical(seed, path):
    graph, library, options = _random_instance(seed)
    baseline = _solve_stable(graph, library, "python", **options)
    graph, library, options = _random_instance(seed)
    assert _solve_stable(graph, library, path, **options) == baseline


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_batched_placement_equals_solo_placement(seed):
    """Every 2- and 3-way merging of a sweep instance costs the same
    batched as solo, to the last bit: points, cost and iterations."""
    graph, library, options = _random_instance(seed)
    names = [a.name for a in graph.arcs]
    groups = [g for k in (2, 3) for g in itertools.combinations(names, k)]
    polish = options["polish_placement"]
    batch = build_merging_plans_batch(graph, groups, library, polish_placement=polish)
    solo = [build_merging_plan(graph, g, library, polish_placement=polish) for g in groups]
    assert batch == solo

    # the same groups as raw placement problems, to compare iterations
    problems = []
    for group in groups:
        arcs = [graph.arc(name) for name in group]
        try:
            feeders = tuple(stage_cost(a.bandwidth, library) for a in arcs)
            trunk = stage_cost(sum(a.bandwidth for a in arcs), library)
        except InfeasibleError:
            continue
        problems.append(
            placement.PlacementProblem(
                sources=tuple(a.source.position for a in arcs),
                sinks=tuple(a.target.position for a in arcs),
                feeder_costs=feeders,
                trunk_cost=trunk,
                distributor_costs=feeders,
                norm=graph.norm,
                polish=polish,
            )
        )
    batched = placement.optimize_two_points_batch(problems)
    assert batched == [
        placement.optimize_two_points(
            p.sources, p.sinks, p.feeder_costs, p.trunk_cost, p.distributor_costs,
            norm=p.norm, polish=p.polish,
        )
        for p in problems
    ]


# ----------------------------------------------------------------------
# placement certificate: 0 ∈ ∂F(s, t), from first principles
# ----------------------------------------------------------------------

#: a facility this close to an anchor (or to the other facility),
#: relative to the anchors' spread, is taken to sit on it.
COINCIDE_RTOL = 1e-9
#: the least subgradient of F at the placement, relative to the total
#: stage weight Σa + w + Σb, must be below this.  Every linear
#: placement, a pinned side's single facility included, stops on a
#: certified optimality gap of 1e-10 relative or on an exact kink test,
#: which bounds the subgradient the same way.
RESIDUAL_RTOL = 1e-10


def _side_terms(point, anchors, weights, eps):
    """Gradient of ``Σ w |a - point|`` over the anchors away from
    ``point``, and the total weight of the anchors on it (the radius of
    their subgradient ball)."""
    gx = gy = here = 0.0
    for (ax, ay), w in zip(anchors, weights):
        d = math.hypot(point[0] - ax, point[1] - ay)
        if d <= eps:
            here += w
        else:
            gx += w * (point[0] - ax) / d
            gy += w * (point[1] - ay) / d
    return gx, gy, here


def _least_subgradient(sources, a, sinks, b, w, s, t):
    """Norm of the least element of ∂F(s, t) for
    F = Σ a_i |u_i - s| + w |s - t| + Σ b_j |t - v_j|.

    An anchor on s or t contributes a ball of its weight; with s = t the
    trunk contributes ``(y, -y)`` for any ``|y| <= w``, minimized over
    ``y`` numerically."""
    xs = [p[0] for p in sources + sinks]
    ys = [p[1] for p in sources + sinks]
    eps = COINCIDE_RTOL * max(1.0, math.hypot(max(xs) - min(xs), max(ys) - min(ys)))
    gsx, gsy, here_s = _side_terms(s, sources, a, eps)
    gtx, gty, here_t = _side_terms(t, sinks, b, eps)

    def residual(yx, yy):
        es = max(0.0, math.hypot(gsx + yx, gsy + yy) - here_s)
        et = max(0.0, math.hypot(gtx - yx, gty - yy) - here_t)
        return math.hypot(es, et)

    r = math.hypot(s[0] - t[0], s[1] - t[1])
    if r > eps:
        return residual(w * (s[0] - t[0]) / r, w * (s[1] - t[1]) / r)

    def clipped(y):
        n = math.hypot(y[0], y[1])
        scale = min(1.0, w / n) if n > 0 else 1.0
        return residual(y[0] * scale, y[1] * scale)

    starts = [(0.0, 0.0), (-gsx, -gsy), (gtx, gty), ((gtx - gsx) / 2, (gty - gsy) / 2)]
    best = min(clipped(y) for y in starts)
    for y in starts:
        found = optimize.minimize(
            clipped, y, method="Nelder-Mead",
            options={"xatol": 1e-12 * max(w, 1.0), "fatol": 1e-15 * max(w, 1.0)},
        )
        best = min(best, found.fun)
    return best


def _placement_residuals(graph, library, result):
    """``(label, relative residual)`` of every linear-Euclidean merging
    plan among ``result``'s candidates."""
    out = []
    if graph.norm.name != "euclidean":
        return out
    for cand in result.candidates.mergings:
        plan = cand.plan
        if plan.placement_method != "weiszfeld":
            continue
        arcs = [graph.arc(name) for name in plan.arc_names]
        feeders = [stage_cost(arc.bandwidth, library) for arc in arcs]
        trunk = stage_cost(sum(arc.bandwidth for arc in arcs), library)
        a = [f.slope for f in feeders]
        total = sum(a) + trunk.slope + sum(a)
        res = _least_subgradient(
            [arc.source.position.as_tuple() for arc in arcs], a,
            [arc.target.position.as_tuple() for arc in arcs], a,
            trunk.slope, plan.merge_point.as_tuple(), plan.split_point.as_tuple(),
        )
        out.append((cand.label(), res / total))
    return out


def test_least_subgradient_certifies_known_optima():
    """The checker itself: it accepts a collapse onto a sink anchor
    (the alternating solver's stall instance, solved) and rejects the
    stalled placement."""
    u = [(1110.7008085043758, 707.724270957286), (1106.0422512929626, 703.9556650662437)]
    v = [(1102.6848492365143, 709.9248426438928), (1110.0003083885326, 707.6829093795945)]
    ws = [2000.0, 2000.0]
    assert _least_subgradient(u, ws, v, ws, 2000.0, v[1], v[1]) < 1e-9 * 8000
    stalled = (1107.4639340517012, 707.321139082228)
    assert _least_subgradient(u, ws, v, ws, 2000.0, stalled, stalled) > 1e-3 * 8000


@pytest.mark.parametrize("name", list(CONFORMANCE_CASES))
def test_conformance_placements_are_optimal(name):
    builder, max_arity = CONFORMANCE_CASES[name]
    graph, library = builder()
    result = synthesize(graph, library, SynthesisOptions(max_arity=max_arity))
    bad = [(label, r) for label, r in _placement_residuals(graph, library, result)
           if r > RESIDUAL_RTOL]
    assert not bad


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_placements_are_optimal(seed):
    graph, library, options = _random_instance(seed)
    result = synthesize(graph, library, SynthesisOptions(**options))
    bad = [(label, r) for label, r in _placement_residuals(graph, library, result)
           if r > RESIDUAL_RTOL]
    assert not bad


@pytest.mark.parametrize("norm", [EUCLIDEAN, MANHATTAN, CHEBYSHEV], ids=lambda n: n.name)
@pytest.mark.parametrize("seed", range(6))
def test_vectorized_delta_equals_pair_loop(norm, seed):
    # 6 to 31 arcs: both sides of the Euclidean fill's size cutover
    graph = uniform_graph(n_ports=8, n_arcs=6 + 5 * seed, seed=seed, norm=norm)
    assert np.array_equal(compute_delta(graph), _delta_pair_loop(graph))


# ----------------------------------------------------------------------
# incremental Γ/Δ maintenance == recompute from scratch (property)
# ----------------------------------------------------------------------


def _rebuild(graph: ConstraintGraph, arcs) -> ConstraintGraph:
    g = ConstraintGraph(norm=graph.norm, name=graph.name)
    for port in graph.ports:
        g.add_port(port.name, port.position, port.module)
    for arc in arcs:
        g.add_arc(arc)
    return g


def _assert_matrices_exact(view, reference):
    assert view.arc_names == reference.arc_names
    assert np.array_equal(view.bandwidth, reference.bandwidth)
    assert np.array_equal(view.gamma, reference.gamma)
    assert np.array_equal(view.delta, reference.delta)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_matrices_equal_recompute_under_any_edit_sequence(data):
    """After *any* interleaving of arc removals and re-insertions, the
    incrementally maintained Γ/Δ/bandwidth equal a fresh
    ``compute_matrices`` over the surviving subgraph — exactly, to the
    last bit (``np.array_equal``, no tolerance)."""
    seed = data.draw(st.integers(0, 10_000), label="seed")
    graph = uniform_graph(n_ports=6, n_arcs=data.draw(st.integers(3, 9)), seed=seed)
    inc = IncrementalArcMatrices(graph)
    current = list(graph.arcs)
    removed = []

    n_ops = data.draw(st.integers(1, 8), label="n_ops")
    for _ in range(n_ops):
        can_remove = len(current) > 1
        can_add = bool(removed)
        if can_remove and (not can_add or data.draw(st.booleans(), label="remove?")):
            victim = current.pop(data.draw(st.integers(0, len(current) - 1)))
            removed.append(victim)
            inc.remove_arc(victim.name)
        elif can_add:
            back = removed.pop(data.draw(st.integers(0, len(removed) - 1)))
            current.append(back)
            inc.add_arc(back)
        _assert_matrices_exact(inc.view(), compute_matrices(_rebuild(graph, current)))


def test_bulk_removal_equals_recompute():
    graph = clustered_graph(n_clusters=2, ports_per_cluster=4, n_arcs=10, seed=7)
    inc = IncrementalArcMatrices(graph)
    drop = [a.name for a in graph.arcs][::3]
    inc.remove_arcs(drop)
    survivors = [a for a in graph.arcs if a.name not in set(drop)]
    _assert_matrices_exact(inc.view(), compute_matrices(_rebuild(graph, survivors)))
    assert inc.updates == len(drop)


# ----------------------------------------------------------------------
# vectorized primitives == scalar oracles (property)
# ----------------------------------------------------------------------


@st.composite
def _pruning_problem(draw):
    k = draw(st.integers(2, 10))
    n = draw(st.integers(max(k, 3), 12))
    finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    d = np.array([draw(finite) for _ in range(n)])
    gamma = d[:, None] + d[None, :]
    half = np.array([[draw(finite) for _ in range(n)] for _ in range(n)])
    delta = half + half.T  # symmetric, like the real Δ
    np.fill_diagonal(delta, 0.0)
    m = draw(st.integers(1, 6))
    subsets = np.array(
        [draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
         for _ in range(m)]
    )
    bandwidths = np.array([[draw(st.floats(1.0, 1e4)) for _ in range(k)] for _ in range(m)])
    max_bw = draw(st.floats(1.0, 1e4))
    return gamma, delta, subsets, bandwidths, max_bw


@pytest.mark.parametrize("path", VECTORIZED)
@given(problem=_pruning_problem())
@settings(max_examples=60, deadline=None)
def test_predicate_batches_match_python_backend(path, problem):
    """Subsets of up to 10 arcs, so rows at and past numpy's 8-wide
    pairwise-summation switch take the column-at-a-time sums."""
    gamma, delta, subsets, bandwidths, max_bw = problem
    n = len(gamma)
    matrices = ArcMatrices(
        arc_names=tuple(f"a{i}" for i in range(n)),
        bandwidth=np.ones(n),
        gamma=gamma,
        delta=delta,
    )
    with _numeric_path(path):
        lemma = lemma_3_2_not_mergeable_batch(matrices, subsets)
        theorem = theorem_3_2_not_mergeable_batch(bandwidths, max_bw)
    assert np.array_equal(lemma, _lemma_3_2_loops(gamma, delta, subsets))
    assert np.array_equal(theorem, _theorem_3_2_loops(bandwidths, max_bw))
