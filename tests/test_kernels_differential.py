"""Differential pack for the vectorized numeric path.

Three synthesis hot paths run vectorized numpy code that promises the
exact doubles of a plain scalar loop: the lockstep Weiszfeld pump of
:mod:`repro.core.placement`, the batched Lemma 3.2 / Theorem 3.2
predicates of :mod:`repro.core.pruning`, and the Manhattan / Chebyshev
Δ fill of :mod:`repro.core.matrices`.  This pack keeps the scalar loops
as test oracles and holds the production code to them.  A run on the
``"numpy"`` path is production as shipped; a run on the ``"python"``
path swaps every vectorized routine for its scalar oracle.

- **Conformance differential** — every registry domain synthesized on
  both paths must produce a byte-equal result JSON (volatile keys
  stripped), and the distilled golden record must equal the committed
  fixture *exactly* (no ``approx``).
- **Random-instance differential** — a seeded sweep of generated
  instances (clustered / uniform / star / ring topologies, random
  libraries, varied norms) with the same byte-equality bar, plus
  batched placement == solo placement on every sweep instance.
- **Property tests** — the incremental Γ/Δ maintenance equals a fresh
  recomputation after arbitrary removal/insertion sequences, the
  batched predicates equal the scalar loops row by row, and the
  lockstep pump equals per-task solo runs of the scalar Weiszfeld loop.
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
from repro.core.merging import build_merging_plan, build_merging_plans_batch, stage_cost
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

MAX_ITER = placement._WEISZFELD_MAX_ITER


# ----------------------------------------------------------------------
# the scalar oracles
# ----------------------------------------------------------------------

#: oracle invocations, so a test can prove the python path reached them.
ORACLE_CALLS: collections.Counter = collections.Counter()


class _SerialPump:
    """Oracle for :class:`~repro.core.placement._LockstepPump`: every
    queued task runs the scalar Weiszfeld loop at the next pump."""

    def __init__(self, max_iter: int) -> None:
        self._max_iter = max_iter
        self._queue = []

    @property
    def in_flight(self) -> bool:
        return bool(self._queue)

    def inject(self, key, task) -> None:
        ORACLE_CALLS["pump"] += 1
        self._queue.append((key, task))

    def pump(self):
        out = [
            (key, *placement._weiszfeld_run(*task, self._max_iter))
            for key, task in self._queue
        ]
        self._queue.clear()
        return out


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
                (placement, "_LockstepPump", _SerialPump),
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
    different: WAN (Euclidean, linear costs) drives the pump and both
    predicates, the SoC case (Manhattan) the Δ fill."""
    ORACLE_CALLS.clear()
    for name in ("wan", "soc"):
        builder, max_arity = CONFORMANCE_CASES[name]
        graph, library = builder()
        _solve_stable(graph, library, "python", max_arity=max_arity)
    assert set(ORACLE_CALLS) == {"pump", "lemma", "theorem", "delta"}


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
    # and the oracle run itself matches the committed golden exactly,
    # so the chain fixture == python == numpy is closed
    assert record["total_cost"] == golden[name]["total_cost"]
    assert record["selected"] == golden[name]["selected"]


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


@pytest.mark.parametrize("norm", [MANHATTAN, CHEBYSHEV], ids=lambda n: n.name)
@pytest.mark.parametrize("seed", range(6))
def test_vectorized_delta_equals_pair_loop(norm, seed):
    graph = uniform_graph(n_ports=8, n_arcs=6 + seed, seed=seed, norm=norm)
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


@st.composite
def _weiszfeld_schedule(draw):
    """8–40 tasks of 1–10 anchors, injected in waves, and an iteration
    cap: the first wave is wide enough for a lockstep window, later
    waves land while earlier tasks are still in flight.  In some
    schedules tasks start on one of their own anchors (a coincident
    anchor: the masked redo) or have every anchor on the start
    (nothing pulls: den == 0)."""
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    m = draw(st.integers(8, 40))
    kcap = draw(st.integers(1, 10), label="max anchors")
    starts = ["centroid"]
    if draw(st.booleans(), label="coincident starts"):
        starts += ["anchor", "all-coincident"]
    tasks = []
    for _ in range(m):
        k = draw(st.integers(1, kcap))
        start = draw(st.sampled_from(starts))
        if start == "all-coincident":
            x, y = draw(coord), draw(coord)
            axs, ays = [x] * k, [y] * k
        else:
            axs = [draw(coord) for _ in range(k)]
            ays = [draw(coord) for _ in range(k)]
        aws = [draw(st.floats(0.1, 100.0)) for _ in range(k)]
        if start == "centroid":
            cx, cy = math.fsum(axs) / k, math.fsum(ays) / k
        else:
            i = draw(st.integers(0, k - 1))
            cx, cy = axs[i], ays[i]
        spread = max(max(axs) - min(axs), max(ays) - min(ays), 1.0)
        tasks.append((axs, ays, aws, cx, cy, 1e-9 * spread, (1e-12 * spread) ** 2))
    cuts = sorted(draw(st.sets(st.integers(8, m - 1), max_size=3)) if m > 8 else [])
    waves = [tasks[a:b] for a, b in zip([0] + cuts, cuts + [m])]
    max_iter = draw(st.sampled_from([MAX_ITER, 100, 20]), label="max_iter")
    return waves, max_iter


@pytest.mark.parametrize("path", VECTORIZED)
@given(schedule=_weiszfeld_schedule())
@settings(max_examples=60, deadline=None)
def test_lockstep_weiszfeld_batch_matches_solo_runs(path, schedule):
    """The lockstep pump (zero-weight padding, per-row finish sweeps,
    masked redo, scalar straggler tail) replays each task's solo
    scalar-loop trajectory exactly: same point bits, same iteration
    count — whatever else is in flight."""
    waves, max_iter = schedule
    with _numeric_path(path):
        pump = placement._LockstepPump(max_iter)
    windows = collections.Counter()
    run_window = pump._window

    def counted_window():
        windows["lockstep"] += 1
        return run_window()

    pump._window = counted_window
    results = {}
    key = 0
    for wave in waves:
        for task in wave:
            pump.inject(key, task)
            key += 1
        for k, x, y, it in pump.pump():
            results[k] = (x, y, it)
    while pump.in_flight:
        for k, x, y, it in pump.pump():
            results[k] = (x, y, it)

    tasks = [task for wave in waves for task in wave]
    solo = [placement._weiszfeld_run(*task, max_iter) for task in tasks]
    assert [results[i] for i in range(len(tasks))] == solo
    assert windows["lockstep"] > 0
