"""Bit-identity of the linear placement kernel against a closure-based
oracle.

:mod:`repro.core.placement` evaluates its objective into plain tuples
(``_single_terms``/``_joint_terms``), steps from them
(``_single_step``/``_joint_step``) and carries the last state of one
descent into the next kink-test interval.  The oracle below is the
earlier form of the same descent: ``_single_state``/``_joint_state``
return ``(cost, pull, step)`` with ``step`` a closure, and ``_descend``
re-evaluates the state at the start of every interval.  Run under
:func:`_oracle`, the production kink tests drive the oracle's descent,
its Fermat–Weber sums and its pull; its stage costs come from a fresh
library per stage, so no stage model is shared between bandwidths.
``optimize_two_points`` and ``weiszfeld`` must return ``==`` results
both ways, points, exact cost and iteration counts included.
"""

from __future__ import annotations

import collections
import itertools
import math
from contextlib import ExitStack, contextmanager
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest

from repro.core import placement
from repro.core.geometry import Point
from repro.core.library import CommunicationLibrary, Link, NodeKind, NodeSpec
from repro.core.placement import optimize_two_points, weiszfeld
from repro.core.point_to_point import stage_cost
from repro.domains.wan import wan_example, wan_library
from repro.netgen import clustered_graph
from repro.obs import tracing

# ----------------------------------------------------------------------
# the oracle: the closure-based descent, kept verbatim
# ----------------------------------------------------------------------


def _pull(anchors, x, y, near):
    here = px = py = 0.0
    for ax, ay, aw in anchors:
        dx = ax - x
        dy = ay - y
        d = math.sqrt(dx * dx + dy * dy)
        if d <= near:
            here += aw
        else:
            px += aw * dx / d
            py += aw * dy / d
    return here, px, py


def _fermat_weber_terms(anchors, x, y):
    cost = den = px = py = hxx = hxy = hyy = 0.0
    for ax, ay, aw in anchors:
        dx = ax - x
        dy = ay - y
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            continue
        d = math.sqrt(d2)
        c = aw / d
        cost += aw * d
        den += c
        px += c * dx
        py += c * dy
        c /= d2
        hxx += c * dy * dy
        hxy -= c * dx * dy
        hyy += c * dx * dx
    return cost, den, px, py, hxx, hxy, hyy


def _single_state(anchors, z: List[float]) -> tuple:
    cost, den, px, py, hxx, hxy, hyy = _fermat_weber_terms(anchors, z[0], z[1])

    def step(mu: float) -> Optional[List[float]]:
        axx = (1.0 - mu) * hxx + mu * den
        axy = (1.0 - mu) * hxy
        ayy = (1.0 - mu) * hyy + mu * den
        det = axx * ayy - axy * axy
        if not det > 0.0:
            return None
        return [(ayy * px - axy * py) / det, (axx * py - axy * px) / det]

    return cost, [px, py], step


def _joint_state(src, snk, w: float, z: List[float]) -> Optional[tuple]:
    sx, sy, tx, ty = z
    dx = tx - sx
    dy = ty - sy
    r2 = dx * dx + dy * dy
    if r2 == 0.0:
        return None
    s_cost, a, psx, psy, sxx, sxy, syy = _fermat_weber_terms(src, sx, sy)
    t_cost, b, ptx, pty, txx, txy, tyy = _fermat_weber_terms(snk, tx, ty)
    r = math.sqrt(r2)
    wr = w / r
    k = wr / r2
    lsx = psx + wr * dx
    lsy = psy + wr * dy
    ltx = ptx - wr * dx
    lty = pty - wr * dy

    def step(mu: float) -> Optional[List[float]]:
        nu = 1.0 - mu
        cxx = nu * k * dy * dy + mu * wr
        cxy = -nu * k * dx * dy
        cyy = nu * k * dx * dx + mu * wr
        qxx = nu * txx + mu * b + cxx
        qxy = nu * txy + cxy
        qyy = nu * tyy + mu * b + cyy
        det = qxx * qyy - qxy * qxy
        if not det > 0.0:
            return None
        xxx = (qyy * cxx - qxy * cxy) / det
        xxy = (qyy * cxy - qxy * cyy) / det
        xyx = (qxx * cxy - qxy * cxx) / det
        xyy = (qxx * cyy - qxy * cxy) / det
        ux = (qyy * ltx - qxy * lty) / det
        uy = (qxx * lty - qxy * ltx) / det
        pxx = nu * sxx + mu * a + cxx - (cxx * xxx + cxy * xyx)
        pxy = nu * sxy + cxy - (cxx * xxy + cxy * xyy)
        pyy = nu * syy + mu * a + cyy - (cxy * xxy + cyy * xyy)
        rx = lsx + cxx * ux + cxy * uy
        ry = lsy + cxy * ux + cyy * uy
        det = pxx * pyy - pxy * pxy
        if not det > 0.0:
            return None
        dsx = (pyy * rx - pxy * ry) / det
        dsy = (pxx * ry - pxy * rx) / det
        return [dsx, dsy, ux + xxx * dsx + xxy * dsy, uy + xyx * dsx + xyy * dsy]

    return s_cost + t_cost + w * r, [lsx, lsy, ltx, lty], step


def _better(cost, grad2, old_cost, old_grad2) -> bool:
    if cost < old_cost:
        return True
    return cost <= old_cost * (1 + placement._COST_ULPS) and grad2 < old_grad2


def _closure_descend(state_at, z, lim, max_iter, damp):
    state = state_at(z)
    for it in range(max_iter):
        if state is None:
            return z, it, False, damp
        cost, pull, step_at = state
        norm2 = sum(p * p for p in pull)
        if norm2 <= (lim * cost) ** 2:
            return z, it, True, damp
        while True:
            step = step_at(damp)
            if step is None:
                if damp == 1.0:
                    return z, it, False, damp
                damp = 1.0
                continue
            trial = state_at([v + d for v, d in zip(z, step)])
            if damp == 1.0 or (
                trial is not None
                and _better(trial[0], sum(p * p for p in trial[1]), cost, norm2)
            ):
                damp = max(damp / 10, placement._DAMP_MIN)
                break
            damp = min(damp * 10, 1.0)
        z = [v + d for v, d in zip(z, step)]
        state = trial
    return z, max_iter, False, damp


def _oracle_descend(terms, step, data, z, lim, max_iter, damp, state):
    """The production ``_descend`` contract over the closure descent,
    which ignores the carried ``state``."""
    calls = [0]

    def state_at(point):
        calls[0] += 1
        if len(point) == 4:
            return _joint_state(*data, point)
        return _single_state(data, point)

    z, steps, certified, damp = _closure_descend(state_at, list(z), lim, max_iter, damp)
    return tuple(z), steps, certified, damp, None, calls[0]


def _oracle_single_terms(anchors, z):
    cost, den, px, py, hxx, hxy, hyy = _fermat_weber_terms(anchors, z[0], z[1])
    return cost, px * px + py * py, z[0], z[1], den, px, py, hxx, hxy, hyy


@contextmanager
def _oracle():
    with ExitStack() as stack:
        for name, oracle in (
            ("_descend", _oracle_descend),
            ("_single_terms", _oracle_single_terms),
            ("_pull", _pull),
        ):
            stack.enter_context(mock.patch.object(placement, name, oracle))
        yield


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _duplicating_library() -> CommunicationLibrary:
    """Example 1's links with optical at 7,000 per unit: two or three
    radio branches undercut it, so a trunk's stage model depends on its
    branch count."""
    lib = CommunicationLibrary("duplicating")
    lib.add_link(Link("radio", bandwidth=11e6, cost_per_unit=2000.0))
    lib.add_link(Link("optical", bandwidth=1e9, cost_per_unit=7000.0))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=0.0))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.0))
    lib.add_node(NodeSpec("repeater", NodeKind.REPEATER, cost=0.0))
    return lib


def _problems(graph, groups):
    for names in groups:
        arcs = [graph.arc(name) for name in names]
        yield (
            [a.source.position for a in arcs],
            [a.target.position for a in arcs],
            [a.bandwidth for a in arcs],
        )


def _wan_problems():
    graph, _ = wan_example()
    names = [a.name for a in graph.arcs]
    groups = [g for k in (2, 3) for g in itertools.combinations(names, k)]
    return [(wan_library, p) for p in _problems(graph, groups)]


def _decompose300_problems(per_cluster: int = 8):
    """Pairs among the first arcs of every cluster of decompose300's
    seed-42 instance (300 arcs in 6 clusters)."""
    graph = clustered_graph(
        n_clusters=6, ports_per_cluster=12, n_arcs=300, cluster_spread=5.0,
        separation=500.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0, seed=42,
    )
    clusters = collections.defaultdict(list)
    for arc in graph.arcs:
        clusters[arc.source.module].append(arc.name)
    groups = [
        g for names in clusters.values()
        for g in itertools.combinations(names[:per_cluster], 2)
    ]
    return [(wan_library, p) for p in _problems(graph, groups)]


def _sweep_problems():
    """Every 2- and 3-way group of small two-cluster WAN instances on
    both libraries, bandwidths 4–12 Mbps so trunks need duplication."""
    out = []
    for seed in range(6):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0,
            bandwidth_range=(4e6, 12e6), seed=seed,
        )
        names = [a.name for a in graph.arcs]
        groups = [g for k in (2, 3) for g in itertools.combinations(names, k)]
        for make in (wan_library, _duplicating_library):
            out += [(make, p) for p in _problems(graph, groups)]
    return out


CORPORA = {
    "wan_example": _wan_problems,
    "decompose300": _decompose300_problems,
    "sweep": _sweep_problems,
}


def _placements(problems, oracle: bool):
    """Every problem placed with production stage costs (one library per
    library kind, shared by all problems) or, under the oracle, with
    stage costs from a fresh library per stage."""
    shared = {}
    results = []
    for make, (sources, sinks, bandwidths) in problems:
        if oracle:
            def stage(b, make=make):
                return stage_cost(b, make())
        else:
            library = shared.setdefault(make, make())

            def stage(b, library=library):
                return stage_cost(b, library)
        feeders = [stage(b) for b in bandwidths]
        results.append(
            optimize_two_points(sources, sinks, feeders, stage(sum(bandwidths)), feeders)
        )
    return results


@contextmanager
def _exit_tally(tally):
    """Count how the production solves exit: a collapse, a pin that
    holds, a certified gap, and the solves with one point pinned."""
    collapse, pin = placement._collapse, placement._pin
    descend, fermat = placement._descend, placement._weiszfeld

    def counted_collapse(*args):
        out = collapse(*args)
        tally["collapse"] += out[-1]
        return out

    def counted_pin(*args):
        out = pin(*args)
        tally["pin"] += out is not None and out[-1]
        return out

    def counted_descend(*args):
        out = descend(*args)
        tally["certified"] += len(out[0]) == 4 and out[2]
        return out

    def counted_weiszfeld(*args):
        tally["pinned_input"] += 1
        return fermat(*args)

    with ExitStack() as stack:
        for name, fn in (
            ("_collapse", counted_collapse), ("_pin", counted_pin),
            ("_descend", counted_descend), ("_weiszfeld", counted_weiszfeld),
        ):
            stack.enter_context(mock.patch.object(placement, name, fn))
        yield


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_placements_equal_the_closure_oracle(corpus):
    problems = CORPORA[corpus]()
    tally = collections.Counter()
    with _exit_tally(tally):
        production = _placements(problems, oracle=False)
    with _oracle():
        reference = _placements(problems, oracle=True)
    assert all(r.method == "weiszfeld" for r in production)
    mismatched = [
        (i, got, want) for i, (got, want) in enumerate(zip(production, reference))
        if got != want
    ]
    assert not mismatched, mismatched[:3]
    if corpus == "sweep":
        # the sweep reaches every exit of the joint solve
        assert min(tally[k] for k in ("collapse", "pin", "certified", "pinned_input")) > 0, tally


def test_sweep_shares_stage_models_across_branch_counts():
    """The sweep's trunks span one to four radio branches, so a stage
    model shared across branch counts would move its placements."""
    lib = _duplicating_library()
    slopes = {stage_cost(b * 1e6, lib).slope for b in (8, 16, 24, 30)}
    assert slopes == {2000.0, 4000.0, 6000.0}


@pytest.mark.parametrize("seed", range(4))
def test_weiszfeld_equals_the_closure_oracle(seed):
    rng = np.random.default_rng(seed)
    for size in (2, 3, 5, 8):
        anchors = [Point(*xy) for xy in rng.uniform(-50.0, 50.0, size=(size, 2))]
        weights = rng.uniform(0.5, 4.0, size=size).tolist()
        if seed % 2:
            anchors[-1] = anchors[0]  # a coincident pair
        for start in (None, Point(*rng.uniform(-50.0, 50.0, size=2))):
            got = weiszfeld(anchors, weights, start)
            with _oracle():
                want = weiszfeld(anchors, weights, start)
            assert got == want


def test_evaluations_counter_sums_every_descent():
    """``placement.evaluations`` adds up the objective evaluations of
    every descent of every linear solve, kink-test re-solves included;
    carrying the state saves the ones the oracle repeats."""
    problems = _sweep_problems()[:300]
    descend = placement._descend
    seen = collections.Counter()

    def counted(*args):
        out = descend(*args)
        seen["evaluations"] += out[-1]
        return out

    with tracing() as tracer, mock.patch.object(placement, "_descend", counted):
        _placements(problems, oracle=False)
    with tracing() as oracle_tracer, _oracle():
        _placements(problems, oracle=True)
    evaluations = tracer.counters["placement.evaluations"]
    assert evaluations == seen["evaluations"] > 0
    assert tracer.counters["placement.iterations"] == oracle_tracer.counters["placement.iterations"]
    assert evaluations < oracle_tracer.counters["placement.evaluations"]
