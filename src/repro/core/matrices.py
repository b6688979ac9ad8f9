"""The Γ and Δ matrices and the bandwidth vector of Figure 2.

The candidate-generation algorithm precomputes three quantities:

- the **bandwidth vector** ``B[i] = b(a_i)``;
- the **Constrained Distance Sum Matrix**
  ``Γ(a_i, a_j) = d(a_i) + d(a_j)`` (the paper's Table 1);
- the **Merging Distance Sum Matrix**
  ``Δ(a_i, a_j) = ||p(u_i) - p(u_j)|| + ||p(v_i) - p(v_j)||``
  (the paper's Table 2).

Both matrices are symmetric, so only the upper triangle is meaningful;
we store full dense numpy arrays for simplicity (|A| is small compared
to the candidate space) and index them by arc *name* through an order
map, so callers never juggle raw indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .constraint_graph import Arc, ConstraintGraph

__all__ = [
    "ArcMatrices",
    "IncrementalArcMatrices",
    "compute_bandwidth_vector",
    "compute_gamma",
    "compute_delta",
    "compute_matrices",
]


@dataclass(frozen=True)
class ArcMatrices:
    """Bundle of the Figure 2 precomputations for one constraint graph."""

    arc_names: Tuple[str, ...]
    bandwidth: np.ndarray  # shape (n,)
    gamma: np.ndarray  # shape (n, n), Γ
    delta: np.ndarray  # shape (n, n), Δ

    def index(self, arc_name: str) -> int:
        """Position of ``arc_name`` in the matrix ordering."""
        try:
            return self.arc_names.index(arc_name)
        except ValueError:
            raise KeyError(f"arc {arc_name!r} not in matrices") from None

    def gamma_of(self, a: str, b: str) -> float:
        """Γ(a, b) by arc names."""
        return float(self.gamma[self.index(a), self.index(b)])

    def delta_of(self, a: str, b: str) -> float:
        """Δ(a, b) by arc names."""
        return float(self.delta[self.index(a), self.index(b)])

    def bandwidth_of(self, a: str) -> float:
        """b(a) by arc name."""
        return float(self.bandwidth[self.index(a)])

    @property
    def size(self) -> int:
        """Number of arcs, |A|."""
        return len(self.arc_names)


def compute_bandwidth_vector(graph: ConstraintGraph) -> np.ndarray:
    """``ComputeBandwidthVector(G)`` — b(a) for every arc, in arc order."""
    return np.array([a.bandwidth for a in graph.arcs], dtype=float)


def compute_gamma(graph: ConstraintGraph) -> np.ndarray:
    """``ComputeConstrainedDistanceSumMatrix(G)`` — Γ(a_i, a_j) = d_i + d_j.

    The diagonal is set to ``2 d_i`` by the same formula but is never
    consulted (a merging involves at least two distinct arcs).
    """
    d = np.array([a.distance for a in graph.arcs], dtype=float)
    return d[:, None] + d[None, :]


#: the Euclidean fill's numpy set-up costs about 20 µs, so the pair loop
#: is faster on fewer arcs (2-core box: 11 against 23 µs at 8 arcs, 42
#: against 38 µs at 16, 166 against 96 µs at 32).
_HYPOT_FILL_MIN_ARCS = 16


def compute_delta(graph: ConstraintGraph) -> np.ndarray:
    """``ComputeMergingDistanceSumMatrix(G)`` —
    Δ(a_i, a_j) = ||p(u_i) - p(u_j)|| + ||p(v_i) - p(v_j)||.

    The built-in norms fill vectorized with the scalar pair loop's exact
    doubles: numpy subtracts the coordinates exactly as the loop does,
    Manhattan and Chebyshev are then pure ``abs``/``max``/``+``, and the
    Euclidean distances are ``math.hypot`` (the norm's own distance,
    which ``np.hypot`` does not reproduce bitwise) mapped over the
    upper triangle's differences.  Other norms, and Euclidean graphs
    under :data:`_HYPOT_FILL_MIN_ARCS` arcs, run the pair loop.
    """
    arcs = graph.arcs
    n = len(arcs)
    norm = graph.norm
    euclidean = norm.name == "euclidean" and n >= _HYPOT_FILL_MIN_ARCS
    if euclidean or (n >= 2 and norm.name in ("manhattan", "chebyshev")):
        sx = np.array([a.source.position.x for a in arcs])
        sy = np.array([a.source.position.y for a in arcs])
        tx = np.array([a.target.position.x for a in arcs])
        ty = np.array([a.target.position.y for a in arcs])
        if euclidean:
            iu, ju = np.triu_indices(n, 1)
            du = map(math.hypot, (sx[iu] - sx[ju]).tolist(), (sy[iu] - sy[ju]).tolist())
            dv = map(math.hypot, (tx[iu] - tx[ju]).tolist(), (ty[iu] - ty[ju]).tolist())
            out = np.zeros((n, n), dtype=float)
            out[iu, ju] = np.fromiter(du, float, len(iu)) + np.fromiter(dv, float, len(iu))
            out[ju, iu] = out[iu, ju]
            return out
        combine = np.add if norm.name == "manhattan" else np.maximum
        du = combine(np.abs(sx[:, None] - sx[None, :]), np.abs(sy[:, None] - sy[None, :]))
        dv = combine(np.abs(tx[:, None] - tx[None, :]), np.abs(ty[:, None] - ty[None, :]))
        out = du + dv
        np.fill_diagonal(out, 0.0)
        return out
    delta = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            du = norm.distance(arcs[i].source.position, arcs[j].source.position)
            dv = norm.distance(arcs[i].target.position, arcs[j].target.position)
            delta[i, j] = delta[j, i] = du + dv
    return delta


def compute_matrices(graph: ConstraintGraph) -> ArcMatrices:
    """All three Figure 2 precomputations in one call."""
    return ArcMatrices(
        arc_names=tuple(a.name for a in graph.arcs),
        bandwidth=compute_bandwidth_vector(graph),
        gamma=compute_gamma(graph),
        delta=compute_delta(graph),
    )


class IncrementalArcMatrices:
    """Mutable Γ/Δ/bandwidth maintenance under arc removal and insertion.

    Theorem 3.1 retires arcs as candidate enumeration climbs through
    the arities, and ECO flows (:mod:`repro.core.incremental`) add and
    drop channels one at a time.  Recomputing the matrices from
    scratch on every change is O(n²) distance evaluations; this class
    instead

    - **removes** an arc by deleting its row and column (pure copies of
      the surviving entries — bit-identical by construction), and
    - **adds** an arc by computing only its new row/column (O(n)
      distance evaluations, the same scalar calls ``compute_delta``
      would make — so the values are again bit-identical).

    :meth:`view` returns a normal (frozen) :class:`ArcMatrices` over
    the current arc set, equal entry-for-entry to
    ``compute_matrices(current subgraph)`` — the hypothesis property
    pack (``tests/test_kernels_differential.py``) asserts exact
    equality after arbitrary removal/insertion sequences.
    """

    def __init__(self, graph: ConstraintGraph) -> None:
        base = compute_matrices(graph)
        self._norm = graph.norm
        self._names: List[str] = list(base.arc_names)
        self._bandwidth = base.bandwidth
        self._gamma = base.gamma
        self._delta = base.delta
        #: per-arc constrained distance and endpoint geometry, needed to
        #: extend Γ/Δ by one row without consulting the full graph.
        self._dist: List[float] = [a.distance for a in graph.arcs]
        self._ends = [(a.source.position, a.target.position) for a in graph.arcs]
        #: removals + insertions applied so far (observability only).
        self.updates = 0

    # ------------------------------------------------------------------
    @property
    def arc_names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    @property
    def size(self) -> int:
        return len(self._names)

    def index(self, arc_name: str) -> int:
        try:
            return self._names.index(arc_name)
        except ValueError:
            raise KeyError(f"arc {arc_name!r} not in matrices") from None

    def view(self) -> ArcMatrices:
        """A frozen snapshot over the current arc set (shares storage;
        the arrays are only replaced, never written in place, so
        handed-out views stay valid)."""
        return ArcMatrices(
            arc_names=self.arc_names,
            bandwidth=self._bandwidth,
            gamma=self._gamma,
            delta=self._delta,
        )

    # ------------------------------------------------------------------
    def remove_arcs(self, names: Iterable[str]) -> None:
        """Drop arcs: delete their rows and columns from Γ and Δ.

        Surviving entries are copied unchanged, so the result equals a
        fresh recomputation over the remaining subgraph bit for bit.
        """
        dropset = {self.index(n) for n in set(names)}
        if not dropset:
            return
        drop = sorted(dropset)
        self._names = [n for i, n in enumerate(self._names) if i not in dropset]
        self._dist = [d for i, d in enumerate(self._dist) if i not in dropset]
        self._ends = [e for i, e in enumerate(self._ends) if i not in dropset]
        self._bandwidth = np.delete(self._bandwidth, drop)
        self._gamma = np.delete(np.delete(self._gamma, drop, axis=0), drop, axis=1)
        self._delta = np.delete(np.delete(self._delta, drop, axis=0), drop, axis=1)
        self.updates += len(drop)

    def remove_arc(self, name: str) -> None:
        """Drop a single arc (see :meth:`remove_arcs`)."""
        self.remove_arcs([name])

    def add_arc(self, arc: Arc) -> None:
        """Append one arc: compute only its new Γ/Δ row and column.

        The fresh Δ entries come from the same scalar ``norm.distance``
        calls the reference pair loop makes, and Γ entries are the same
        ``d_i + d_new`` sums — so the extended matrices again equal a
        full recomputation exactly.
        """
        n = self.size
        d_new = arc.distance
        old_d = np.array(self._dist, dtype=float)

        gamma = np.empty((n + 1, n + 1))
        gamma[:n, :n] = self._gamma
        gamma[n, :n] = old_d + d_new
        gamma[:n, n] = gamma[n, :n]
        gamma[n, n] = d_new + d_new

        delta = np.zeros((n + 1, n + 1))
        delta[:n, :n] = self._delta
        norm = self._norm
        src, tgt = arc.source.position, arc.target.position
        for i, (other_src, other_tgt) in enumerate(self._ends):
            du = norm.distance(other_src, src)
            dv = norm.distance(other_tgt, tgt)
            delta[i, n] = delta[n, i] = du + dv

        self._names.append(arc.name)
        self._dist.append(d_new)
        self._ends.append((src, tgt))
        self._bandwidth = np.append(self._bandwidth, float(arc.bandwidth))
        self._gamma = gamma
        self._delta = delta
        self.updates += 1
