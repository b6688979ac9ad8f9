"""Merging-pruning conditions: Lemma 3.1, Lemma 3.2, Theorems 3.1, 3.2.

These results let :mod:`repro.core.candidates` discard K-way merging
candidates that are guaranteed to be sub-optimal, *independently of the
library* (as long as Assumption 2.1 holds):

- **Lemma 3.1** (pairs): ``{a, a'}`` is not 2-way mergeable when
  ``d(a) + d(a') <= ||p(u) - p(u')|| + ||p(v) - p(v')||`` — i.e. when
  ``Γ(a, a') <= Δ(a, a')``.  Intuition: any merged structure must route
  both channels through common merge/split points, paying at least the
  detour Δ; when the direct lengths already undercut the detour, two
  dedicated implementations are never beaten.

- **Lemma 3.2** (k arcs, pivot form): with pivot ``a_k``,
  ``(k-1) d(a_k) + Σ_{i<k} d(a_i) <= Σ_{i<k} (||u_i - u_k|| + ||v_i - v_k||)``
  implies not k-way mergeable.  Rewriting the left side as
  ``Σ_{i≠k} (d(a_i) + d(a_k))`` shows both sides are column sums of the
  Γ and Δ matrices — which is why Figure 2's algorithm operates on
  matrix columns.  The condition is *sufficient*, so we may test every
  pivot and prune if **any** pivot satisfies it.

- **Theorem 3.1** (monotonicity): an arc in no k-way merging is in no
  (k+h)-way merging — so once an arc drops out at level k its Γ column
  is removed and it never returns (implemented by the active-set loop
  in :mod:`repro.core.candidates`).

- **Theorem 3.2** (bandwidth): ``Σ b(a_i) >= max_l b(l) + min_j b(a_j)``
  implies not k-way mergeable — the common trunk must carry the sum of
  the merged bandwidths, and once that exceeds the fastest library link
  by more than the smallest member's demand, dropping that member
  always wins.

All predicates answer "is this subset *certainly not* mergeable?";
``False`` means "possibly mergeable" (the cost step decides).  The
scalar predicates are one-row calls of the batched ones, so both give
one verdict.  Sums accumulate left to right in member order: numpy's
axis reduction switches to pairwise summation at 8 elements, so rows
of 8 or more members are summed one column at a time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..obs import current_tracer
from .library import CommunicationLibrary
from .matrices import ArcMatrices

__all__ = [
    "PRUNE_TOL",
    "lemma_3_1_not_mergeable",
    "lemma_3_2_not_mergeable",
    "lemma_3_2_not_mergeable_batch",
    "theorem_3_2_not_mergeable",
    "theorem_3_2_not_mergeable_batch",
    "subset_pruned",
    "PruningMemo",
]

#: relative tolerance for the <= comparisons: equality (collinear or
#: shared-endpoint geometries, as the paper's a1/a3 pair) must count as
#: "not mergeable" even in floating point.
PRUNE_TOL = 1e-9


def _lemma_3_2_verdicts(
    gamma: np.ndarray, delta: np.ndarray, subsets: np.ndarray
) -> np.ndarray:
    """Lemma 3.2 verdicts for an ``(m, k)`` batch of index subsets.

    For each subset and each pivot ``p``: column sums ``g = Σ_i Γ[s_i,
    s_p] − Γ[s_p, s_p]`` and ``d = Σ_i Δ[s_i, s_p]``; the subset is
    pruned when any pivot has ``g <= d + tol·max(1, |g|, |d|)``.
    """
    s = subsets
    # blocks[r, i, p] = M[s[r, i], s[r, p]]: one gather per matrix,
    # then accumulation over the member axis (i).
    gamma_blocks = gamma[s[:, :, None], s[:, None, :]]
    delta_blocks = delta[s[:, :, None], s[:, None, :]]
    k = s.shape[1]
    if k < 8:
        # below numpy's pairwise-summation threshold the axis
        # reduction rounds exactly like the sequential loop
        gsum = np.add.reduce(gamma_blocks, axis=1)
        dsum = np.add.reduce(delta_blocks, axis=1)
    else:
        gsum = gamma_blocks[:, 0, :].copy()
        dsum = delta_blocks[:, 0, :].copy()
        for i in range(1, k):
            gsum += gamma_blocks[:, i, :]
            dsum += delta_blocks[:, i, :]
    gsum -= np.diagonal(gamma_blocks, axis1=1, axis2=2)
    scale = np.maximum(1.0, np.maximum(np.abs(gsum), np.abs(dsum)))
    return np.any(gsum <= dsum + PRUNE_TOL * scale, axis=1)


def _theorem_3_2_verdicts(b: np.ndarray, max_link_bandwidth: float) -> np.ndarray:
    """Theorem 3.2 verdicts for an ``(m, k)`` bandwidth batch.

    ``total = Σ b_i``, ``threshold = max_link + min b_i``; pruned when
    ``total >= threshold + tol·scale`` or ``total == threshold``.
    """
    k = b.shape[1]
    if k < 8:
        # np.sum without its wrapper, which costs more than the
        # reduction itself at these widths
        total = np.add.reduce(b, axis=1)
    else:
        total = b[:, 0].copy()
        for i in range(1, k):
            total += b[:, i]
    # min is order-insensitive in IEEE-754 (no rounding), so the axis
    # reduction is exact.
    threshold = max_link_bandwidth + b.min(axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(total), np.abs(threshold)))
    return (total >= threshold + PRUNE_TOL * scale) | (total == threshold)


def _leq(lhs: float, rhs: float) -> bool:
    """``lhs <= rhs`` with a relative tolerance favouring pruning on ties."""
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + PRUNE_TOL * scale


def lemma_3_1_not_mergeable(matrices: ArcMatrices, i: int, j: int) -> bool:
    """Lemma 3.1 by matrix index: True ⇒ {a_i, a_j} is not 2-way mergeable."""
    return _leq(float(matrices.gamma[i, j]), float(matrices.delta[i, j]))


def lemma_3_2_not_mergeable(matrices: ArcMatrices, indices: Sequence[int]) -> bool:
    """Lemma 3.2 over a subset of arc indices, testing every pivot.

    True ⇒ the subset is certainly not k-way mergeable.  For ``k = 2``
    this coincides with Lemma 3.1 (both pivots give the same sums).
    """
    idx = np.asarray(indices, dtype=int)
    if idx.size < 2:
        raise ValueError("mergings involve at least two arcs")
    return bool(_lemma_3_2_verdicts(matrices.gamma, matrices.delta, idx[None, :])[0])


def lemma_3_2_not_mergeable_batch(
    matrices: ArcMatrices,
    subsets: np.ndarray,
) -> np.ndarray:
    """Vectorized Lemma 3.2 over a batch of same-arity subsets.

    ``subsets`` is an ``(m, k)`` integer array of arc indices; the
    result is a boolean ``(m,)`` vector, ``True`` ⇒ certainly not
    mergeable.  Equivalent to ``lemma_3_2_not_mergeable`` row by row.
    """
    s = np.asarray(subsets, dtype=int)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("subset batch must be (m, k) with k >= 2")
    if s.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return _lemma_3_2_verdicts(matrices.gamma, matrices.delta, s)


def theorem_3_2_not_mergeable(
    bandwidths: Sequence[float],
    max_link_bandwidth: float,
) -> bool:
    """Theorem 3.2: True ⇒ the arcs with these bandwidths cannot merge.

    ``Σ b_i >= max_l b(l) + min_j b_j``.  The theorem is a *sufficient*
    condition, so the floating-point tolerance must favour keeping: we
    prune only when the sum clears the threshold by the tolerance — or
    hits it exactly, since equality prunes per the theorem.  (Pruning
    anything strictly below the threshold would be unsound.)
    """
    b = np.asarray(bandwidths, dtype=float)
    if b.size < 2:
        raise ValueError("mergings involve at least two arcs")
    return bool(_theorem_3_2_verdicts(b[None, :], max_link_bandwidth)[0])


def theorem_3_2_not_mergeable_batch(
    bandwidth_subsets: np.ndarray,
    max_link_bandwidth: float,
) -> np.ndarray:
    """Vectorized Theorem 3.2 over an ``(m, k)`` bandwidth batch.

    Row-by-row equivalent of :func:`theorem_3_2_not_mergeable` (same
    keep-favouring tolerance), returning a boolean ``(m,)`` vector.
    """
    b = np.asarray(bandwidth_subsets, dtype=float)
    if b.ndim != 2 or b.shape[1] < 2:
        raise ValueError("bandwidth batch must be (m, k) with k >= 2")
    if b.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return _theorem_3_2_verdicts(b, max_link_bandwidth)


class PruningMemo:
    """Caches per-subset pruning verdicts, keyed by arc *names*.

    The two predicates have different invalidation profiles, so their
    verdicts are memoized separately:

    - **Lemma 3.2** depends only on geometry (Γ/Δ entries).  A
      bandwidth edit — the common ECO — leaves every lemma verdict
      valid, so :meth:`invalidate_bandwidth` keeps them.
    - **Theorem 3.2** depends on bandwidths (and the library's fastest
      link), so bandwidth edits flush it.

    Name keys (not indices) survive arc reordering and matrix
    compaction.  No cross-*arity* table is needed for Theorem 3.2:
    the predicate itself is superset-monotone (adding a member grows
    the sum and can only shrink the min), so re-evaluating a superset
    directly already prunes everything a subset-lookup would.

    The memo is an *optional* argument to :func:`subset_pruned` — the
    repeated-check paths (ECO updates in
    :mod:`repro.core.incremental`, the greedy baseline's local search)
    thread one through; one-shot callers pay nothing.
    """

    def __init__(self) -> None:
        self._lemma: Dict[FrozenSet[str], bool] = {}
        self._theorem: Dict[FrozenSet[str], bool] = {}

    def invalidate_bandwidth(self) -> None:
        """Bandwidths (or the library's links) changed: geometry-only
        lemma verdicts survive, bandwidth verdicts do not."""
        self._theorem.clear()

    def invalidate_geometry(self) -> None:
        """Endpoint positions changed: every verdict is void."""
        self._lemma.clear()
        self._theorem.clear()

    def __len__(self) -> int:
        return len(self._lemma) + len(self._theorem)

    # ------------------------------------------------------------------
    def lemma(self, matrices: ArcMatrices, indices: Sequence[int]) -> bool:
        key = frozenset(matrices.arc_names[i] for i in indices)
        hit = self._lemma.get(key)
        if hit is None:
            hit = lemma_3_2_not_mergeable(matrices, indices)
            self._lemma[key] = hit
            current_tracer().count("pruning.memo.misses")
        else:
            current_tracer().count("pruning.memo.hits")
        return hit

    def theorem(
        self,
        matrices: ArcMatrices,
        indices: Sequence[int],
        max_link_bandwidth: float,
    ) -> bool:
        key = frozenset(matrices.arc_names[i] for i in indices)
        hit = self._theorem.get(key)
        if hit is None:
            bandwidths = [float(matrices.bandwidth[i]) for i in indices]
            hit = theorem_3_2_not_mergeable(bandwidths, max_link_bandwidth)
            self._theorem[key] = hit
            current_tracer().count("pruning.memo.misses")
        else:
            current_tracer().count("pruning.memo.hits")
        return hit


def subset_pruned(
    matrices: ArcMatrices,
    indices: Sequence[int],
    library: CommunicationLibrary,
    memo: Optional[PruningMemo] = None,
) -> bool:
    """Combined pruning: True when *any* of the sufficient conditions
    (Lemma 3.2 geometric, Theorem 3.2 bandwidth) certifies the subset
    as not mergeable.  ``memo`` (a :class:`PruningMemo`) short-circuits
    repeated checks of the same arc group across calls."""
    tracer = current_tracer()
    tracer.count("pruning.checks")
    if memo is not None:
        if memo.lemma(matrices, indices):
            tracer.count("pruning.lemma_3_2.hits")
            return True
        if memo.theorem(matrices, indices, library.max_link_bandwidth()):
            tracer.count("pruning.theorem_3_2.hits")
            return True
        return False
    if lemma_3_2_not_mergeable(matrices, indices):
        tracer.count("pruning.lemma_3_2.hits")
        return True
    bandwidths = [float(matrices.bandwidth[i]) for i in indices]
    if theorem_3_2_not_mergeable(bandwidths, library.max_link_bandwidth()):
        tracer.count("pruning.theorem_3_2.hits")
        return True
    return False
