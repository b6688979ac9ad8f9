"""Incremental re-synthesis (ECO-style updates).

Real design flows change constraint graphs in small steps — a channel's
bandwidth is re-budgeted, a module moves, a channel is added or
dropped — and re-running the full candidate generation wastes the work
that did not change.  The key structural fact making increments cheap:
**a candidate's cost depends only on the arcs in its own group** (their
endpoints, distances and bandwidths) and on the library.  Therefore:

- removing an arc invalidates exactly the candidates containing it;
- adding an arc keeps every existing candidate and adds new ones: its
  point-to-point singleton plus mergings that pair it with *surviving
  mergeable* subsets (pruned with the same lemmas);
- changing an arc's bandwidth (same endpoints) re-costs only the
  candidates containing it (geometry, hence Γ/Δ and the geometric
  pruning, is untouched; the bandwidth lemma is re-checked).

The covering step is then re-solved from scratch — it is the cheap part
at these scales, and exactness is preserved trivially because the final
candidate set equals what full generation would produce (asserted by
the tests on every mutation).

Candidates are generated, admitted (hop cap, hop penalty) and covered
(screen, engine choice by width) by the same steps
:func:`~repro.core.synthesis.synthesize` runs on its exact path, so
every result-shaping option means the same here.  ``demand_margin`` is
rejected: an ECO session re-budgets arcs one by one instead of scaling
every demand.

Limitations: moving a *port* changes geometry and falls back to full
regeneration (`refresh`).
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .candidates import (
    Candidate, CandidateSet, GenerationStats, _admit_merging, _singleton, generate_candidates,
)
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import SynthesisError
from .library import CommunicationLibrary
from .matrices import IncrementalArcMatrices
from .merging import build_merging_plan
from .pruning import PruningMemo, subset_pruned
from .synthesis import SynthesisOptions, SynthesisResult, _budgeted_cover, _cover_and_assemble

__all__ = ["IncrementalSynthesizer"]


class IncrementalSynthesizer:
    """Keeps a candidate set in sync with an evolving constraint graph.

    Usage::

        inc = IncrementalSynthesizer(graph, library)
        result = inc.solve()
        inc.remove_arc("a3")
        inc.add_arc("a9", "B", "D", bandwidth=10e6)
        inc.change_bandwidth("a1", 20e6)
        result = inc.solve()          # reuses untouched candidates

    The wrapped graph is rebuilt internally on mutations (constraint
    graphs are append-only by design), but candidate plans are reused
    whenever their group is untouched.
    """

    def __init__(
        self,
        graph: ConstraintGraph,
        library: CommunicationLibrary,
        options: Optional[SynthesisOptions] = None,
    ) -> None:
        self.library = library
        self.options = options or SynthesisOptions()
        if self.options.demand_margin:
            raise SynthesisError(
                "IncrementalSynthesizer does not apply demand_margin; scale the "
                "bandwidths yourself or use synthesize()"
            )
        self._graph = graph
        self._candidates: Optional[CandidateSet] = None
        #: incrementally maintained Γ/Δ/bandwidth matrices — arc
        #: removal deletes a row/column, insertion appends one, so a
        #: mutation costs O(n) distance evaluations instead of the
        #: O(n²) full recomputation (bit-identical either way).
        self._matrices: Optional[IncrementalArcMatrices] = None
        #: memoized pruning verdicts, keyed by arc-name sets.  Lemma
        #: 3.2 verdicts are geometry-only and survive bandwidth ECOs;
        #: Theorem 3.2 verdicts are flushed when a bandwidth changes.
        self._memo = PruningMemo()
        #: last-seen endpoint/bandwidth signature per arc name, to
        #: detect a re-added name whose attributes changed (which must
        #: invalidate the corresponding memo generation).
        self._seen: Dict[str, Tuple[object, object, float]] = {
            a.name: (a.source.position, a.target.position, a.bandwidth)
            for a in graph.arcs
        }
        #: statistics: how many candidates were reused vs rebuilt by the
        #: last mutation batch.
        self.reused = 0
        self.rebuilt = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> ConstraintGraph:
        """The current constraint graph."""
        return self._graph

    def _ensure_candidates(self) -> CandidateSet:
        if self._candidates is None:
            self._candidates = generate_candidates(
                self._graph, self.library, **self.options.candidate_args()
            )
            self.rebuilt += len(self._candidates.all)
        return self._candidates

    def refresh(self) -> None:
        """Discard all cached candidates (full regeneration on next solve)."""
        self._candidates = None
        self._matrices = None
        self._memo.invalidate_geometry()

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _rebuild_graph(self, arcs: Sequence[Arc]) -> ConstraintGraph:
        g = ConstraintGraph(norm=self._graph.norm, name=self._graph.name)
        for port in self._graph.ports:
            g.add_port(port.name, port.position, port.module)
        for arc in arcs:
            g.add_arc(arc)
        return g

    def remove_arc(self, arc_name: str) -> None:
        """Drop a channel; candidates not touching it survive."""
        old = self._ensure_candidates()
        kept_arcs = [a for a in self._graph.arcs if a.name != arc_name]
        if len(kept_arcs) == len(self._graph.arcs):
            raise KeyError(f"no arc named {arc_name!r}")
        self._graph = self._rebuild_graph(kept_arcs)
        if self._matrices is not None:
            self._matrices.remove_arc(arc_name)

        p2p = [c for c in old.point_to_point if arc_name not in c.arc_names]
        mergings = [c for c in old.mergings if arc_name not in c.arc_names]
        self.reused += len(p2p) + len(mergings)
        self._candidates = CandidateSet(
            point_to_point=p2p, mergings=mergings, stats=GenerationStats()
        )

    def add_arc(self, name: str, source: str, target: str, bandwidth: float) -> None:
        """Add a channel; new candidates are generated only for groups
        containing it."""
        old = self._ensure_candidates()
        self._graph.add_channel(name, source, target, bandwidth=bandwidth)

        options = self.options
        new_arc = self._graph.arc(name)
        p2p = list(old.point_to_point) + [
            _singleton(new_arc, self.library, options.heterogeneous, options.hop_penalty)
        ]

        # a name can return with different attributes than it left
        # with — stale memo verdicts for its old incarnation must die
        prior = self._seen.get(name)
        sig = (new_arc.source.position, new_arc.target.position, new_arc.bandwidth)
        if prior is not None and prior != sig:
            if prior[:2] != sig[:2]:
                self._memo.invalidate_geometry()
            else:
                self._memo.invalidate_bandwidth()
        self._seen[name] = sig

        # enumerate subsets containing the new arc, pruned as usual —
        # over incrementally extended matrices (one new Γ/Δ row, not a
        # full O(n²) recomputation)
        if self._matrices is None:
            self._matrices = IncrementalArcMatrices(self._graph)
        else:
            self._matrices.add_arc(new_arc)
        matrices = self._matrices.view()
        index = {nm: i for i, nm in enumerate(matrices.arc_names)}
        others = [nm for nm in matrices.arc_names if nm != name]
        top = options.max_arity or len(self._graph)

        new_mergings: List[Candidate] = []
        for k in range(2, top + 1):
            if k - 1 > len(others):
                break
            for combo in itertools.combinations(others, k - 1):
                # graph order (the new arc is last), so labels match a
                # from-scratch generation's
                subset_names = combo + (name,)
                subset_idx = [index[n] for n in subset_names]
                if subset_pruned(matrices, subset_idx, self.library, memo=self._memo):
                    continue
                merge_plan = build_merging_plan(
                    self._graph, subset_names, self.library,
                    polish_placement=options.polish_placement,
                )
                if merge_plan is None:
                    continue
                candidate = _admit_merging(
                    merge_plan, options.max_merge_hops, options.hop_penalty
                )
                if candidate is not None:
                    new_mergings.append(candidate)

        self.reused += len(old.point_to_point) + len(old.mergings)
        self.rebuilt += 1 + len(new_mergings)
        self._candidates = CandidateSet(
            point_to_point=p2p,
            mergings=list(old.mergings) + new_mergings,
            stats=GenerationStats(),
        )

    def change_bandwidth(self, arc_name: str, bandwidth: float) -> None:
        """Re-budget a channel.

        Implemented as remove + add: *raising* the bandwidth can trip
        Theorem 3.2 on subsets containing the arc, and *lowering* it
        can un-prune subsets a cheaper re-costing pass would miss —
        regenerating exactly the groups containing the arc handles
        both.  Note the arc moves to the end of the graph's arc order.
        """
        arc = self._graph.arc(arc_name)  # raises ModelError on a miss
        source, target = arc.source.name, arc.target.name
        self.remove_arc(arc_name)
        self.add_arc(arc_name, source, target, bandwidth)

    # ------------------------------------------------------------------
    def solve(self) -> SynthesisResult:
        """Solve the covering problem over the current candidate set."""
        start = time.perf_counter()
        return _cover_and_assemble(
            self._graph, self.library, self.options, self._ensure_candidates(),
            lambda covering, _replayed: _budgeted_cover(covering, None), start,
        )
