"""The benchmark's workloads: seeded corpora and one timed pass each.

Every workload has a fixed *base corpus*: the generator call and the
generator seeds below.  The run seed moves each base instance by its
own random rigid motion (rotation, optional reflection, translation).
The synthesis problem only sees Euclidean distances, so the work per
instance stays fixed while every run gets fresh coordinates, and a
cache keyed on coordinates cannot carry over from an earlier run.
Drawing fresh generator seeds instead would make the spread between
runs mostly instance mix: over generator seeds 0-29 one 10-arc
clustered instance (exact, arity 4) takes 0.1-5.0 s (coefficient of
variation 0.75), so a run would need well over a hundred instances to
hold its wall time within the benchmark's bounds.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import PersistentCache, SynthesisOptions, persistent_cache, run_batch, synthesize
from repro.batch import InstanceRef
from repro.batch.runner import stable_result_dict
from repro.core.constraint_graph import ConstraintGraph
from repro.core.geometry import Point
from repro.domains import wan_library
from repro.io import save_instance
from repro.netgen import clustered_graph, two_tier_library

from check import result_problems

#: worker processes of the parallel batch passes: one per core of the
#: 2-core machine the baseline was measured on.
BATCH_JOBS = 2


@dataclass
class Outcome:
    """One instance solved in one pass."""

    name: str
    latency_s: float
    cost: float = 0.0
    p2p_cost: float = 0.0
    result: Any = None
    error: Optional[str] = None


@dataclass
class PassResult:
    wall_s: float
    outcomes: List[Outcome]
    #: the :class:`~repro.batch.BatchSummary` of a batch pass.
    summary: Any = None
    jobs: int = 1


def moved(graph: ConstraintGraph, rng: np.random.Generator) -> ConstraintGraph:
    """``graph`` under a random rigid motion drawn from ``rng``."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    flip = -1.0 if rng.integers(2) else 1.0
    tx, ty = rng.uniform(-1000.0, 1000.0, size=2)
    c, s = math.cos(theta), math.sin(theta)
    out = ConstraintGraph(norm=graph.norm, name=graph.name)
    for port in graph.ports:
        x, y = port.position.x, flip * port.position.y
        out.add_port(port.name, Point(c * x - s * y + tx, s * x + c * y + ty), port.module)
    for arc in graph.arcs:
        out.add_channel(arc.name, arc.source.name, arc.target.name, bandwidth=arc.bandwidth)
    return out


@dataclass
class Workload:
    name: str
    why: str
    #: keyword arguments of ``clustered_graph`` (without ``seed``).
    generator: Dict[str, Any]
    base_seeds: Tuple[int, ...]
    library: str
    options: SynthesisOptions
    #: the result must carry a decomposition certificate with gap 0.
    certified: bool = False

    def describe(self) -> Dict[str, Any]:
        return {
            "generator": "clustered_graph",
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.generator.items()},
            "base_seeds": list(self.base_seeds),
            "library": self.library,
            "options": {
                "strategy": self.options.strategy,
                "max_arity": self.options.max_arity,
                "polish_placement": self.options.polish_placement,
            },
            "seed_use": "one rigid motion per base instance",
        }

    def make_library(self) -> Any:
        return wan_library() if self.library == "wan_library" else two_tier_library()

    def corpus(self, seed: int) -> List[Tuple[str, ConstraintGraph]]:
        out = []
        for index, base in enumerate(self.base_seeds):
            graph = clustered_graph(seed=base, **self.generator)
            rng = np.random.default_rng([seed, index])
            out.append((f"{self.name}-{base}", moved(graph, rng)))
        return out

    def setup(self, seed: int, workdir: Path) -> Any:
        return self.corpus(seed)

    def run_pass(self, state: Any, serial: bool = False) -> PassResult:
        # A fresh library per pass: the program memoizes derived results
        # on the library object, so every pass starts equally cold.
        library = self.make_library()
        outcomes = []
        started = time.perf_counter()
        for name, graph in state:
            t0 = time.perf_counter()
            try:
                result = synthesize(graph, library, self.options)
            except Exception as exc:  # noqa: BLE001 - a raise is a failed instance
                outcomes.append(Outcome(name, time.perf_counter() - t0, error=repr(exc)))
                continue
            outcomes.append(
                Outcome(
                    name, time.perf_counter() - t0, result.total_cost,
                    result.point_to_point_cost, result=result,
                )
            )
        return PassResult(time.perf_counter() - started, outcomes)

    def check(self, state: Any, run: PassResult) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, messages)`` over the solves of one pass;
        releases the pass's results."""
        graphs = dict(state)
        failures = []
        failed = 0
        for outcome in run.outcomes:
            problems = (
                [outcome.error] if outcome.error
                else result_problems(outcome.result, graphs[outcome.name], self.certified)
            )
            outcome.result = None
            failed += bool(problems)
            failures.extend(f"{outcome.name}: {p}" for p in problems)
        return len(run.outcomes), failed, failures


@dataclass
class BatchState:
    corpus: List[Tuple[str, ConstraintGraph]]
    refs: List[InstanceRef]
    cache_dir: Path
    workdir: Path
    cold: Any
    passes: int = 0
    #: instances whose in-process re-solve failed the result check
    #: (None until the first pass is checked).
    bad: Optional[set] = None


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.01)


@dataclass
class BatchWorkload(Workload):
    """A corpus run through ``run_batch`` against a persistent cache that
    a cold pass filled during setup."""

    def setup(self, seed: int, workdir: Path) -> BatchState:
        corpus = self.corpus(seed)
        (workdir / "corpus").mkdir(parents=True)
        refs = []
        for name, graph in corpus:
            path = workdir / "corpus" / f"{name}.json"
            save_instance(path, graph, self.make_library())
            refs.append(InstanceRef(name=name, path=path))
        cache_dir = workdir / "cache"
        cold = run_batch(
            refs, options=self.options, jobs=BATCH_JOBS, cache_dir=cache_dir,
            results_path=workdir / "cold.jsonl",
        )
        reap_children()
        return BatchState(corpus, refs, cache_dir, workdir, cold)

    def run_pass(self, state: BatchState, serial: bool = False) -> PassResult:
        jobs = 1 if serial else BATCH_JOBS
        state.passes += 1
        started = time.perf_counter()
        summary = run_batch(
            state.refs, options=self.options, jobs=jobs, cache_dir=state.cache_dir,
            results_path=state.workdir / f"warm{state.passes}.jsonl",
        )
        wall = time.perf_counter() - started
        reap_children()
        outcomes = [
            Outcome(
                r["name"], r["elapsed_s"], r.get("cost", 0.0),
                (r.get("result") or {}).get("point_to_point_cost", 0.0),
                result=r, error=None if r["status"] == "ok" else r.get("error", r["status"]),
            )
            for r in summary.records
        ]
        return PassResult(wall, outcomes, summary, jobs)

    def check(self, state: BatchState, run: PassResult) -> Tuple[int, int, List[str]]:
        """Every warm record must equal the cold one.  Once per run, each
        instance is also re-solved in-process under the warm cache for the
        full result check, which records only summarize."""
        failures: List[str] = []
        if state.bad is None:
            state.bad = self._in_process_failures(state, failures)
        failed = 0
        for outcome, cold in zip(run.outcomes, state.cold.records):
            if outcome.error:
                failures.append(f"{outcome.name}: {outcome.error}")
            elif outcome.result.get("result") != cold.get("result"):
                failures.append(f"{outcome.name}: warm record differs from the cold record")
            elif outcome.name not in state.bad:
                continue
            failed += 1
        return len(run.outcomes), failed, failures

    def _in_process_failures(self, state: BatchState, failures: List[str]) -> set:
        bad = set()
        with PersistentCache(state.cache_dir) as store, persistent_cache(store):
            for (name, graph), cold in zip(state.corpus, state.cold.records):
                try:
                    result = synthesize(graph, self.make_library(), self.options)
                except Exception as exc:  # noqa: BLE001 - a raise is a failed instance
                    problems = [repr(exc)]
                else:
                    problems = result_problems(result, graph, self.certified)
                    if cold.get("result") != stable_result_dict(result):
                        problems.append("cold record differs from an in-process solve")
                if problems:
                    bad.add(name)
                    failures.extend(f"{name}: {p}" for p in problems)
        return bad


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "decompose300",
            "covering- and placement-bound: 300 arcs in 6 certified clusters; the hand-rolled "
            "cover ILP and merge placement each take about half",
            dict(
                n_clusters=6, ports_per_cluster=12, n_arcs=300, cluster_spread=5.0,
                separation=500.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0,
            ),
            (42,),
            "wan_library",
            SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False),
            certified=True,
        ),
        BatchWorkload(
            "batch-warm",
            "cache-bound: 50-instance batch on 2 workers where every merge plan is a "
            "persistent-cache read, so no placement runs",
            dict(n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0),
            tuple(range(1000, 1050)),
            "two_tier_library",
            SynthesisOptions(max_arity=3),
        ),
    )
}
