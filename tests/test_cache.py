"""Property and unit tests of the persistent cross-run cache.

The load-bearing claims of :mod:`repro.core.cache`:

- **round-trip**: synthesis under a cache — cold, then warm from the
  same directory — produces results identical to uncached synthesis on
  random netgen instances, and every lookup of the warm run hits;
- **invalidation**: mutating a library (the ``derived_cache`` version
  counter path) changes its fingerprint, so stale entries are
  unreachable — cached answers never leak across library edits;
- **corruption tolerance**: bit-flipped / truncated / garbage entries
  are discarded on load and never served — a poisoned cache degrades
  to a cold one, with the discards counted.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import SynthesisOptions, synthesize
from repro.core.cache import (
    CACHE_VERSION,
    PersistentCache,
    current_persistent_cache,
    library_fingerprint,
    persistent_cache,
)
from repro.core.library import Link, NodeKind, NodeSpec
from repro.core.merging import build_merging_plan
from repro.io.json_io import synthesis_result_to_dict
from repro.netgen import clustered_graph, two_tier_library

VOLATILE = ("elapsed_seconds", "degradation", "metrics")


def stable(result):
    doc = synthesis_result_to_dict(result)
    for key in VOLATILE:
        doc.pop(key, None)
    return doc


libraries = st.builds(
    two_tier_library,
    fast_cost_per_unit=st.sampled_from([2.5, 4.0, 7.0]),
    mux_cost=st.sampled_from([0.0, 5.0]),
)

graphs = st.builds(
    clustered_graph,
    n_clusters=st.just(2),
    ports_per_cluster=st.sampled_from([2, 3]),
    n_arcs=st.integers(min_value=2, max_value=5),
    separation=st.sampled_from([30.0, 100.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)


# ----------------------------------------------------------------------
# round-trip: cached == uncached, and the warm run hits
# ----------------------------------------------------------------------


def _fresh(library):
    """A copy with empty in-memory memos (``__getstate__`` drops them) —
    models a separate process, forcing the persistent layer to engage."""
    import pickle

    return pickle.loads(pickle.dumps(library))


@settings(max_examples=15, deadline=None)
@given(graphs, libraries)
def test_cached_synthesis_round_trips(tmp_path_factory, graph, library):
    tmp_path = tmp_path_factory.mktemp("cache")
    baseline = stable(synthesize(graph, _fresh(library)))

    with persistent_cache(PersistentCache(tmp_path)) as cold:
        cold_result = stable(synthesize(graph, _fresh(library)))
    assert cold_result == baseline

    with persistent_cache(PersistentCache(tmp_path)) as warm:
        warm_result = stable(synthesize(graph, _fresh(library)))
    assert warm_result == baseline
    # every lookup of the cold run (hit or miss-then-write) hits warm;
    # an instance without mergings makes no lookup at all
    assert warm.stats.hits == cold.stats.hits + cold.stats.misses
    assert warm.stats.misses == 0


def test_ambient_installation_scopes_and_restores(tmp_path):
    assert current_persistent_cache() is None
    with persistent_cache(PersistentCache(tmp_path)) as store:
        assert current_persistent_cache() is store
        with persistent_cache(None):
            assert current_persistent_cache() is None
        assert current_persistent_cache() is store
    assert current_persistent_cache() is None


# ----------------------------------------------------------------------
# invalidation on library mutation
# ----------------------------------------------------------------------


def test_fingerprint_changes_on_mutation_and_matches_content():
    library = two_tier_library()
    before = library_fingerprint(library)
    assert before == library_fingerprint(library)  # memoized, stable

    library.add_node(NodeSpec("extra-repeater", NodeKind.REPEATER, cost=3.0))
    after = library_fingerprint(library)
    assert after != before  # derived_cache version counter dropped the memo

    # equality is content-based, not identity-based: an independently
    # built identical library shares the cache namespace.
    assert library_fingerprint(two_tier_library()) == before


def test_mutated_library_never_sees_stale_entries(tmp_path):
    graph, groups, library = _merge_groups()
    with persistent_cache(PersistentCache(tmp_path)):
        plan_before = build_merging_plan(graph, groups[0], library)

    # a cheaper link makes the old answer wrong; the fingerprint moves
    library.add_link(Link("cheap", bandwidth=100.0, cost_per_unit=0.1))

    with persistent_cache(PersistentCache(tmp_path)) as store:
        plan_after = build_merging_plan(graph, groups[0], library)
    assert store.stats.hits == 0  # new fingerprint ⇒ old entries unreachable
    assert plan_after.cost < plan_before.cost


# ----------------------------------------------------------------------
# corruption tolerance
# ----------------------------------------------------------------------


def _entry_files(directory):
    return sorted(p for p in directory.iterdir() if p.suffix == ".jsonl")


def _merge_groups():
    """A graph, three feasible two-arc groups of it, and its library."""
    graph = clustered_graph(n_clusters=2, ports_per_cluster=3, n_arcs=4, seed=3)
    names = [a.name for a in graph.arcs]
    groups = [names[0:2], names[1:3], names[2:4]]
    library = two_tier_library()
    assert all(build_merging_plan(graph, g, library) is not None for g in groups)
    return graph, groups, library


def _fill(directory):
    """Seed a cache directory with three merge entries; returns the
    graph, the groups and the library they were built for."""
    graph, groups, library = _merge_groups()
    with persistent_cache(PersistentCache(directory)):
        for group in groups:
            build_merging_plan(graph, group, library)
    return graph, groups, library


@pytest.mark.parametrize("attack", ["bitflip", "truncate", "garbage", "blank"])
def test_corrupted_entries_are_discarded_never_served(tmp_path, attack):
    graph, groups, library = _fill(tmp_path)
    uncached = [build_merging_plan(graph, g, two_tier_library()) for g in groups]
    (path,) = _entry_files(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3

    victim = bytearray(lines[1])
    if attack == "bitflip":
        victim[len(victim) // 2] ^= 0x08  # flip one bit mid-payload
    elif attack == "truncate":
        victim = victim[: len(victim) // 2]
    elif attack == "garbage":
        victim = bytearray(b"\x00\xff not json at all\n")
    elif attack == "blank":
        victim = bytearray(b"\n")
    path.write_bytes(lines[0] + bytes(victim) + lines[2])

    with persistent_cache(PersistentCache(tmp_path)) as store:
        for group, expected in zip(groups, uncached):
            plan = build_merging_plan(graph, group, library)
            assert plan.cost == expected.cost
    # the two intact records load; the mangled one is discarded (a
    # bit flip could also land in the fp/key and stay parseable but
    # unreachable — either way it is never *served* as a wrong answer)
    assert store.stats.corrupt_discarded >= 1 or store.stats.entries_loaded == 3
    assert store.stats.entries_loaded <= 3


def test_crc_valid_entry_with_wrong_fingerprint_is_discarded(tmp_path):
    graph, groups, _ = _fill(tmp_path)
    (path,) = _entry_files(tmp_path)
    record = json.loads(path.read_bytes().splitlines()[0])
    # a self-consistent record belonging to a *different* library file
    # (e.g. copied across directories) must not load under this one
    other = dict(record, fp="0" * 64)
    other.pop("crc")
    import zlib

    canonical = json.dumps(other, sort_keys=True, separators=(",", ":"))
    other["crc"] = format(zlib.crc32(canonical.encode()), "08x")
    with open(path, "ab") as f:
        f.write((json.dumps(other, sort_keys=True, separators=(",", ":")) + "\n").encode())

    with persistent_cache(PersistentCache(tmp_path)) as store:
        build_merging_plan(graph, groups[0], two_tier_library())
    assert store.stats.hits == 1  # the legitimate entries still work
    assert store.stats.corrupt_discarded == 1


def test_cached_none_is_a_hit_distinct_from_a_miss(tmp_path):
    library = two_tier_library()
    store = PersistentCache(tmp_path)
    found, value = store.lookup("merge", library, ["no-such-key"])
    assert (found, value) == (False, None)
    store.put("merge", library, ["infeasible-group"], None)
    found, value = store.lookup("merge", library, ["infeasible-group"])
    assert (found, value) == (True, None)

    reopened = PersistentCache(tmp_path)
    found, value = reopened.lookup("merge", library, ["infeasible-group"])
    assert (found, value) == (True, None)


def test_version_bump_orphans_old_files(tmp_path):
    graph, groups, library = _fill(tmp_path)
    (path,) = _entry_files(tmp_path)
    assert f"-v{CACHE_VERSION}-" in path.name
    # simulate a pre-bump store: rename to an older version suffix
    path.rename(path.with_name(path.name.replace(f"-v{CACHE_VERSION}-", "-v0-")))
    with persistent_cache(PersistentCache(tmp_path)) as store:
        build_merging_plan(graph, groups[0], library)
    assert store.stats.hits == 0  # old-format files are simply not read


def test_merge_plans_of_the_alternating_solver_are_not_served(tmp_path):
    """Version 1 stores hold merge plans from the alternating placement
    solver, which could stall above the optimum; their keys (geometry,
    bandwidths, library) would still match, so the files must be
    orphaned rather than read."""
    from repro.core.merging import build_merging_plan

    graph = clustered_graph(n_clusters=2, ports_per_cluster=3, n_arcs=4, seed=3)
    library = two_tier_library()
    group = [a.name for a in graph.arcs[:2]]
    with persistent_cache(PersistentCache(tmp_path)) as store:
        plan = build_merging_plan(graph, group, _fresh(library))
    assert store.stats.writes > 0
    (merge_file,) = tmp_path.glob("merge-*.jsonl")
    # a store written by version 1: same records, version-1 file names
    for path in tmp_path.glob("*.jsonl"):
        path.rename(path.with_name(path.name.replace(f"-v{CACHE_VERSION}-", "-v1-")))
    assert (tmp_path / merge_file.name.replace(f"-v{CACHE_VERSION}-", "-v1-")).exists()
    with persistent_cache(PersistentCache(tmp_path)) as store:
        again = build_merging_plan(graph, group, _fresh(library))
    assert store.stats.hits == 0
    assert again == plan
