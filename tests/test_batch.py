"""Batch orchestration: corpus discovery, identity, resume, recovery.

The contract under test (:mod:`repro.batch`): a batch run produces,
for every instance, a result identical to a solo ``synthesize()`` of
that instance; the result stream is append-only, CRC-tagged, and
resumable after a kill; one failing instance never aborts the batch;
and a shared persistent cache turns repeat runs into hit streams.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.batch import discover_corpus, run_batch, stable_result_dict
from repro.cli import main as cli_main
from repro.core import SynthesisOptions, synthesize
from repro.core.exceptions import InstanceFormatError
from repro.domains import wan_example
from repro.io import load_instance, save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.obs import Tracer, tracing
from repro.runtime import FaultInjector, FaultSpec
from repro.runtime.records import record_crc


def _make_corpus(directory: Path, count: int = 4, start_seed: int = 0) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    library = two_tier_library()
    for i in range(count):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=4,
            separation=100.0, seed=start_seed + i,
        )
        save_instance(directory / f"inst{i:02d}.json", graph, library)
    return directory


# ----------------------------------------------------------------------
# corpus discovery
# ----------------------------------------------------------------------


def test_discover_directory_sorted_and_named(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=3))
    assert [r.name for r in corpus] == ["inst00", "inst01", "inst02"]


def test_discover_manifest_with_relative_paths_and_names(tmp_path):
    _make_corpus(tmp_path / "c", count=2)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        ["c/inst00.json", {"name": "special", "path": "c/inst01.json"}]
    ))
    corpus = discover_corpus(manifest)
    assert [r.name for r in corpus] == ["inst00", "special"]
    assert all(r.path.is_file() for r in corpus)


def test_discover_single_instance_file(tmp_path):
    _make_corpus(tmp_path / "c", count=1)
    corpus = discover_corpus(tmp_path / "c" / "inst00.json")
    assert len(corpus) == 1 and corpus[0].name == "inst00"


def test_discover_duplicate_names_are_uniquified(tmp_path):
    _make_corpus(tmp_path / "c", count=1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["c/inst00.json", "c/inst00.json"]))
    assert [r.name for r in discover_corpus(manifest)] == ["inst00", "inst00-2"]


@pytest.mark.parametrize(
    "setup",
    ["missing", "empty_dir", "bad_json", "manifest_bad_entry",
     "manifest_missing_file", "not_an_instance"],
)
def test_discovery_failures_are_instance_format_errors(tmp_path, setup):
    target = tmp_path / "x"
    if setup == "empty_dir":
        target.mkdir()
    elif setup == "bad_json":
        target = tmp_path / "x.json"
        target.write_text("{nope")
    elif setup == "manifest_bad_entry":
        target = tmp_path / "x.json"
        target.write_text(json.dumps([42]))
    elif setup == "manifest_missing_file":
        target = tmp_path / "x.json"
        target.write_text(json.dumps(["ghost.json"]))
    elif setup == "not_an_instance":
        target = tmp_path / "x.json"
        target.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(InstanceFormatError):
        discover_corpus(target)


# ----------------------------------------------------------------------
# batch == solo, serial and pooled
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [None, 2])
def test_batch_results_identical_to_solo_synthesis(tmp_path, jobs):
    corpus = discover_corpus(_make_corpus(tmp_path / "c"))
    summary = run_batch(
        corpus, jobs=jobs, results_path=tmp_path / "r.jsonl",
        cache_dir=tmp_path / "cache",
    )
    assert summary.ok and summary.completed == len(corpus)
    assert [r["name"] for r in summary.records] == [r.name for r in corpus]
    for ref, record in zip(corpus, summary.records):
        graph, library = load_instance(ref.path)
        solo = synthesize(graph, library, SynthesisOptions())
        assert record["result"] == stable_result_dict(solo)
        assert record["cost"] == pytest.approx(solo.total_cost)


# ----------------------------------------------------------------------
# pool worker death: the batch.dispatch fault site
# ----------------------------------------------------------------------


def test_pool_worker_crash_recovers_with_identical_records(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=3))
    clean = run_batch(corpus, jobs=2, results_path=tmp_path / "clean.jsonl")
    spec = FaultSpec(site="batch.dispatch", kind="worker_crash", times=1)
    with FaultInjector([spec]):
        crashed = run_batch(corpus, jobs=2, results_path=tmp_path / "crashed.jsonl")
    assert crashed.ok and crashed.worker_recoveries == 1
    assert [r["result"] for r in crashed.records] == [r["result"] for r in clean.records]


def test_twice_lost_instances_are_solved_in_process(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=3))
    clean = run_batch(corpus, jobs=2, results_path=tmp_path / "clean.jsonl")
    spec = FaultSpec(site="batch.dispatch", kind="worker_crash")  # every dispatch
    tracer = Tracer(label="rescue")
    with tracing(tracer), FaultInjector([spec]):
        crashed = run_batch(corpus, jobs=2, results_path=tmp_path / "crashed.jsonl")
    assert crashed.ok and crashed.worker_recoveries >= len(corpus)
    assert tracer.local_counters.get("pool.inprocess_rescues", 0) == len(corpus)
    assert [r["result"] for r in crashed.records] == [r["result"] for r in clean.records]


def test_result_stream_records_are_crc_tagged(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=2))
    results = tmp_path / "r.jsonl"
    run_batch(corpus, results_path=results)
    lines = results.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        crc = record.pop("crc")
        assert record_crc(record) == crc


# ----------------------------------------------------------------------
# failure containment
# ----------------------------------------------------------------------


def test_one_bad_instance_fails_alone(tmp_path):
    directory = _make_corpus(tmp_path / "c", count=2)
    (directory / "inst01.json").write_text(json.dumps({"constraint_graph": {}}))
    summary = run_batch(discover_corpus(directory), results_path=tmp_path / "r.jsonl")
    assert not summary.ok
    assert summary.completed == 1 and summary.failed == 1
    failed = [r for r in summary.records if r["status"] == "failed"]
    assert len(failed) == 1 and "InstanceFormatError" in failed[0]["error"]


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------


def test_resume_skips_completed_instances(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=3))
    results = tmp_path / "r.jsonl"
    first = run_batch(corpus[:2], results_path=results)
    assert first.completed == 2

    second = run_batch(corpus, results_path=results, resume=True)
    assert second.skipped == 2 and second.completed == 1
    assert [r["name"] for r in second.records] == [r.name for r in corpus]
    # stream now carries all three, first two from the original run
    names = [json.loads(l)["name"] for l in results.read_text().splitlines()]
    assert names == ["inst00", "inst01", "inst02"]


def test_resume_survives_a_torn_results_tail(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=2))
    results = tmp_path / "r.jsonl"
    run_batch(corpus, results_path=results)
    raw = results.read_bytes()
    results.write_bytes(raw[:-7])  # crash mid-append of the final record

    summary = run_batch(corpus, results_path=results, resume=True)
    assert summary.skipped == 1 and summary.completed == 1 and summary.ok
    # the torn line stays in the stream but only CRC-valid records count;
    # the re-solved instance appears exactly once among them
    valid = []
    for line in results.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        crc = record.pop("crc", None)
        if crc is not None and record_crc(record) == crc:
            valid.append(record["name"])
    assert valid == ["inst00", "inst01"]


def test_resume_re_solves_when_instance_file_changes(tmp_path):
    directory = _make_corpus(tmp_path / "c", count=2)
    corpus = discover_corpus(directory)
    results = tmp_path / "r.jsonl"
    run_batch(corpus, results_path=results)

    # perturb one instance's bytes: its fingerprint moves, it re-solves
    library = two_tier_library()
    graph = clustered_graph(n_clusters=2, ports_per_cluster=3, n_arcs=4,
                            separation=100.0, seed=99)
    save_instance(directory / "inst01.json", graph, library)
    summary = run_batch(discover_corpus(directory), results_path=results, resume=True)
    assert summary.skipped == 1 and summary.completed == 1


@pytest.mark.parametrize(
    "changed", [{"strategy": "decompose"}, {"demand_margin": 0.5}],
    ids=["strategy", "demand_margin"],
)
def test_resume_re_solves_when_a_result_shaping_option_changes(tmp_path, changed):
    directory = tmp_path / "c"
    directory.mkdir()
    graph, library = wan_example()
    save_instance(directory / "wan.json", graph, library)
    corpus = discover_corpus(directory)
    results = tmp_path / "r.jsonl"
    base = SynthesisOptions(strategy="exact")
    run_batch(corpus, options=base, results_path=results)

    options = replace(base, **changed)
    summary = run_batch(corpus, options=options, results_path=results, resume=True)
    assert summary.skipped == 0 and summary.completed == 1
    fresh = synthesize(graph, library, options)
    assert summary.records[0]["result"] == stable_result_dict(fresh)


def test_resume_ignores_failed_records(tmp_path):
    directory = _make_corpus(tmp_path / "c", count=2)
    good = (directory / "inst01.json").read_bytes()
    (directory / "inst01.json").write_text(json.dumps({"constraint_graph": {}}))
    results = tmp_path / "r.jsonl"
    first = run_batch(discover_corpus(directory), results_path=results)
    assert first.failed == 1

    (directory / "inst01.json").write_bytes(good)  # fix the instance
    second = run_batch(discover_corpus(directory), results_path=results, resume=True)
    assert second.ok and second.skipped == 1 and second.completed == 1


# ----------------------------------------------------------------------
# shared cache across batch runs
# ----------------------------------------------------------------------


def test_second_batch_run_hits_the_shared_cache(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "c", count=3))
    cache = tmp_path / "cache"
    cold = run_batch(corpus, results_path=tmp_path / "r1.jsonl", cache_dir=cache)
    warm = run_batch(corpus, results_path=tmp_path / "r2.jsonl", cache_dir=cache)
    assert cold.cache.get("writes", 0) > 0
    assert warm.cache.get("hits", 0) > 0
    assert warm.cache.get("misses", 1) == 0
    for a, b in zip(cold.records, warm.records):
        assert a["result"] == b["result"]


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------


def test_cli_batch_end_to_end_with_cache_and_summary(tmp_path, capsys):
    _make_corpus(tmp_path / "c", count=2)
    argv = [
        "batch", str(tmp_path / "c"),
        "--cache", str(tmp_path / "cache"),
        "--results", str(tmp_path / "r.jsonl"),
        "--summary", str(tmp_path / "s.json"),
    ]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "2 completed" in out

    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["completed"] == 2 and summary["failed"] == 0
    assert summary["cache"]["writes"] > 0

    # second run, same cache: hits reported in the summary artifact
    argv2 = argv[:-4] + ["--results", str(tmp_path / "r2.jsonl"),
                         "--summary", str(tmp_path / "s2.json")]
    assert cli_main(argv2) == 0
    summary2 = json.loads((tmp_path / "s2.json").read_text())
    assert summary2["cache"]["hits"] > 0


def test_cli_batch_exit_1_on_any_failure(tmp_path, capsys):
    directory = _make_corpus(tmp_path / "c", count=2)
    (directory / "inst00.json").write_text(json.dumps({"constraint_graph": {}}))
    code = cli_main(["batch", str(directory), "--quiet",
                     "--results", str(tmp_path / "r.jsonl")])
    assert code == 1


def test_cli_batch_bad_corpus_exits_5(tmp_path, capsys):
    code = cli_main(["batch", str(tmp_path / "nowhere"), "--quiet",
                     "--results", str(tmp_path / "r.jsonl")])
    assert code == 5
    assert "invalid instance" in capsys.readouterr().err
