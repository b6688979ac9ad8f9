"""Record files written by an earlier build still load, byte for byte.

``tests/fixtures/records/`` holds one of each durable record file,
written at ``CACHE_VERSION`` 4 and ``JOURNAL_VERSION`` 3 by
``python tools/regenerate_results.py --records``:

- ``cache/`` — the persistent cache of a batch over ``wan.json`` and
  ``broken.json`` (a file that is not an instance) at ``max_arity`` 3;
- ``results.jsonl`` — that batch's results stream: one ok record, one
  failed record;
- ``journal.ckpt`` — the checkpoint journal of a ``max_arity`` 3 solve
  of ``mpeg4.json``: header, chunk, incumbent and solution records.

They are the on-disk compatibility gate.  While those versions stand,
every line must decode and re-encode to the same bytes, the journal
must resume, the cache must serve a warm batch, and a cold batch must
write the cache file again byte for byte (so a change to the stored
answers cannot keep the version).  A change that breaks them must bump
the version and regenerate the files with that command.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    CheckpointJournal,
    SynthesisOptions,
    instance_fingerprint,
    run_batch,
    synthesize,
)
from repro.batch import InstanceRef, ResultStream, load_stream_records
from repro.batch.stream import canonical_json, record_crc
from repro.core.cache import CACHE_VERSION, PersistentCache
from repro.io import load_instance

FIXTURES = Path(__file__).parent / "fixtures" / "records"
OPTIONS = SynthesisOptions(max_arity=3)
RECORD_FILES = sorted(FIXTURES.glob("cache/*.jsonl")) + [
    FIXTURES / "results.jsonl",
    FIXTURES / "journal.ckpt",
]


def _result_key(result):
    """Everything about a result except wall-clock timing."""
    return (
        sorted(c.label() for c in result.selected),
        result.total_cost,
        [(c.label(), c.cost) for c in result.candidates.all],
        result.cover.column_names,
    )


@pytest.mark.parametrize("path", RECORD_FILES, ids=lambda p: p.name)
def test_every_line_decodes_and_re_encodes_to_the_same_bytes(path):
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    for line in raw.splitlines(keepends=True):
        record = json.loads(line)
        crc = record.pop("crc")
        assert record_crc(record) == crc
        assert (canonical_json(dict(record, crc=crc)) + "\n").encode("utf-8") == line


def test_results_stream_reloads_and_re_emits_identically(tmp_path):
    records = load_stream_records(FIXTURES / "results.jsonl")
    assert [(r["name"], r["status"]) for r in records] == [("wan", "ok"), ("broken", "failed")]
    copy = tmp_path / "results.jsonl"
    with ResultStream(copy) as stream:
        for record in records:
            stream.emit(record)
    assert copy.read_bytes() == (FIXTURES / "results.jsonl").read_bytes()


def test_cache_loads_every_entry(tmp_path):
    shutil.copytree(FIXTURES / "cache", tmp_path / "cache")
    _, library = load_instance(FIXTURES / "wan.json")
    lines = sum(len(p.read_bytes().splitlines()) for p in FIXTURES.glob("cache/*.jsonl"))
    with PersistentCache(tmp_path / "cache") as store:
        for space in ("p2p", "merge", "mixed"):
            store.lookup(space, library, {"probe": True})
        assert store.stats.entries_loaded == lines
        assert store.stats.corrupt_discarded == 0


def test_journal_resume_replays_every_chunk_and_equals_a_clean_solve(tmp_path):
    graph, library = load_instance(FIXTURES / "mpeg4.json")
    path = tmp_path / "journal.ckpt"
    shutil.copyfile(FIXTURES / "journal.ckpt", path)
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert set(kinds) == {"header", "chunk", "incumbent", "solution"}

    journal = CheckpointJournal.open(
        path, instance_fingerprint(graph, library, OPTIONS), resume=True
    )
    assert journal.tail_report is None
    assert journal.best_incumbent is not None and journal.solution is not None
    journal.close()

    resumed = synthesize(
        graph, library, replace(OPTIONS, checkpoint_path=str(path), resume=True)
    )
    clean = synthesize(graph, library, OPTIONS)
    assert resumed.candidates.stats.chunks_replayed == kinds.count("chunk")
    assert _result_key(resumed) == _result_key(clean)
    assert path.read_bytes() == (FIXTURES / "journal.ckpt").read_bytes()


def test_batch_over_the_fixture_cache_has_no_misses(tmp_path):
    shutil.copytree(FIXTURES / "cache", tmp_path / "cache")
    corpus = [
        InstanceRef(name="wan", path=FIXTURES / "wan.json"),
        InstanceRef(name="broken", path=FIXTURES / "broken.json"),
    ]
    summary = run_batch(
        corpus, options=OPTIONS, cache_dir=tmp_path / "cache",
        results_path=tmp_path / "results.jsonl",
    )
    assert summary.cache["misses"] == 0 and summary.cache["hits"] > 0
    assert summary.cache["corrupt_discarded"] == 0
    stored = load_stream_records(FIXTURES / "results.jsonl")
    assert [(r["status"], canonical_json(r.get("result"))) for r in summary.records] == [
        (r["status"], canonical_json(r.get("result"))) for r in stored
    ]


def test_a_cold_batch_writes_the_fixture_cache_byte_for_byte(tmp_path):
    run_batch(
        [InstanceRef(name="wan", path=FIXTURES / "wan.json")], options=OPTIONS,
        cache_dir=tmp_path / "cache", results_path=tmp_path / "results.jsonl",
    )
    (fixture,) = sorted(FIXTURES.glob("cache/merge-v*.jsonl"))
    written = tmp_path / "cache" / fixture.name
    assert written.exists() and written.read_bytes() == fixture.read_bytes(), (
        f"a cold batch no longer writes {fixture.name}: the stored merge answers "
        f"changed, so bump CACHE_VERSION (now {CACHE_VERSION}) in repro/core/cache.py "
        f"and run `python tools/regenerate_results.py --records`"
    )
