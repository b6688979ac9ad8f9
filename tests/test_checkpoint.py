"""Checkpoint journal: format robustness and resume-equals-fresh.

The journal's contract is brutal by design: *any* byte-level damage to
the tail (a kill mid-append, a bit flip, a truncation) must be detected
by the CRC/sequence checks, reported, and discarded — never a crash,
never a silently-poisoned resume.  These tests damage a real journal at
every record boundary and every byte position and resume over it.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    CheckpointError,
    CheckpointIncompatibleError,
    CheckpointJournal,
    SynthesisOptions,
    generate_candidates,
    instance_fingerprint,
    synthesize,
)
from repro.core import synthesis
from repro.domains import wan_example
from repro.runtime.checkpoint import JOURNAL_VERSION


@pytest.fixture(scope="module")
def wan():
    return wan_example()


def _result_key(result):
    """Everything about a result except wall-clock timing."""
    return (
        sorted(c.label() for c in result.selected),
        result.total_cost,
        [(c.label(), c.cost) for c in result.candidates.all],
        result.cover.column_names,
    )


# ----------------------------------------------------------------------
# journal primitives
# ----------------------------------------------------------------------


def test_round_trip(tmp_path):
    path = tmp_path / "j.ckpt"
    journal = CheckpointJournal.open(path, "fp")
    journal.record_chunk(2, 0, [("a", "b")], [None])
    journal.record_incumbent("bnb", ("x", "y"), 10.0)
    journal.record_incumbent("bnb", ("x",), 8.0)
    journal.record_solution("bnb", ("x",), 8.0, True, quality="optimal")
    journal.close()

    loaded = CheckpointJournal.open(path, "fp", resume=True)
    assert loaded.tail_report is None
    assert loaded.get_chunk(2, 0, [("a", "b")]) == [None]
    assert loaded.best_incumbent == (8.0, ("x",), "bnb")
    assert loaded.solution is not None
    assert loaded.solution.column_names == ("x",)
    assert loaded.solution.optimal is True
    assert loaded.solution.quality == "optimal"
    loaded.close()


def test_incumbent_only_records_strict_improvements(tmp_path):
    journal = CheckpointJournal.open(tmp_path / "j.ckpt", "fp")
    journal.record_incumbent("bnb", ("a",), 5.0)
    before = journal._seq
    journal.record_incumbent("bnb", ("b",), 5.0)  # equal: not recorded
    journal.record_incumbent("bnb", ("c",), 7.0)  # worse: not recorded
    assert journal._seq == before
    assert journal.best_incumbent == (5.0, ("a",), "bnb")
    journal.close()


def test_chunk_keyed_by_groups_digest(tmp_path):
    journal = CheckpointJournal.open(tmp_path / "j.ckpt", "fp")
    journal.record_chunk(2, 0, [("a", "b")], [None])
    assert journal.get_chunk(2, 0, [("a", "c")]) is None  # different groups
    assert journal.get_chunk(3, 0, [("a", "b")]) is None  # different arity
    assert journal.get_chunk(2, 1, [("a", "b")]) is None  # different index
    journal.close()


def test_fingerprint_mismatch_raises(tmp_path):
    path = tmp_path / "j.ckpt"
    CheckpointJournal.open(path, "fp-one").close()
    with pytest.raises(CheckpointIncompatibleError):
        CheckpointJournal.open(path, "fp-two", resume=True)


def test_without_resume_overwrites(tmp_path):
    path = tmp_path / "j.ckpt"
    journal = CheckpointJournal.open(path, "fp")
    journal.record_incumbent("bnb", ("a",), 5.0)
    journal.close()
    fresh = CheckpointJournal.open(path, "fp")  # no resume: starts over
    assert fresh.best_incumbent is None
    fresh.close()


def test_non_journal_file_raises(tmp_path):
    path = tmp_path / "not-a-journal.json"
    path.write_text('{"some": "other file"}\n')
    with pytest.raises(CheckpointError):
        CheckpointJournal.open(path, "fp", resume=True)


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "j.ckpt"
    CheckpointJournal.open(path, "fp").close()
    record = json.loads(path.read_text().splitlines()[0])
    record["payload"]["version"] = JOURNAL_VERSION + 1
    record.pop("crc")
    from repro.runtime.records import encode_line

    path.write_bytes(encode_line(record))
    with pytest.raises(CheckpointIncompatibleError):
        CheckpointJournal.open(path, "fp", resume=True)


# ----------------------------------------------------------------------
# corruption: truncation at every boundary, bit flips everywhere
# ----------------------------------------------------------------------


def _journal_with_records(tmp_path) -> bytes:
    path = tmp_path / "j.ckpt"
    journal = CheckpointJournal.open(path, "fp")
    journal.record_chunk(2, 0, [("a", "b"), ("a", "c")], [None, None])
    journal.record_incumbent("bnb", ("x", "y"), 12.0)
    journal.record_incumbent("bnb", ("x",), 9.0)
    journal.record_solution("bnb", ("x",), 9.0, True)
    journal.close()
    return path.read_bytes()


def test_truncation_at_every_byte(tmp_path):
    """Cut the journal at *every* byte offset; resume must either load
    the intact prefix (reporting the damaged tail) or, when even the
    header is gone, refuse with CheckpointError — never crash."""
    raw = _journal_with_records(tmp_path)
    newlines = [i for i, b in enumerate(raw) if b == 0x0A]
    header_end = newlines[0] + 1
    path = tmp_path / "cut.ckpt"
    for cut in range(len(raw) + 1):
        path.write_bytes(raw[:cut])
        if cut < header_end:
            with pytest.raises(CheckpointError):
                CheckpointJournal.open(path, "fp", resume=True)
            continue
        journal = CheckpointJournal.open(path, "fp", resume=True)
        complete_records = sum(1 for i in newlines if i < cut)
        if cut in [n + 1 for n in newlines]:
            assert journal.tail_report is None, f"clean cut at {cut} reported a tail"
        else:
            assert journal.tail_report is not None, f"dirty cut at {cut} not reported"
        # records after the cut never survive into the replay state
        # (5 lines total: header, chunk, 2 incumbents, solution)
        if complete_records < 5:
            assert journal.solution is None
        journal.close()


def test_truncated_tail_is_discarded_and_appendable(tmp_path):
    raw = _journal_with_records(tmp_path)
    path = tmp_path / "t.ckpt"
    path.write_bytes(raw[:-5])  # cut mid-way through the last record
    journal = CheckpointJournal.open(path, "fp", resume=True)
    assert journal.tail_report is not None
    assert "discarded" in journal.tail_report
    assert journal.solution is None  # the damaged final record is gone
    assert journal.best_incumbent == (9.0, ("x",), "bnb")
    journal.record_solution("bnb", ("x",), 9.0, True)  # append over the stump
    journal.close()
    reloaded = CheckpointJournal.open(path, "fp", resume=True)
    assert reloaded.tail_report is None
    assert reloaded.solution is not None
    reloaded.close()


def test_bit_flip_at_every_byte(tmp_path):
    """Flip one bit in each byte of the journal body: the CRC (or JSON
    parse, or sequence check) must catch it; the prefix must survive."""
    raw = _journal_with_records(tmp_path)
    newlines = [i for i, b in enumerate(raw) if b == 0x0A]
    header_end = newlines[0] + 1
    path = tmp_path / "flip.ckpt"
    for pos in range(header_end, len(raw)):
        flipped = bytearray(raw)
        flipped[pos] ^= 0x40
        path.write_bytes(bytes(flipped))
        journal = CheckpointJournal.open(path, "fp", resume=True)
        # Corruption in record i discards the tail from record i on;
        # records before it survive.  (Line layout: 0 header, 1 chunk,
        # 2-3 incumbents, 4 solution.)
        damaged_index = sum(1 for i in newlines if i < pos)
        if damaged_index >= 2:
            assert journal.get_chunk(2, 0, [("a", "b"), ("a", "c")]) is not None
        if damaged_index >= 4:
            assert journal.best_incumbent == (9.0, ("x",), "bnb")
        elif damaged_index == 3:
            assert journal.best_incumbent == (12.0, ("x", "y"), "bnb")
        else:
            assert journal.best_incumbent is None
        assert journal.solution is None  # the final record never survives a flip
        journal.close()


def test_bit_flip_in_header_refuses(tmp_path):
    raw = _journal_with_records(tmp_path)
    flipped = bytearray(raw)
    flipped[10] ^= 0x01
    path = tmp_path / "h.ckpt"
    path.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError):
        CheckpointJournal.open(path, "fp", resume=True)


def test_unpicklable_chunk_payload_is_recomputed_not_fatal(tmp_path):
    path = tmp_path / "j.ckpt"
    journal = CheckpointJournal.open(path, "fp")
    journal.record_chunk(2, 0, [("a", "b")], [None])
    journal._chunks[(2, 0, next(iter(journal._chunks))[2])] = "bm90LXBpY2tsZQ=="
    assert journal.get_chunk(2, 0, [("a", "b")]) is None
    journal.close()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_covers_result_shaping_options(wan):
    graph, library = wan
    base = instance_fingerprint(graph, library, SynthesisOptions())
    assert base == instance_fingerprint(graph, library, SynthesisOptions())
    # execution knobs must NOT change the fingerprint
    assert base == instance_fingerprint(
        graph, library, SynthesisOptions(validate_result=False)
    )
    # result-shaping knobs MUST change it
    for options in (
        SynthesisOptions(max_arity=2),
        SynthesisOptions(hop_penalty=1.0),
        SynthesisOptions(strategy="decompose"),
        SynthesisOptions(polish_placement=False),
    ):
        assert base != instance_fingerprint(graph, library, options)


#: WAN's fingerprint under default options.  Journals already on disk
#: carry it, so it must not move while the journal version stays.
WAN_DEFAULT_FINGERPRINT = "ff6b194aecedcad1bb24f8978dd7d6b45b7e884b25d6b34be6b553c244d4fca5"


def test_wan_fingerprint_is_pinned(wan):
    graph, library = wan
    assert instance_fingerprint(graph, library, SynthesisOptions()) == WAN_DEFAULT_FINGERPRINT


def test_removed_kernels_option_is_a_type_error(wan):
    for name, value in (
        ("kernels", "numpy"), ("ucp_solver", "bnb"), ("drop_dominated", False), ("jobs", 2)
    ):
        with pytest.raises(TypeError, match=name):
            SynthesisOptions(**{name: value})
    graph, library = wan
    with pytest.raises(TypeError, match="jobs"):
        generate_candidates(graph, library, jobs=2)


# ----------------------------------------------------------------------
# end-to-end: checkpointed synthesis
# ----------------------------------------------------------------------


def test_checkpointed_run_equals_plain_run(wan, tmp_path):
    graph, library = wan
    plain = synthesize(graph, library, SynthesisOptions())
    options = SynthesisOptions(checkpoint_path=str(tmp_path / "j.ckpt"))
    checkpointed = synthesize(graph, library, options)
    assert _result_key(plain) == _result_key(checkpointed)


def test_resume_after_complete_run_replays_solution(wan, tmp_path):
    graph, library = wan
    path = str(tmp_path / "j.ckpt")
    first = synthesize(graph, library, SynthesisOptions(checkpoint_path=path))
    journal = CheckpointJournal.open(
        path, instance_fingerprint(graph, library, SynthesisOptions()), resume=True
    )
    assert journal.solution is not None  # terminal record was written
    journal.close()
    resumed = synthesize(
        graph, library, SynthesisOptions(checkpoint_path=path, resume=True)
    )
    assert _result_key(first) == _result_key(resumed)


def test_resume_with_changed_options_is_refused(wan, tmp_path):
    graph, library = wan
    path = str(tmp_path / "j.ckpt")
    synthesize(graph, library, SynthesisOptions(checkpoint_path=path))
    with pytest.raises(CheckpointIncompatibleError):
        synthesize(
            graph,
            library,
            SynthesisOptions(checkpoint_path=path, resume=True, max_arity=2),
        )


def test_resume_may_change_jobs_and_budget(wan, tmp_path):
    from repro import Budget

    graph, library = wan
    path = str(tmp_path / "j.ckpt")
    first = synthesize(graph, library, SynthesisOptions(checkpoint_path=path))
    resumed = synthesize(
        graph,
        library,
        SynthesisOptions(checkpoint_path=path, resume=True),
        budget=Budget(deadline_s=60.0),  # supervised this time
    )
    assert _result_key(first) == _result_key(resumed)
    assert resumed.degradation is not None
    assert resumed.degradation.source_stage  # replayed from the journal
    assert resumed.degradation.chunks_replayed >= 1


def test_resume_replays_chunks_without_resolving(wan, tmp_path):
    graph, library = wan
    path = str(tmp_path / "j.ckpt")
    synthesize(graph, library, SynthesisOptions(checkpoint_path=path))
    resumed = synthesize(
        graph, library, SynthesisOptions(checkpoint_path=path, resume=True)
    )
    stats = resumed.candidates.stats
    assert stats.chunks_replayed >= 1


def test_resume_over_truncated_journal(wan, tmp_path):
    graph, library = wan
    path = tmp_path / "j.ckpt"
    plain = synthesize(graph, library, SynthesisOptions())
    synthesize(graph, library, SynthesisOptions(checkpoint_path=str(path)))
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * 0.6)])  # lose the back 40%
    resumed = synthesize(
        graph, library, SynthesisOptions(checkpoint_path=str(path), resume=True)
    )
    assert _result_key(plain) == _result_key(resumed)


def test_ilp_solver_checkpoint_round_trip(wan, tmp_path, monkeypatch):
    # with the cutover at one column, every cover goes to ilp
    monkeypatch.setattr(synthesis, "ILP_CUTOVER_COLUMNS", 1)
    graph, library = wan
    path = str(tmp_path / "j.ckpt")
    first = synthesize(graph, library, SynthesisOptions(checkpoint_path=path))
    journal = CheckpointJournal.open(
        path, instance_fingerprint(graph, library, SynthesisOptions()), resume=True
    )
    assert journal.solution.source_stage == "ilp"  # the engine that ran
    journal.close()
    resumed = synthesize(
        graph, library, SynthesisOptions(checkpoint_path=path, resume=True)
    )
    assert _result_key(first) == _result_key(resumed)
