"""The record codec's checksum test (:func:`repro.runtime.records.parse_line`).

A line's CRC is checked over its own bytes with the ``crc`` member cut
out, and only when that fails over the re-encoded record.  The decoder
must accept and reject exactly the lines the re-encode-only decoder
does: bit-flipped lines of every durable record kind, random records,
and lines that are CRC-valid but not in canonical form.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import records
from repro.runtime.records import CorruptRecord, encode_line, parse_line, record_crc

FIXTURES = Path(__file__).parent / "fixtures" / "records"


def _reencode_parse(raw: bytes):
    """The re-encode-only decoder: the record, or None when not intact."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    return record if record_crc(record) == crc else None


def _parse(raw: bytes):
    try:
        return parse_line(raw)
    except CorruptRecord:
        return None


def _fixture_lines():
    paths = sorted(FIXTURES.glob("cache/*.jsonl")) + [
        FIXTURES / "results.jsonl", FIXTURES / "journal.ckpt",
    ]
    return [line for path in paths for line in path.read_bytes().splitlines(keepends=True)]


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_bit_flipped_fixture_lines_decode_as_by_re_encoding():
    """20,000 single-bit flips over the record fixtures (cache, results
    stream, journal): both decoders agree on every line."""
    lines = _fixture_lines()
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(20_000):
        raw = lines[rng.integers(len(lines))]
        flipped = _flip(raw, int(rng.integers(len(raw) * 8)))
        want = _reencode_parse(flipped)
        assert _parse(flipped) == want, flipped
        accepted += want is not None
    # a flip in the trailing newline leaves the record intact
    assert accepted > 0


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "crc", "val", "z", "é"]), inner, max_size=4),
    max_leaves=12,
)


@given(
    record=st.dictionaries(st.sampled_from(["a", "crc2", "fp", "val", "zz"]), _json, max_size=5),
    bit=st.integers(min_value=0),
    flip=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_random_records_decode_as_by_re_encoding(record, bit, flip):
    raw = encode_line(record)
    if flip:
        raw = _flip(raw, bit % (len(raw) * 8))
    assert _parse(raw) == _reencode_parse(raw)
    if not flip:
        assert _parse(raw) == record


@pytest.mark.parametrize(
    "dump",
    [
        lambda doc: json.dumps(doc),  # spaces after separators
        lambda doc: json.dumps(doc, indent=1),
        lambda doc: json.dumps(dict(reversed(list(doc.items()))), separators=(",", ":")),
        lambda doc: json.dumps({"crc": doc["crc"], **doc}, separators=(",", ":")) + "\r\n",
    ],
    ids=["spaced", "indented", "unsorted", "crc-first-crlf"],
)
def test_non_canonical_crc_valid_lines_are_intact(dump):
    """Lines another writer laid out differently carry a CRC of the
    canonical form, not of their bytes: the re-encode accepts them."""
    record = {"a": [1, 2.5, None], "fp": "0123abcd", "val": {"x": "y"}, "zz": True}
    raw = dump(dict(record, crc=record_crc(record))).encode("utf-8")
    assert parse_line(raw) == record


def test_canonical_lines_are_checked_without_re_encoding():
    lines = _fixture_lines()
    with mock.patch.object(records, "record_crc", side_effect=AssertionError("re-encoded")):
        for raw in lines:
            parse_line(raw)
