"""The one CRC-tagged JSON-lines record codec (``repro.runtime.records``).

Every durable line the package writes is one record: the persistent
cache's entries, the batch and queue result streams, the server's
results file, and the checkpoint journal.  A record is a JSON object
serialized in the canonical form (sorted keys, no whitespace) and
carrying ``"crc"``: the CRC-32, as 8 hex digits, of the canonical JSON
of the object's other fields.  Payloads that are arbitrary Python
objects (cached plans, journaled chunk plans) travel inside a record as
base64 text of their pickle.

The codec only says whether a line is an intact record.  What to do
with a bad one is the caller's policy: the cache and the result streams
skip it (records are independent facts), the journal truncates there
(records are an ordered log).
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib
from typing import Any, Dict, Optional

__all__ = [
    "CorruptRecord",
    "canonical_json",
    "record_crc",
    "encode_line",
    "parse_line",
    "decode_line",
    "pack_payload",
    "unpack_payload",
]


class CorruptRecord(ValueError):
    """A line is not an intact record; the message says why."""


def canonical_json(doc: Any) -> str:
    """The one canonical JSON form every CRC and digest is computed over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_crc(doc: Any) -> str:
    """CRC-32 of ``doc``'s canonical JSON, as 8 lowercase hex digits."""
    return format(zlib.crc32(canonical_json(doc).encode("utf-8")), "08x")


def encode_line(record: Dict[str, Any]) -> bytes:
    """One record line: ``record`` plus its ``crc``, newline-terminated."""
    return (canonical_json(dict(record, crc=record_crc(record))) + "\n").encode("utf-8")


#: the ``crc`` member as :func:`encode_line` writes it, up to its value.
_CRC_MEMBER = b'"crc":"'


def _line_crc(raw: bytes) -> Optional[str]:
    """CRC-32 of ``raw`` with its ``"crc":"xxxxxxxx"`` member, one
    adjacent comma and a trailing newline cut out, as 8 hex digits: on a
    line :func:`encode_line` wrote, exactly the bytes it checksummed.
    None unless the member occurs exactly once.  (The member's quotes
    are unescaped, so it cannot occur inside a JSON string.)"""
    start = raw.find(_CRC_MEMBER)
    if start < 0 or raw.find(_CRC_MEMBER, start + 1) >= 0:
        return None
    end = start + len(_CRC_MEMBER) + 9  # 8 hex digits and the closing quote
    if raw[end - 1 : end] != b'"':
        return None
    if raw[end : end + 1] == b",":
        end += 1
    elif raw[start - 1 : start] == b",":
        start -= 1
    stop = len(raw) - 1 if raw.endswith(b"\n") else len(raw)
    view = memoryview(raw)
    return format(zlib.crc32(view[end:stop], zlib.crc32(view[:start])), "08x")


def parse_line(raw: bytes) -> Dict[str, Any]:
    """The record stored in ``raw`` (``crc`` popped); raises
    :class:`CorruptRecord` for a torn, garbled or CRC-failing line.

    The checksum is checked over the line's own bytes first
    (:func:`_line_crc`) and, when that does not match, over the
    re-encoded record — so any line whose record re-encodes to its
    ``crc`` is intact, in whatever form it was written."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CorruptRecord("unparseable record") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise CorruptRecord("record is not an object with a crc")
    crc = record.pop("crc")
    if _line_crc(raw) != crc and record_crc(record) != crc:
        raise CorruptRecord("checksum mismatch")
    return record


def decode_line(raw: bytes) -> Optional[Dict[str, Any]]:
    """:func:`parse_line`, with ``None`` for any line that is not intact."""
    try:
        return parse_line(raw)
    except CorruptRecord:
        return None


def pack_payload(value: Any) -> str:
    """Pickle ``value`` into record-safe base64 text."""
    return base64.b64encode(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def unpack_payload(text: str) -> Any:
    """Inverse of :func:`pack_payload`; raises on any damage."""
    return pickle.loads(base64.b64decode(text))
