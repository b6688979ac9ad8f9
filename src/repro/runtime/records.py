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


def parse_line(raw: bytes) -> Dict[str, Any]:
    """The record stored in ``raw`` (``crc`` popped); raises
    :class:`CorruptRecord` for a torn, garbled or CRC-failing line."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CorruptRecord("unparseable record") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise CorruptRecord("record is not an object with a crc")
    crc = record.pop("crc")
    if record_crc(record) != crc:
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
