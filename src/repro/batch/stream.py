"""CRC-tagged JSON-lines result streams (``repro.batch.stream``).

The *persist* third of the batch engine's dispatch/collect/persist
split: one append-only stream of per-instance records, each line a
:mod:`repro.runtime.records` record (canonical JSON plus a CRC-32 over
its own content).  Batch runs, queue shards and the server's results
file all write through :class:`ResultStream`.  Records are
**independent facts**: a torn or corrupted line (crash mid-append,
partial rsync) is skipped on load, never a truncation point, so every
intact record before *and after* it still counts.

Durability has two tiers.  The default ``flush`` after every record
survives process death (the batch's own crash-tolerance contract).
``fsync=True`` additionally fsyncs every append, so records survive
whole-host crash — the queue-worker posture, where another host will
trust the stream during lease takeover — at a single-host throughput
cost, which is why it is opt-in (``repro batch --fsync-results``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, BinaryIO, Dict, Union

from ..core.exceptions import BatchError
from ..runtime.records import decode_line, encode_line
from ..runtime.records import canonical_json, record_crc  # noqa: F401 - re-exported

__all__ = [
    "canonical_json",
    "record_crc",
    "ResultStream",
    "load_stream_records",
    "load_completed",
]


def load_stream_records(path: Union[str, Path]) -> list:
    """Every CRC-valid record in ``path``, in file order (missing file =
    no records; corrupt lines skipped)."""
    path = Path(path)
    records = []
    try:
        raw_lines = path.read_bytes().splitlines()
    except FileNotFoundError:
        return records
    except OSError as exc:
        raise BatchError(f"results stream {path}: unreadable: {exc}") from exc
    for raw in raw_lines:
        record = decode_line(raw)
        if record is not None:
            records.append(record)
    return records


def load_completed(path: Union[str, Path], *, require: bool = False) -> Dict[str, Dict[str, Any]]:
    """Reload a (possibly torn) results stream for resume.

    Returns the last successful record per instance fingerprint —
    ``failed`` records are deliberately excluded, so a resumed batch
    retries them.  ``require=True`` (the ``--resume`` CLI contract)
    turns a missing stream into a :class:`BatchError` naming the path,
    instead of silently resuming over nothing.
    """
    path = Path(path)
    if require and not path.is_file():
        detail = "is not a regular file" if path.exists() else "no such file"
        raise BatchError(
            f"results.resume: {path}: {detail} — --resume needs the results "
            "stream of the interrupted run (or drop --resume to start fresh)"
        )
    done: Dict[str, Dict[str, Any]] = {}
    for record in load_stream_records(path):
        if record.get("status") in ("ok", "degraded") and record.get("sha"):
            done[record["sha"]] = record
    return done


class ResultStream:
    """Append-side handle on one results file.

    ``resume=True`` keeps the existing content, healing a torn final
    line (newline-terminating it) so appended records start clean;
    otherwise the file is truncated.  ``fsync=True`` fsyncs every
    record — see the module docstring for when that is worth it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        resume: bool = False,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if resume and self.path.exists():
                raw = self.path.read_bytes()
                if raw and not raw.endswith(b"\n"):
                    with open(self.path, "ab") as f:
                        f.write(b"\n")
                self._stream: BinaryIO = open(self.path, "ab")
            else:
                self._stream = open(self.path, "wb")
        except OSError as exc:
            raise BatchError(f"results stream {self.path}: cannot open: {exc}") from exc

    def emit(self, record: Dict[str, Any]) -> None:
        """Durably append one record (CRC added here; flushed always,
        fsynced when this stream was opened with ``fsync=True``)."""
        self._stream.write(encode_line(record))
        self._stream.flush()
        if self.fsync:
            os.fsync(self._stream.fileno())

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ResultStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
