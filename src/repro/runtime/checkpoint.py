"""Crash-tolerant checkpoint journal: record completed work, resume it.

On large instances the exact pipeline (candidate enumeration over
K = 2..|A| plus branch-and-bound covering) legitimately runs for
minutes to hours — the regime where interruption (SIGKILL, OOM, a
pre-empted container) is the common case.  The :class:`CheckpointJournal`
makes completed work survive the process:

- **chunk records** — one per completed candidate-generation planning
  chunk (``generate_candidates``' ``_PLAN_CHUNK`` boundaries),
  carrying the chunk's solved
  :class:`~repro.core.merging.MergingPlan` list so a resume replays it
  instead of re-solving the placements;
- **incumbent records** — every strict improvement found by the
  covering solvers (bnb integral incumbents, ILP integral solutions),
  so a resumed search starts from the best bound already proved;
- **solution records** — the final cover, so a resume after the
  covering step completed replays it outright.

File format: one :mod:`repro.runtime.records` line per record,
``{"crc": ..., "kind": ..., "seq": ..., "payload": ...}`` where ``crc``
is the CRC-32 of the canonical JSON of the other three fields.  The
header (first record) is written via atomic write-temp-fsync-rename;
every append is flushed and fsynced before the journal reports the
work unit as durable.  On load,
the first record whose line is incomplete, whose CRC mismatches, or
whose sequence number breaks monotonicity marks the start of a
**corrupted tail**: everything from there is reported (:attr:`~
CheckpointJournal.tail_report`) and discarded — truncated on the next
append — never crashing and never silently poisoning a resume.

A journal is bound to one instance by a fingerprint
(:func:`instance_fingerprint`) over the constraint graph, the library,
and every option that changes the candidate set or the covering
objective.  Resuming against a different instance raises
:class:`~repro.core.exceptions.CheckpointIncompatibleError` (CLI exit
code 6).

Plans inside chunk records are the codec's pickle+base64 payloads
(they are arbitrary plan objects; the same representation the
persistent cache stores).  The CRC guards against corruption;
the journal is a local, same-trust-boundary file — do not resume
journals from untrusted sources.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.exceptions import CheckpointError, CheckpointIncompatibleError
from .records import (
    CorruptRecord,
    canonical_json,
    encode_line,
    pack_payload,
    parse_line,
    unpack_payload,
)

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "JournalSolution",
    "instance_fingerprint",
]

#: bump on any incompatible change to the record schema.
JOURNAL_VERSION = 1


def instance_fingerprint(graph, library, options=None) -> str:
    """SHA-256 over the instance and every result-shaping option.

    Includes the full constraint graph and library (their canonical
    JSON dict forms) plus
    :meth:`~repro.core.synthesis.SynthesisOptions.result_shaping`, so a
    resume may use a different deadline or validation setting.
    """
    from ..io.json_io import constraint_graph_to_dict, library_to_dict

    doc: Dict[str, Any] = {
        "version": JOURNAL_VERSION,
        "constraint_graph": constraint_graph_to_dict(graph),
        "library": library_to_dict(library),
    }
    if options is not None:
        doc["options"] = options.result_shaping()
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return digest


def _groups_digest(groups: Sequence[Tuple[str, ...]]) -> str:
    """Stable digest of one chunk's arc-name groups (order-sensitive)."""
    payload = json.dumps([list(g) for g in groups], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class JournalSolution:
    """A final cover recorded in (or replayed from) the journal."""

    __slots__ = ("column_names", "weight", "optimal", "source_stage", "quality")

    def __init__(
        self,
        column_names: Tuple[str, ...],
        weight: float,
        optimal: bool,
        source_stage: str,
        quality: Optional[str] = None,
    ) -> None:
        self.column_names = tuple(column_names)
        self.weight = float(weight)
        self.optimal = bool(optimal)
        self.source_stage = source_stage
        self.quality = quality


class CheckpointJournal:
    """Append-only, CRC-checked journal of completed synthesis work.

    Use :meth:`open` — it handles creation, resume and tail repair.
    The journal object is *not* thread- or process-shared: one writer
    (the synthesizing process) owns it for the duration of a run.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: replayable chunk plans: (k, index, groups_digest) -> payload
        self._chunks: Dict[Tuple[int, int, str], str] = {}
        #: best recorded covering incumbent: (weight, columns, stage)
        self.best_incumbent: Optional[Tuple[float, Tuple[str, ...], str]] = None
        #: final recorded cover, if the original run got that far.
        self.solution: Optional[JournalSolution] = None
        #: human-readable description of a discarded corrupted tail.
        self.tail_report: Optional[str] = None
        #: counters for reporting: chunks replayed / recorded this run.
        self.chunks_replayed = 0
        self.chunks_recorded = 0
        self._seq = 0
        self._handle: Optional[io.BufferedWriter] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        fingerprint: str,
        resume: bool = False,
    ) -> "CheckpointJournal":
        """Create (or, with ``resume``, reload) the journal at ``path``.

        Without ``resume`` an existing file is overwritten with a fresh
        journal.  With ``resume``:

        - a missing file starts a fresh journal (first run of a
          checkpointed pipeline);
        - an existing journal is loaded, its corrupted tail (if any)
          detected and discarded, and its header fingerprint checked —
          a mismatch raises :class:`CheckpointIncompatibleError`;
        - a file that is not a journal at all (unreadable header)
          raises :class:`CheckpointError`.
        """
        journal = cls(path, fingerprint)
        if resume and journal.path.exists():
            valid_end = journal._load()
            journal._open_for_append(valid_end)
        else:
            journal._create()
        return journal

    def _create(self) -> None:
        from ..io.atomic import atomic_write

        header = {
            "kind": "header",
            "seq": 0,
            "payload": {"version": JOURNAL_VERSION, "fingerprint": self.fingerprint},
        }
        atomic_write(self.path, encode_line(header))
        self._seq = 1
        self._handle = open(self.path, "ab")

    def _open_for_append(self, valid_end: int) -> None:
        handle = open(self.path, "r+b")
        handle.truncate(valid_end)
        handle.seek(0, os.SEEK_END)
        self._handle = handle  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self) -> int:
        """Scan the journal; return the byte offset of the valid prefix.

        Populates the replay state from every valid record.  The first
        invalid record (bad JSON, CRC mismatch, broken sequence,
        missing final newline) starts the discarded tail.
        """
        raw = self.path.read_bytes()
        offset = 0
        index = 0
        expected_seq = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                self._set_tail_report(index, "truncated mid-record (no final newline)")
                break
            try:
                record = parse_line(raw[offset:newline])
            except CorruptRecord as exc:
                self._set_tail_report(index, str(exc))
                break
            if record.get("seq") != expected_seq:
                self._set_tail_report(
                    index, f"sequence break (expected {expected_seq}, found {record.get('seq')})"
                )
                break
            if index == 0:
                self._check_header(record)
            else:
                self._apply(record)
            offset = newline + 1
            index += 1
            expected_seq += 1

        if index == 0:
            raise CheckpointError(
                f"{self.path}: not a checkpoint journal "
                f"({self.tail_report or 'empty file'})"
            )
        self._seq = expected_seq
        return offset

    def _set_tail_report(self, index: int, reason: str) -> None:
        self.tail_report = (
            f"discarded corrupted journal tail at record {index}: {reason} "
            f"(work before it is preserved)"
        )

    def _check_header(self, record: Dict[str, Any]) -> None:
        payload = record.get("payload")
        if record.get("kind") != "header" or not isinstance(payload, dict):
            raise CheckpointError(f"{self.path}: first record is not a journal header")
        version = payload.get("version")
        if version != JOURNAL_VERSION:
            raise CheckpointIncompatibleError(
                f"{self.path}: journal version {version!r} is not the "
                f"supported version {JOURNAL_VERSION}",
            )
        found = payload.get("fingerprint", "")
        if found != self.fingerprint:
            raise CheckpointIncompatibleError(
                f"{self.path}: journal belongs to a different instance "
                f"(fingerprint {found[:12]}… != expected {self.fingerprint[:12]}…) — "
                f"refusing to resume",
                expected=self.fingerprint,
                found=found,
            )

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return
        if kind == "chunk":
            key = (int(payload["k"]), int(payload["index"]), str(payload["groups"]))
            self._chunks[key] = str(payload["plans"])
        elif kind == "incumbent":
            weight = float(payload["weight"])
            columns = tuple(str(c) for c in payload["columns"])
            stage = str(payload.get("stage", ""))
            if self.best_incumbent is None or weight < self.best_incumbent[0] - 1e-12:
                self.best_incumbent = (weight, columns, stage)
        elif kind == "solution":
            self.solution = JournalSolution(
                column_names=tuple(str(c) for c in payload["columns"]),
                weight=float(payload["weight"]),
                optimal=bool(payload["optimal"]),
                source_stage=str(payload.get("stage", "")),
                quality=payload.get("quality"),
            )
        # unknown kinds are skipped: forward-compatible within a version

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _append(self, kind: str, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            raise CheckpointError(f"{self.path}: journal is closed")
        record = {"kind": kind, "seq": self._seq, "payload": payload}
        try:
            line = encode_line(record)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"cannot serialize {kind!r} record: {exc}") from exc
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._seq += 1

    # ------------------------------------------------------------------
    # chunk records (candidate generation)
    # ------------------------------------------------------------------
    def get_chunk(
        self, k: int, index: int, groups: Sequence[Tuple[str, ...]]
    ) -> Optional[List[Any]]:
        """Replay one planning chunk, or None when it was never recorded.

        A record whose stored plans fail to unpickle (corruption that
        slipped past the CRC is effectively impossible, but a library
        version drift is not) is treated as absent, never fatal.
        """
        payload = self._chunks.get((k, index, _groups_digest(groups)))
        if payload is None:
            return None
        try:
            plans = unpack_payload(payload)
        except Exception:  # noqa: BLE001 - any unpickling failure ⇒ recompute
            return None
        if not isinstance(plans, list) or len(plans) != len(groups):
            return None
        self.chunks_replayed += 1
        return plans

    def record_chunk(
        self, k: int, index: int, groups: Sequence[Tuple[str, ...]], plans: Sequence[Any]
    ) -> None:
        """Durably record one completed planning chunk."""
        payload = {
            "k": k,
            "index": index,
            "groups": _groups_digest(groups),
            "plans": pack_payload(list(plans)),
        }
        self._append("chunk", payload)
        self._chunks[(k, index, payload["groups"])] = payload["plans"]
        self.chunks_recorded += 1

    # ------------------------------------------------------------------
    # covering records
    # ------------------------------------------------------------------
    def record_incumbent(self, stage: str, column_names: Sequence[str], weight: float) -> None:
        """Record a strict covering improvement (bnb/ilp integral incumbent)."""
        if self.best_incumbent is not None and weight >= self.best_incumbent[0] - 1e-12:
            return
        self._append(
            "incumbent",
            {"stage": stage, "columns": sorted(column_names), "weight": weight},
        )
        self.best_incumbent = (float(weight), tuple(sorted(column_names)), stage)

    def record_solution(
        self,
        stage: str,
        column_names: Sequence[str],
        weight: float,
        optimal: bool,
        quality: Optional[str] = None,
    ) -> None:
        """Record the final served cover (terminal record of a run)."""
        self._append(
            "solution",
            {
                "stage": stage,
                "columns": list(column_names),
                "weight": weight,
                "optimal": optimal,
                "quality": quality,
            },
        )
        self.solution = JournalSolution(
            tuple(column_names), weight, optimal, stage, quality
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal file (the file stays on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointJournal(path={str(self.path)!r}, chunks={len(self._chunks)}, "
            f"incumbent={self.best_incumbent is not None}, "
            f"solution={self.solution is not None})"
        )
