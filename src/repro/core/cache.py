"""Persistent cross-run derived-result cache (``repro.core.cache``).

Design-space exploration workloads — Table 1-style sweeps over
libraries and floorplans, the sensitivity/Pareto analyses, batch runs
over instance corpora — re-solve near-identical instances where most
derived results are shared.  This module gives those results a home
that outlives the process: a versioned, CRC-checked on-disk store
memoizing two spaces of results,

- ``merge`` — **merging plans**: :func:`~repro.core.merging.build_merging_plan`
  placement solves keyed by ``(library fingerprint, norm, polish flag,
  group geometry + bandwidths)``, the dominant recomputation when a
  sweep re-solves the same groups.  The stored value is the lean
  :class:`~repro.core.merging.MergingPlan` (placement, exact cost, hop
  count, mux/demux counts), without stage plans, links or nodes, so a
  record line stays under 1 KB and a warm run decodes little;
- ``mixed`` — **mixed chains**: heterogeneous segmentations keyed by
  ``(library fingerprint, distance, bandwidth)``.

Point-to-point plans (Definition 2.7) are not stored: one costs about
as much to compute as to decode from a record, and the first lookup in
a space decodes that space's whole file.  They keep the in-process memo
of :func:`~repro.core.point_to_point.best_point_to_point`.

Correctness model
-----------------
Every key starts with the **library fingerprint** — a SHA-256 over the
library's canonical JSON form, memoized per-process on the library's
version-keyed :meth:`~repro.core.library.CommunicationLibrary.derived_cache`
(the mutation counter), so mutating a library changes the fingerprint
and can never serve a stale plan.  Served values are the pickled
originals: a cache hit is byte-identical to recomputation, so cached
and uncached synthesis results are the same object graph.

Storage is one JSON-lines file per ``(space, fingerprint)`` under the
cache directory, each record CRC-32 checked; a corrupted record
(bit flip, torn concurrent append) is discarded on load, never served.
Appends are line-buffered ``O_APPEND`` writes, so concurrent batch
workers can share one cache directory: a torn interleaving at worst
loses the torn records.  The store is a local, same-trust-boundary
file set (values are pickled) — do not point it at untrusted data.

The cache is *ambient*: install one with :func:`persistent_cache`
around any synthesis code and the hot paths consult it before they
recompute::

    from repro.core.cache import PersistentCache, persistent_cache

    with persistent_cache(PersistentCache("~/.cache/repro")) as store:
        synthesize(graph, library)      # warm runs skip recomputation
    print(store.stats.hits, store.stats.misses)
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple, Union

from ..obs import current_tracer
from ..runtime.records import (
    canonical_json,
    decode_line,
    encode_line,
    pack_payload,
    unpack_payload,
)
from .library import CommunicationLibrary

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "PersistentCache",
    "library_fingerprint",
    "persistent_cache",
    "set_persistent_cache",
    "current_persistent_cache",
]

#: bump on any incompatible change to the record schema or to the
#: answers of the solvers whose results are stored (version 2: merge
#: placement; version 3: the certified placement of a pinned side;
#: version 4: the lean merging plan, without stage plans); entry files
#: are version-suffixed, so a bump orphans old files instead of
#: misreading them.
CACHE_VERSION = 4


def library_fingerprint(library: CommunicationLibrary) -> str:
    """SHA-256 over the library's canonical JSON form.

    Memoized on the library's version-keyed ``derived_cache``, so the
    digest is recomputed after any mutation (``add_link``/``add_node``
    bump the version counter) and two libraries with identical content
    share cache entries regardless of object identity.
    """
    memo = library.derived_cache("fingerprint")
    cached = memo.get("sha256")
    if cached is not None:
        return cached
    from ..io.json_io import library_to_dict  # lazy: avoids an import cycle

    digest = hashlib.sha256(canonical_json(library_to_dict(library)).encode("utf-8")).hexdigest()
    memo["sha256"] = digest
    return digest


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PersistentCache` handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: records discarded on load: CRC mismatch, unparseable line,
    #: fingerprint collision, or unpicklable payload.
    corrupt_discarded: int = 0
    entries_loaded: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_discarded": self.corrupt_discarded,
            "entries_loaded": self.entries_loaded,
        }

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter difference versus an earlier :meth:`copy`."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            writes=self.writes - since.writes,
            corrupt_discarded=self.corrupt_discarded - since.corrupt_discarded,
            entries_loaded=self.entries_loaded - since.entries_loaded,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            corrupt_discarded=self.corrupt_discarded,
            entries_loaded=self.entries_loaded,
        )


def _foreign_entry(raw: bytes, fp16: str) -> Optional[Dict[str, Any]]:
    """One intact entry line of a *foreign* cache file whose full
    fingerprint matches the file it lives in, else ``None``.  Payloads
    are deliberately not unpickled: import moves opaque records between
    directories, and deserialization (with its own corruption check)
    happens at serve time in :meth:`PersistentCache._load_record`."""
    record = decode_line(raw)
    fp = record.get("fp") if record is not None else None
    return record if isinstance(fp, str) and fp.startswith(fp16) else None


#: sentinel distinguishing "key absent" from "cached value is None"
#: (an infeasible merging is a legitimate, expensive-to-recompute fact).
_ABSENT = object()


class PersistentCache:
    """A cross-run store of derived synthesis results.

    One instance owns one cache *directory*; entry files inside it are
    named ``{space}-v{CACHE_VERSION}-{fp16}.jsonl`` where ``space`` is
    the result family (``merge``, ``mixed``) and ``fp16`` the library
    fingerprint prefix.  Safe to share the directory between
    concurrent processes (appends are atomic-enough lines; corrupted
    interleavings are CRC-discarded).  Not thread-safe within one
    process — one handle per worker.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._tables: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._handles: Dict[Path, BinaryIO] = {}
        self._write_meta()

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _write_meta(self) -> None:
        """Record the store version (informational; files self-version)."""
        meta = self.directory / "cache-meta.json"
        if not meta.exists():
            from ..io.atomic import atomic_write

            atomic_write(meta, canonical_json({"format": "repro-cache", "version": CACHE_VERSION}))

    def _entry_path(self, space: str, fingerprint: str) -> Path:
        return self.directory / f"{space}-v{CACHE_VERSION}-{fingerprint[:16]}.jsonl"

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _table(self, space: str, fingerprint: str) -> Dict[str, Any]:
        table = self._tables.get((space, fingerprint))
        if table is not None:
            return table
        table = {}
        path = self._entry_path(space, fingerprint)
        if path.exists():
            for raw in path.read_bytes().splitlines():
                self._load_record(raw, fingerprint, table)
        self._tables[(space, fingerprint)] = table
        return table

    def _load_record(self, raw: bytes, fingerprint: str, table: Dict[str, Any]) -> None:
        """Validate and absorb one stored line; discard it on any defect.

        Unlike the checkpoint journal, records are independent facts
        with no ordering, so a bad line is *skipped* (not a truncation
        point) — later records written by other workers still load.
        """
        record = decode_line(raw)
        if record is None or record.get("fp") != fingerprint:
            self.stats.corrupt_discarded += 1
            return
        payload = record.get("val")
        if payload is None:
            value: Any = None
        else:
            try:
                value = unpack_payload(payload)
            except Exception:  # noqa: BLE001 - any decode failure ⇒ discard
                self.stats.corrupt_discarded += 1
                return
        table[str(record.get("key"))] = value
        self.stats.entries_loaded += 1

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def lookup(self, space: str, library: CommunicationLibrary, key: Any) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit — value may be ``None`` (a cached
        infeasibility) — or ``(False, None)`` on a miss."""
        fingerprint = library_fingerprint(library)
        value = self._table(space, fingerprint).get(canonical_json(key), _ABSENT)
        if value is _ABSENT:
            self.stats.misses += 1
            current_tracer().count_local(f"cache.persistent.{space}.miss")
            return False, None
        self.stats.hits += 1
        current_tracer().count_local(f"cache.persistent.{space}.hit")
        return True, value

    def put(self, space: str, library: CommunicationLibrary, key: Any, value: Any) -> None:
        """Durably record one derived result (idempotent re-puts are fine)."""
        fingerprint = library_fingerprint(library)
        record: Dict[str, Any] = {
            "fp": fingerprint,
            "key": canonical_json(key),
            "val": None if value is None else pack_payload(value),
        }
        line = encode_line(record)
        path = self._entry_path(space, fingerprint)
        handle = self._handles.get(path)
        if handle is None:
            handle = open(path, "ab")
            self._handles[path] = handle
        handle.write(line)
        handle.flush()
        self._table(space, fingerprint)[record["key"]] = value
        self.stats.writes += 1
        current_tracer().count_local(f"cache.persistent.{space}.write")

    # ------------------------------------------------------------------
    # shareable tier: content-addressed pack import/export
    # ------------------------------------------------------------------
    def import_from(self, source: Union[str, Path]) -> int:
        """Union another cache directory's entries into this one.

        The network-shareable tier: hosts exchange whole cache
        directories (rsync, shared mount, artifact upload) and fold
        them together with this.  Entries are content-addressed — keyed
        by library fingerprint + canonical key — so import is an
        idempotent set-union: records already present are skipped, new
        ones appended.  Tolerant of *partial* copies by construction:
        every line is CRC-validated independently, so a file truncated
        mid-append by a racing rsync contributes its intact records and
        has its torn tail counted in ``corrupt_discarded``, never
        imported and never served.  Only files of this build's
        ``CACHE_VERSION`` participate.  Returns the number of records
        imported.
        """
        source = Path(source).expanduser()
        if source.resolve() == self.directory.resolve():
            return 0
        marker = f"-v{CACHE_VERSION}-"
        imported = 0
        for path in sorted(source.glob(f"*{marker}*.jsonl")):
            stem = path.name[: -len(".jsonl")]
            space, _, fp16 = stem.rpartition(marker)
            if not space or len(fp16) != 16:
                continue
            try:
                src_lines = path.read_bytes().splitlines()
            except OSError:  # pragma: no cover - racing copy/delete
                continue
            dest_path = self.directory / path.name
            have = set()
            if dest_path.exists():
                for raw in dest_path.read_bytes().splitlines():
                    record = _foreign_entry(raw, fp16)
                    if record is not None:
                        have.add((record["fp"], str(record.get("key"))))
            fresh = []
            for raw in src_lines:
                record = _foreign_entry(raw, fp16)
                if record is None:
                    self.stats.corrupt_discarded += 1
                    continue
                ident = (record["fp"], str(record.get("key")))
                if ident in have:
                    continue
                have.add(ident)
                fresh.append(encode_line(record))
            if not fresh:
                continue
            handle = self._handles.get(dest_path)
            if handle is None:
                handle = open(dest_path, "ab")
                self._handles[dest_path] = handle
            handle.write(b"".join(fresh))
            handle.flush()
            imported += len(fresh)
            # drop stale in-memory tables for this file so the next
            # lookup reloads the unioned content.
            for key in [k for k in self._tables if k[0] == space and k[1].startswith(fp16)]:
                del self._tables[key]
        if imported:
            current_tracer().count_local("cache.persistent.imported", imported)
        return imported

    def export_to(self, dest: Union[str, Path]) -> int:
        """Union this cache's entries into ``dest`` (the other direction
        of :meth:`import_from`); returns the record count exported."""
        with PersistentCache(dest) as pack:
            return pack.import_from(self.directory)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close append handles (entries already on disk stay valid)."""
        for handle in self._handles.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
        self._handles.clear()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentCache(directory={str(self.directory)!r}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


# ----------------------------------------------------------------------
# ambient installation (mirrors repro.obs.current_tracer)
# ----------------------------------------------------------------------

_ACTIVE: Optional[PersistentCache] = None


def current_persistent_cache() -> Optional[PersistentCache]:
    """The ambient store consulted by the hot paths (None = disabled)."""
    return _ACTIVE


def set_persistent_cache(store: Optional[PersistentCache]) -> Optional[PersistentCache]:
    """Install ``store`` ambiently; returns the previous store.

    Prefer the :func:`persistent_cache` context manager; this low-level
    setter exists for process-pool worker initializers, where there is
    no enclosing ``with`` scope.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous


@contextmanager
def persistent_cache(store: Optional[PersistentCache]) -> Iterator[Optional[PersistentCache]]:
    """Scope an ambient :class:`PersistentCache` (``None`` disables one)."""
    previous = set_persistent_cache(store)
    try:
        yield store
    finally:
        set_persistent_cache(previous)
