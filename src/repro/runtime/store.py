"""Segment-backed, content-addressed result cache.

A :class:`ResultStore` maps a cache key (the SHA-256 fingerprint of a
run specification, :mod:`repro.runtime.spec`) to a dict payload.  The
on-disk format is a **compacted append-only segment log** — the byte-
level specification lives in ``docs/STORE.md``:

- every ``put`` appends one self-validating binary record
  (:data:`RECORD_MAGIC`, CRC-32, schema version, key, marshal-encoded
  payload — :func:`repro.runtime.serde.payload_to_bytes`) to the
  **active segment** under ``<root>/segments/``;
- segments **seal** (atomic rename ``.open`` → ``.seg``) once they
  reach :data:`DEFAULT_SEGMENT_MAX_BYTES`; sealed segments are
  immutable;
- an **in-memory index** (key → segment/offset) is rebuilt by scanning
  the segments on open: torn tails are truncated, records failing
  their CRC are counted in :attr:`StoreStats.corrupt` and skipped;
- hot keys are served from an in-process **LRU read cache**
  (:data:`DEFAULT_CACHE_CAPACITY` payloads) without touching disk;
- :meth:`ResultStore.compact` rewrites live records into fresh sealed
  segments (write-temp-then-``os.replace``) and drops superseded ones.

The durability contract is unchanged from the per-entry JSON layout
this store replaced (and its tests still pin it):

- **Corruption is a miss, never an error.**  A damaged, truncated, or
  stale-schema record reads as absent; the run re-executes and the
  entry is rewritten.
- **Atomic visibility.**  Records become visible only once fully
  appended; seals and compacted segments land via atomic rename, so a
  killed process can never expose a half-written entry under a valid
  key.
- **Schema rejection.**  Every record carries the
  :data:`~repro.runtime.spec.CACHE_SCHEMA_VERSION` it was written
  under; records from other schema versions are corrupt misses.

Buckets of the retired per-entry JSON layout
(``<root>/<key[:2]>/<key>.json``) are never read: every entry in them
predates the current schema.  :meth:`ResultStore.clear` removes them
and :func:`legacy_entry_count` counts them (``docs/STORE.md``,
"Legacy layout").
"""

from __future__ import annotations

import io
import os
import pathlib
import re
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..obs.tracer import Tracer, active_tracer
from .serde import payload_from_bytes, payload_to_bytes

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory, like
#: ``.pytest_cache``), used when the env var is unset.
DEFAULT_CACHE_DIRNAME = ".repro-cache"

#: Subdirectory of the store root holding the segment files.
SEGMENT_DIRNAME = "segments"

#: First 8 bytes of every segment file (``docs/STORE.md``).
SEGMENT_MAGIC = b"CAMPSEG1"

#: First 4 bytes of every record within a segment.
RECORD_MAGIC = b"CREC"

#: Fixed-size record header: magic (4s), CRC-32 (I), flags (B),
#: schema version (I), key length (H), payload length (I) —
#: little-endian, 19 bytes total.  The CRC covers every byte after
#: the CRC field itself: flags..payload inclusive.
RECORD_HEADER = struct.Struct("<4sIBIHI")

#: ``flags`` bit marking a deletion record (`invalidate`).
FLAG_TOMBSTONE = 0x01

#: Active segments seal (and become immutable) at this size.
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

#: Payloads held by the in-process LRU read cache.
DEFAULT_CACHE_CAPACITY = 4096

#: Open read handles kept per store, LRU-evicted.  Segment files are
#: never rewritten in place (seals rename the same inode; compaction
#: writes fresh names), so a cached handle can never see stale bytes.
DEFAULT_READER_HANDLES = 64

#: Dead-byte fraction above which a seal triggers auto-compaction.
AUTO_COMPACT_DEAD_FRACTION = 0.5

#: ``get_many`` switches from per-record reads to one whole-segment
#: read once the batch wants at least one record per this many bytes
#: of the file — the syscall-per-record overhead then costs more than
#: streaming the segment sequentially.
BULK_READ_DENSITY_BYTES = 4096

_SCHEMA_VERSION: Optional[int] = None


def _schema_version() -> int:
    """:data:`~repro.runtime.spec.CACHE_SCHEMA_VERSION`, memoized.

    The import stays lazy (``spec`` pulls in the whole simulator), but
    the per-record decode path cannot afford import machinery.
    """
    global _SCHEMA_VERSION
    if _SCHEMA_VERSION is None:
        from .spec import CACHE_SCHEMA_VERSION
        _SCHEMA_VERSION = CACHE_SCHEMA_VERSION
    return _SCHEMA_VERSION

#: Segment filename shape: ``seg-<seq:08d>-<token>.<seg|open>``.
_SEGMENT_NAME = re.compile(
    r"^seg-(\d{8})-([0-9a-z_]+)\.(seg|open)$")

_HEX_KEY = re.compile(r"^[0-9a-f]+$")


def default_cache_dir() -> pathlib.Path:
    """The cache root the CLI uses unless ``--cache-dir`` overrides it."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV,
                                       DEFAULT_CACHE_DIRNAME))


def _check_key(key: str) -> str:
    if not key or not _HEX_KEY.match(key):
        raise ValueError(f"malformed cache key: {key!r}")
    return key


@dataclass
class StoreStats:
    """Counters one store accumulated over its lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    #: Hits served straight from the LRU cache (subset of ``hits``).
    cached_hits: int = 0
    #: Bytes appended to segments (records, not file headers).
    appended_bytes: int = 0
    #: Segments sealed (size rollover, compaction, or close).
    sealed_segments: int = 0
    #: Explicit or automatic compaction passes.
    compactions: int = 0
    #: Deletion records appended by :meth:`ResultStore.invalidate`.
    tombstones: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt,
                "cached_hits": self.cached_hits,
                "appended_bytes": self.appended_bytes,
                "sealed_segments": self.sealed_segments,
                "compactions": self.compactions,
                "tombstones": self.tombstones}


def encode_record(key: str, payload_bytes: bytes, schema: int,
                  flags: int = 0) -> bytes:
    """One self-validating record, exactly as it lands in a segment."""
    key_bytes = key.encode("ascii")
    body = struct.pack("<BIHI", flags, schema, len(key_bytes),
                       len(payload_bytes)) + key_bytes + payload_bytes
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return RECORD_MAGIC + struct.pack("<I", crc) + body


@dataclass
class _Location:
    """Where one live record sits on disk."""

    path: pathlib.Path
    offset: int
    length: int


@dataclass
class _ActiveSegment:
    """The segment this store is currently appending to."""

    path: pathlib.Path
    handle: io.BufferedWriter
    seq: int
    size: int
    #: This segment's scan state, held directly so the per-record
    #: append path skips the ``_scans`` dict (and a ``Path.stem``).
    scan: Optional["_ScanState"] = None


@dataclass
class _ScanState:
    """How far one segment file has been indexed."""

    path: pathlib.Path
    offset: int
    sealed: bool


@dataclass
class _Parsed:
    key: str
    flags: int
    offset: int
    length: int


class ResultStore:
    """On-disk segment store addressed by run-spec fingerprints.

    Parameters
    ----------
    root:
        Store root; ``<root>/segments/`` holds the log.  Defaults to
        :func:`default_cache_dir`.
    tracer:
        Span tracer for get/put timing; an active trace session
        overrides it.
    segment_max_bytes:
        Seal threshold for the active segment (docs/STORE.md
        "Tuning").
    cache_capacity:
        Payloads kept in the in-process LRU read cache; ``0`` disables
        the cache.
    auto_compact:
        Compact automatically when a seal leaves more than
        :data:`AUTO_COMPACT_DEAD_FRACTION` of the log superseded.
    """

    def __init__(self, root: Optional[pathlib.Path] = None,
                 tracer: Optional[Tracer] = None, *,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 auto_compact: bool = True):
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be positive")
        if cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        self.root = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.stats = StoreStats()
        #: Span tracer for store timing; the executor wires its
        #: telemetry's tracer in, and a trace session overrides both.
        self.tracer = tracer
        self.segment_max_bytes = segment_max_bytes
        self.cache_capacity = cache_capacity
        self.auto_compact = auto_compact
        self._lock = threading.RLock()
        self._index: Dict[str, _Location] = {}
        self._readers: "OrderedDict[pathlib.Path, Any]" = OrderedDict()
        self._cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._scans: Dict[str, _ScanState] = {}
        self._active: Optional[_ActiveSegment] = None
        self._live_bytes = 0
        self._dead_bytes = 0
        self._opened = False

    # -- paths ---------------------------------------------------------------
    @property
    def segment_dir(self) -> pathlib.Path:
        return self.root / SEGMENT_DIRNAME

    def segment_paths(self) -> List[pathlib.Path]:
        """Every segment file, in (seq, token) scan order."""
        return [path for _, _, path, _ in self._segment_files()]

    def _segment_files(self) \
            -> List[Tuple[int, str, pathlib.Path, bool]]:
        directory = self.segment_dir
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        files = []
        for name in names:
            match = _SEGMENT_NAME.match(name)
            if match is None:
                continue
            files.append((int(match.group(1)), match.group(2),
                          directory / name, match.group(3) == "seg"))
        files.sort(key=lambda item: (item[0], item[1]))
        return files

    def _tracer(self) -> Optional[Tracer]:
        session = active_tracer()
        return session if session is not None else self.tracer

    def _span(self, name: str, **attrs: Any):
        tracer = self._tracer()
        if tracer is None:
            return None
        return tracer.span(name, layer="store", **attrs)

    # -- open / scan ---------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._opened:
            return
        self._opened = True
        span = self._span("store.open")
        if span is None:
            self._open()
            return
        with span as opened:
            self._open()
            opened.annotate(entries=len(self._index),
                            corrupt=self.stats.corrupt)

    def _open(self) -> None:
        self._drop_compaction_leftovers()
        self._refresh(initial=True)

    def _drop_compaction_leftovers(self) -> None:
        """Remove temp files a killed compaction left behind."""
        try:
            names = os.listdir(self.segment_dir)
        except OSError:
            return
        for name in names:
            if name.startswith(".compact-") and name.endswith(".tmp"):
                try:
                    os.unlink(self.segment_dir / name)
                except OSError:
                    pass

    def _refresh(self, initial: bool = False) -> None:
        """Index segment bytes that appeared since the last look.

        Sealed segments are immutable and scanned once; ``.open``
        segments (this store's active one, or another live/crashed
        writer's) are re-scanned from their last indexed offset when
        they grow.  ``initial`` marks the open-time full scan, the one
        place torn tails are truncated rather than left pending (a
        mid-session torn tail may simply be another writer's append in
        flight).
        """
        for seq, token, path, sealed in self._segment_files():
            stem = f"seg-{seq:08d}-{token}"
            state = self._scans.get(stem)
            if state is None:
                state = _ScanState(path=path, offset=0, sealed=sealed)
                self._scans[stem] = state
            else:
                state.path = path      # .open may have sealed to .seg
                state.sealed = sealed
            if state.sealed and state.offset > 0 and not initial:
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size < state.offset:
                # The file shrank (chaos damage, external trim):
                # rescan from scratch; stale index entries pointing
                # past the new EOF fail their read and self-heal.
                state.offset = 0
            if size > state.offset:
                self._scan_file(state, initial)

    def _scan_file(self, state: _ScanState, initial: bool) -> None:
        from .spec import CACHE_SCHEMA_VERSION
        path = state.path
        try:
            with open(path, "rb") as handle:
                handle.seek(state.offset)
                buf = handle.read()
        except OSError:
            return
        base = state.offset
        pos = 0
        if base == 0:
            if len(buf) < len(SEGMENT_MAGIC):
                return      # header still in flight
            if buf[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
                # Not one of ours: never index it, never touch it.
                self.stats.corrupt += 1
                state.offset = base + len(buf)
                return
            pos = len(SEGMENT_MAGIC)
        while pos < len(buf):
            parsed = self._parse_record(buf, pos, CACHE_SCHEMA_VERSION)
            if parsed == "torn":
                if initial:
                    # Open-time recovery: a crash mid-append left a
                    # partial record at the tail; drop it so the next
                    # append starts on a clean boundary.
                    self.stats.corrupt += 1
                    self._truncate_tail(path, base + pos)
                    pos = len(buf)
                # Mid-session: likely another writer's append in
                # flight — leave it pending, re-scan on growth.
                break
            if parsed is None:
                # One count per failed parse: each damaged record
                # (resynced to by its successor's magic) is one miss.
                self.stats.corrupt += 1
                skip = buf.find(RECORD_MAGIC, pos + 1)
                if skip < 0:
                    pos = len(buf)
                    break
                pos = skip
                continue
            self._index_record(path, base + parsed.offset,
                               parsed.length, parsed.key, parsed.flags)
            pos += parsed.length
        state.offset = base + pos

    def _parse_record(self, buf: bytes, pos: int, schema: int):
        """One record at ``pos``: a ``_Parsed``, ``None`` (invalid and
        resyncable), or ``"torn"`` (runs past the end of the buffer)."""
        if pos + RECORD_HEADER.size > len(buf):
            return "torn" if buf[pos:pos + 4] == RECORD_MAGIC[
                :len(buf) - pos] else None
        magic, crc, flags, rec_schema, key_len, payload_len = \
            RECORD_HEADER.unpack_from(buf, pos)
        if magic != RECORD_MAGIC:
            return None
        if key_len > 4096 or payload_len > (1 << 30):
            # No sane record: a damaged header masquerading as a torn
            # tail would otherwise truncate good records behind it.
            return None
        length = RECORD_HEADER.size + key_len + payload_len
        if pos + length > len(buf):
            # Could be a torn tail append — or garbage lengths from a
            # damaged header.  The CRC distinguishes, but we cannot
            # check it without the missing bytes; treat as torn only
            # at the buffer end, where an in-flight append is possible.
            return "torn"
        body = buf[pos + 8:pos + length]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return None
        if rec_schema != schema:
            # Well-formed record from other code: never serve it
            # (module docstring — schema rejection).
            self.stats.corrupt += 1
            return _Parsed(key="", flags=FLAG_TOMBSTONE, offset=pos,
                           length=length)
        try:
            key = buf[pos + RECORD_HEADER.size:
                      pos + RECORD_HEADER.size + key_len
                      ].decode("ascii")
        except UnicodeDecodeError:
            return None
        return _Parsed(key=key, flags=flags, offset=pos, length=length)

    def _index_record(self, path: pathlib.Path, offset: int,
                      length: int, key: str, flags: int) -> None:
        if not key:
            return
        previous = self._index.get(key)
        if previous is not None:
            self._dead_bytes += previous.length
            self._live_bytes -= previous.length
        if flags & FLAG_TOMBSTONE:
            self._index.pop(key, None)
            self._cache.pop(key, None)
            self._dead_bytes += length
            return
        self._index[key] = _Location(path=path, offset=offset,
                                     length=length)
        self._live_bytes += length

    def _truncate_tail(self, path: pathlib.Path, offset: int) -> None:
        try:
            os.truncate(path, offset)
        except OSError:
            pass
        if self._active is not None and self._active.path == path:
            self._active.size = offset

    # -- read handles --------------------------------------------------------
    def _reader(self, path: pathlib.Path):
        """A (cached) read handle for one segment file."""
        handle = self._readers.get(path)
        if handle is not None:
            self._readers.move_to_end(path)
            return handle
        handle = open(path, "rb")
        self._readers[path] = handle
        while len(self._readers) > DEFAULT_READER_HANDLES:
            _, evicted = self._readers.popitem(last=False)
            evicted.close()
        return handle

    def _drop_reader(self, path: pathlib.Path) -> None:
        handle = self._readers.pop(path, None)
        if handle is not None:
            handle.close()

    def _close_readers(self) -> None:
        while self._readers:
            _, handle = self._readers.popitem()
            handle.close()

    # -- the LRU read cache --------------------------------------------------
    def _cache_put(self, key: str, payload: Dict[str, Any]) -> None:
        if self.cache_capacity <= 0:
            return
        self._cache[key] = payload
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    def _cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._cache.get(key)
        if payload is not None:
            self._cache.move_to_end(key)
        return payload

    # -- reads ---------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None``.

        Any failure mode — unknown key, damaged record, stale schema —
        reads as a miss; damaged records additionally bump
        :attr:`StoreStats.corrupt`.  Treat the returned dict as
        immutable: hot keys are shared through the read cache.
        """
        span = self._span("store.get", key=key[:12])
        if span is None:
            return self._get(key)
        with span as active:
            payload = self._get(key)
            active.annotate(hit=payload is not None)
            return payload

    def _get(self, key: str) -> Optional[Dict[str, Any]]:
        _check_key(key)
        with self._lock:
            self._ensure_open()
            location = self._index.get(key)
            if location is None:
                self._refresh()
                location = self._index.get(key)
            if location is None:
                self.stats.misses += 1
                return None
            return self._read_location(key, location)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Payloads for every hit among ``keys`` (misses are absent).

        One batched lookup: at most one segment-directory refresh no
        matter how many keys miss the index, then cache/disk reads per
        key.  This is the path :class:`~repro.runtime.executor
        .Executor` batches its lookup stage through.
        """
        span = self._span("store.get_many", keys=len(keys))
        if span is None:
            return self._get_many(keys)
        with span as active:
            found = self._get_many(keys)
            active.annotate(hits=len(found),
                            misses=len(keys) - len(found))
            return found

    def _get_many(self, keys: Sequence[str]) \
            -> Dict[str, Dict[str, Any]]:
        for key in keys:
            _check_key(key)
        found: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            self._ensure_open()
            index = self._index
            if any(key not in index for key in keys):
                self._refresh()
                index = self._index
            # Serve LRU hits first and group the rest by segment, so
            # each segment is visited once — and, when the batch is
            # dense enough, read in one sequential pass instead of a
            # seek+read pair per record.
            pending: Dict[pathlib.Path,
                          List[Tuple[str, _Location]]] = {}
            queued: set = set()
            for key in keys:
                if key in found or key in queued:
                    continue
                location = index.get(key)
                if location is None:
                    self.stats.misses += 1
                    continue
                payload = self._cache_get(key)
                if payload is not None:
                    self.stats.hits += 1
                    self.stats.cached_hits += 1
                    found[key] = payload
                    continue
                pending.setdefault(location.path, []).append(
                    (key, location))
                queued.add(key)
            # Scan resistance: a batch larger than the LRU would evict
            # itself entry by entry while flushing every hot key, so
            # such sweeps bypass cache admission entirely.
            caching = len(keys) <= self.cache_capacity
            stats = self.stats
            for path, wanted in pending.items():
                data = self._bulk_segment_bytes(path, len(wanted))
                if data is None:
                    for key, location in wanted:
                        payload = self._read_location(key, location)
                        if payload is not None:
                            found[key] = payload
                    continue
                for key, location in wanted:
                    buf = data[location.offset:
                               location.offset + location.length]
                    payload = self._decode_record(
                        key, location.length, buf)
                    if payload is None:
                        payload = self._retry_location(key)
                    else:
                        stats.hits += 1
                        if caching:
                            self._cache_put(key, payload)
                    if payload is not None:
                        found[key] = payload
        return found

    def _bulk_segment_bytes(self, path: pathlib.Path,
                            wanted: int) -> Optional[bytes]:
        """One segment's full contents, when a dense batch earns it.

        ``None`` falls the caller back to per-record reads — the right
        call for sparse batches, and the safe one whenever the stat or
        the read fails (the per-record path owns retry semantics).
        """
        if self._active is not None and self._active.path == path:
            self._active.handle.flush()
        try:
            size = os.stat(path).st_size
        except OSError:
            return None
        if wanted * BULK_READ_DENSITY_BYTES < size:
            return None
        try:
            handle = self._reader(path)
            handle.seek(0)
            return handle.read()
        except OSError:
            self._drop_reader(path)
            return None

    def _read_location(self, key: str, location: _Location,
                       buf: Optional[bytes] = None
                       ) -> Optional[Dict[str, Any]]:
        payload = self._cache_get(key)
        if payload is not None:
            self.stats.hits += 1
            self.stats.cached_hits += 1
            return payload
        if buf is not None:
            payload = self._decode_record(key, location.length, buf)
        else:
            payload = self._read_record(key, location)
        if payload is None:
            return self._retry_location(key)
        self.stats.hits += 1
        self._cache_put(key, payload)
        return payload

    def _retry_location(self, key: str) -> Optional[Dict[str, Any]]:
        """Second chance after a failed read, then an honest miss.

        Compaction (this process or another) may have rewritten the
        log under us; one refresh finds the record's new home.  A
        genuinely damaged record stays damaged and has already been
        counted corrupt by the first decode.
        """
        self._index.pop(key, None)
        self._refresh()
        location = self._index.get(key)
        payload = None
        if location is not None:
            payload = self._read_record(key, location)
            if payload is None:
                self._index.pop(key, None)
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._cache_put(key, payload)
        return payload

    def _read_record(self, key: str, location: _Location
                     ) -> Optional[Dict[str, Any]]:
        """Decode one record from disk; damage counts as corrupt."""
        if self._active is not None and \
                self._active.path == location.path:
            self._active.handle.flush()
        try:
            handle = self._reader(location.path)
            handle.seek(location.offset)
            buf = handle.read(location.length)
        except OSError:
            self._drop_reader(location.path)
            return None     # vanished (compacted/cleared): plain miss
        return self._decode_record(key, location.length, buf)

    def _decode_record(self, key: str, length: int, buf: bytes
                       ) -> Optional[Dict[str, Any]]:
        """Validate and decode one record's bytes; damage is corrupt."""
        if len(buf) != length:
            self.stats.corrupt += 1
            return None
        magic, crc, flags, rec_schema, key_len, payload_len = \
            RECORD_HEADER.unpack_from(buf, 0)
        if (magic != RECORD_MAGIC or
                zlib.crc32(buf[8:]) & 0xFFFFFFFF != crc or
                rec_schema != _schema_version() or
                flags & FLAG_TOMBSTONE or
                RECORD_HEADER.size + key_len + payload_len != length):
            self.stats.corrupt += 1
            return None
        start = RECORD_HEADER.size
        if buf[start:start + key_len].decode("ascii",
                                             "replace") != key:
            self.stats.corrupt += 1
            return None
        try:
            return payload_from_bytes(buf[start + key_len:])
        except ValueError:
            self.stats.corrupt += 1
            return None

    # -- writes --------------------------------------------------------------
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (append + flush)."""
        span = self._span("store.put", key=key[:12])
        if span is None:
            self._put_many([(key, payload)])
            return
        with span:
            self._put_many([(key, payload)])

    def put_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]
                 ) -> None:
        """Persist a batch of ``(key, payload)`` pairs.

        All records are appended under one lock acquisition and one
        flush — the grouped-solve commit path of
        :class:`~repro.runtime.executor.Executor`.
        """
        items = list(items)
        span = self._span("store.put_many", keys=len(items))
        if span is None:
            self._put_many(items)
            return
        with span:
            self._put_many(items)

    def _put_many(self, items: List[Tuple[str, Dict[str, Any]]]) -> None:
        from .spec import CACHE_SCHEMA_VERSION
        for key, _ in items:
            _check_key(key)
        with self._lock:
            self._ensure_open()
            # Same scan resistance as ``_get_many``: a batch that
            # cannot fit the LRU would only churn it.
            caching = len(items) <= self.cache_capacity
            stats = self.stats
            for key, payload in items:
                record = encode_record(key, payload_to_bytes(payload),
                                       CACHE_SCHEMA_VERSION)
                offset = self._append(record)
                self._index_record(self._active.path, offset,
                                   len(record), key, 0)
                if caching:
                    self._cache_put(key, payload)
                stats.writes += 1
                stats.appended_bytes += len(record)
                if self._active.size >= self.segment_max_bytes:
                    self._seal_active()
            if self._active is not None:
                self._active.handle.flush()

    def _append(self, record: bytes) -> int:
        active = self._activate_segment()
        offset = active.size
        active.handle.write(record)
        active.size += len(record)
        # Our own appends never need re-scanning: advance the scan
        # cursor so a later refresh (or a corrupt-read retry) does not
        # re-index — and re-count — records this process wrote.
        if active.scan is not None:
            active.scan.offset = active.size
        return offset

    def _activate_segment(self) -> _ActiveSegment:
        if self._active is not None:
            return self._active
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        seq = 1 + max((s for s, _, _, _ in self._segment_files()),
                      default=0)
        handle_fd, tmp_name = tempfile.mkstemp(
            dir=self.segment_dir, prefix="new-", suffix=".tmp")
        token = pathlib.Path(tmp_name).name[len("new-"):-len(".tmp")]
        path = self.segment_dir / f"seg-{seq:08d}-{token.lower()}.open"
        os.replace(tmp_name, path)
        handle = os.fdopen(handle_fd, "wb")
        handle.write(SEGMENT_MAGIC)
        handle.flush()
        state = _ScanState(path=path, offset=len(SEGMENT_MAGIC),
                           sealed=False)
        self._scans[path.stem] = state
        self._active = _ActiveSegment(path=path, handle=handle, seq=seq,
                                      size=len(SEGMENT_MAGIC),
                                      scan=state)
        return self._active

    def _seal_active(self) -> None:
        active = self._active
        if active is None:
            return
        active.handle.flush()
        active.handle.close()
        sealed = active.path.with_suffix(".seg")
        os.replace(active.path, sealed)
        state = self._scans.get(active.path.stem)
        if state is not None:
            state.path = sealed
            state.sealed = True
            state.offset = active.size
        for key, location in self._index.items():
            if location.path == active.path:
                location.path = sealed
        self._active = None
        self.stats.sealed_segments += 1
        if (self.auto_compact and self._dead_bytes >
                AUTO_COMPACT_DEAD_FRACTION *
                max(1, self._dead_bytes + self._live_bytes)):
            self._compact()

    def close(self) -> None:
        """Seal the active segment; the store stays usable."""
        with self._lock:
            self._seal_active()

    def __enter__(self) -> "ResultStore":
        # Eager open: entering the context is an explicit lifecycle
        # statement, so recovery happens here, not at the
        # first read (``with ResultStore(root) as s: s.stats`` works).
        with self._lock:
            self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- deletion ------------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry (tombstone record); True if it was present."""
        from .spec import CACHE_SCHEMA_VERSION
        _check_key(key)
        with self._lock:
            self._ensure_open()
            if key not in self._index:
                self._refresh()
            if key not in self._index:
                return False
            record = encode_record(key, b"", CACHE_SCHEMA_VERSION,
                                   flags=FLAG_TOMBSTONE)
            offset = self._append(record)
            self._active.handle.flush()
            self._index_record(self._active.path, offset, len(record),
                               key, FLAG_TOMBSTONE)
            self.stats.tombstones += 1
            return True

    def clear(self) -> int:
        """Remove every entry under the root; returns the count.

        Drops all segment files (each unlink is atomic — a concurrent
        reader sees a full log or a missing file, never a partial
        one), any legacy per-entry JSON files, and the emptied legacy
        fan-out bucket directories.
        """
        with self._lock:
            self._ensure_open()
            self._refresh()
            removed = len(self._index)
            if self._active is not None:
                self._active.handle.close()
                self._active = None
            self._close_readers()
            for path in self.segment_paths():
                try:
                    os.unlink(path)
                except OSError:
                    pass
            try:
                os.rmdir(self.segment_dir)
            except OSError:
                pass
            removed += _clear_legacy_entries(self.root)
            self._index.clear()
            self._cache.clear()
            self._scans.clear()
            self._live_bytes = 0
            self._dead_bytes = 0
            return removed

    # -- compaction ----------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Rewrite live records into fresh segments; drop the rest.

        Safe against concurrent *readers* (they re-resolve vanished
        records through a refresh) and against a crash at any point:
        compacted segments land via write-temp-then-``os.replace``
        before any old segment is unlinked, so a killed compaction
        leaves duplicates (harmless — identical values), never losses.
        Concurrent *writers* on the same root must be quiesced first
        (docs/STORE.md "Compaction").
        """
        span = self._span("store.compact")
        if span is None:
            return self._locked_compact()
        with span as active:
            summary = self._locked_compact()
            active.annotate(**summary)
            return summary

    def _locked_compact(self) -> Dict[str, int]:
        with self._lock:
            self._ensure_open()
            self._refresh()
            return self._compact()

    def _compact(self) -> Dict[str, int]:
        # Seal first: the active segment's path changes when it seals,
        # and the stale ``.open`` path would dodge the unlink below.
        self._seal_if_open()
        old_paths = self.segment_paths()
        before = len(old_paths)
        live = sorted(self._index.items())
        next_seq = 1 + max((s for s, _, _, _ in self._segment_files()),
                           default=0)
        new_index: Dict[str, _Location] = {}
        new_paths: List[pathlib.Path] = []
        chunk: List[Tuple[str, bytes]] = []
        chunk_bytes = len(SEGMENT_MAGIC)
        for key, location in live:
            raw = self._raw_record(location)
            if raw is None:
                continue
            chunk.append((key, raw))
            chunk_bytes += len(raw)
            if chunk_bytes >= self.segment_max_bytes:
                new_paths.append(self._write_sealed(next_seq, chunk,
                                                    new_index))
                next_seq += 1
                chunk, chunk_bytes = [], len(SEGMENT_MAGIC)
        if chunk:
            new_paths.append(self._write_sealed(next_seq, chunk,
                                                new_index))
        self._close_readers()
        for path in old_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._index = new_index
        self._scans = {path.stem: _ScanState(path=path,
                                             offset=path.stat().st_size,
                                             sealed=True)
                       for path in new_paths}
        self._live_bytes = sum(loc.length
                               for loc in new_index.values())
        self._dead_bytes = 0
        self.stats.compactions += 1
        return {"live_entries": len(new_index),
                "segments_before": before,
                "segments_after": len(new_paths)}

    def _seal_if_open(self) -> None:
        if self._active is not None:
            # Compaction absorbs the active segment; seal it first so
            # every record source is an immutable file.  Bypass
            # _seal_active's auto-compact trigger (we are compacting).
            active = self._active
            active.handle.flush()
            active.handle.close()
            sealed = active.path.with_suffix(".seg")
            os.replace(active.path, sealed)
            for location in self._index.values():
                if location.path == active.path:
                    location.path = sealed
            state = self._scans.get(active.path.stem)
            if state is not None:
                state.path = sealed
                state.sealed = True
            self._active = None
            self.stats.sealed_segments += 1

    def _raw_record(self, location: _Location) -> Optional[bytes]:
        try:
            handle = self._reader(location.path)
            handle.seek(location.offset)
            raw = handle.read(location.length)
        except OSError:
            self._drop_reader(location.path)
            return None
        if len(raw) != location.length or raw[:4] != RECORD_MAGIC:
            return None
        crc = struct.unpack_from("<I", raw, 4)[0]
        if zlib.crc32(raw[8:]) & 0xFFFFFFFF != crc:
            return None
        return raw

    def _write_sealed(self, seq: int, chunk: List[Tuple[str, bytes]],
                      new_index: Dict[str, _Location]) -> pathlib.Path:
        """One compacted segment: temp file, fsync, atomic replace."""
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        handle_fd, tmp_name = tempfile.mkstemp(
            dir=self.segment_dir, prefix=".compact-", suffix=".tmp")
        token = pathlib.Path(tmp_name).name[
            len(".compact-"):-len(".tmp")].lower()
        path = self.segment_dir / f"seg-{seq:08d}-{token}.seg"
        offsets: List[Tuple[str, int, int]] = []
        try:
            with os.fdopen(handle_fd, "wb") as handle:
                handle.write(SEGMENT_MAGIC)
                position = len(SEGMENT_MAGIC)
                for key, raw in chunk:
                    handle.write(raw)
                    offsets.append((key, position, len(raw)))
                    position += len(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:   # camp-lint: disable=ERR01 -- cleanup-and-reraise: the temp file must go even on KeyboardInterrupt
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        for key, offset, length in offsets:
            new_index[key] = _Location(path=path, offset=offset,
                                       length=length)
        return path

    # -- chaos seams ---------------------------------------------------------
    # Protected primitives for repro.faults.ChaosStore: they let the
    # injector damage freshly-appended records at the byte level while
    # keeping this store's own bookkeeping coherent (so the damage is
    # discovered by the *read* path, exactly as external damage would
    # be).

    def _record_location(self, key: str) -> Optional[_Location]:
        """Where ``key``'s live record sits (None if absent)."""
        with self._lock:
            self._ensure_open()
            return self._index.get(key)

    def _drop_cached(self, key: str) -> None:
        """Evict one key from the LRU so the next read hits disk."""
        with self._lock:
            self._cache.pop(key, None)

    def _drop_index(self, key: str) -> None:
        """Forget one key without a tombstone (vanished on disk)."""
        with self._lock:
            location = self._index.pop(key, None)
            if location is not None:
                self._live_bytes -= location.length

    def _truncate_at(self, path: pathlib.Path, offset: int) -> None:
        """Cut a segment file at ``offset``, fixing up the writer."""
        with self._lock:
            os.truncate(path, offset)
            if self._active is not None and self._active.path == path:
                self._active.handle.seek(offset)
                self._active.size = offset
            state = self._scans.get(path.stem)
            if state is not None and state.offset > offset:
                state.offset = offset

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            self._ensure_open()
            self._refresh()
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        """Whether ``get(key)`` would hit.

        Membership means a schema-valid, CRC-checked record (the index
        only ever holds those) — unlike the legacy layout, a stale or
        damaged entry is *not* "in" the store.
        """
        _check_key(key)
        with self._lock:
            self._ensure_open()
            if key not in self._index:
                self._refresh()
            return key in self._index

    def keys(self) -> Iterator[str]:
        """Live keys, sorted (a snapshot; safe to mutate while
        iterating)."""
        with self._lock:
            self._ensure_open()
            self._refresh()
            return iter(sorted(self._index))

    def disk_bytes(self) -> int:
        """Total size of the segment files on disk."""
        total = 0
        for path in self.segment_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def __repr__(self) -> str:
        with self._lock:
            self._ensure_open()
            return (f"ResultStore(root={str(self.root)!r}, "
                    f"entries={len(self._index)}, "
                    f"segments={len(self.segment_paths())})")


# ---------------------------------------------------------------------------
# The retired per-entry JSON layout: ignored, counted, and cleared.
# ---------------------------------------------------------------------------

def _legacy_buckets(root: pathlib.Path) -> List[pathlib.Path]:
    if not root.is_dir():
        return []
    buckets = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and len(child.name) == 2 and \
                _HEX_KEY.match(child.name):
            buckets.append(child)
    return buckets


def _remove_bucket_if_empty(bucket: pathlib.Path) -> None:
    # Stray atomic-write temp files do not hold a bucket open.
    for stray in bucket.glob(".tmp-*"):
        try:
            stray.unlink()
        except OSError:
            pass
    try:
        bucket.rmdir()
    except OSError:
        pass


def legacy_entry_count(root: pathlib.Path) -> int:
    """Entry files of the retired JSON layout under ``root``."""
    return sum(len(list(bucket.glob("*.json")))
               for bucket in _legacy_buckets(pathlib.Path(root)))


def _clear_legacy_entries(root: pathlib.Path) -> int:
    removed = 0
    for bucket in _legacy_buckets(root):
        for path in sorted(bucket.glob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        _remove_bucket_if_empty(bucket)
    return removed
