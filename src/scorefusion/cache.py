"""On-disk, content-addressed store of LLM scores with dataset-fingerprint
validation.

Layout, format 2 (documented byte-exactly so other tooling can read caches):

    <root>/manifest.json                 {"created_at": "<ISO-8601 UTC>",
                                          "dataset_fingerprint": "<64 hex>",
                                          "format_version": 2}
    <root>/log-<writer id>.jsonl         append-only segments of entry lines

`key` is the dot-joined form of the four key parts, built by `cache_key`:
hex-encoded provider id, hex-encoded model name, prompt template digest,
text digest. Each line of a segment is one entry, key first:

    <key> TAB <entry JSON> TAB <crc> LF

The entry JSON has sorted keys, explicit field names and an entry-format
integer, and holds no TAB or LF:

    {"created_at": "...", "dataset_fingerprint": "...", "format_version": 1,
     "key": "...", "parse_ok": true, "scores": [...]}

`crc` is the CRC-32 (zlib) of every byte before the last TAB, as 8
lowercase hex digits. The writer id is the writing process's pid plus a
random suffix: each handle that writes appends to a segment of its own,
created at its first put, so lines of two writers never interleave and a
handle that only reads creates no file.

Opening a handle reads every segment, in sorted name order, and indexes
each line by its key without parsing the entry; the last valid line for a
key wins. A line whose CRC fails and a torn last line (no LF) are skipped
with one logged warning per segment; a later put of the key heals it. On an
index miss the handle first indexes the complete lines other writers have
appended since it last looked, so a score another process has already paid
for is not fetched again. `get_many` looks up many keys with at most one
such catch-up.

Each entry is parsed at most once per handle: its first read replaces the
raw entry JSON in the index slot with what the read found, its scores (a
float64 array) or a miss, and a put stores its scores there directly. A
newer line for the key, from a catch-up or a put, replaces the slot, so a
stale parse is never served. The index costs about 0.6 KB per entry until
the entry is read and about 0.3 KB after (measured with tracemalloc at 10^4
entries of 4 scores, keys and dict included).

Format 1 (read only): `<root>/<shard>/<key>.json`, one entry JSON per file,
where `shard` is the first two hex characters of the text digest. A
directory that holds shard directories when it is opened serves those
entries on a miss in the segments; they are never rewritten or migrated.
The manifest of a format-1 cache is read as it is.

A put is one write(2) of the whole line to a file opened O_APPEND, with no
user-space buffer: the line survives a killed process, but nothing is
fsynced. The store is append-only: no eviction, no TTL, no compaction.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import weakref
import zlib
from array import array
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import atomic_write_text
from .errors import CacheWriteError, CorruptCacheError, StaleCacheError

logger = logging.getLogger(__name__)

ENTRY_FORMAT_VERSION = 1
MANIFEST_FORMAT_VERSION = 2
_READABLE_FORMATS = (1, 2)
_MANIFEST_NAME = "manifest.json"
_SEGMENT_PREFIX, _SEGMENT_SUFFIX = "log-", ".jsonl"
# An index slot's value once its entry has been read and is not a hit.
_MISS: Any = object()


def cache_key(provider_id: str, model_name: str, template_digest: str,
              text_digest: str) -> str:
    """The documented key string: the four parts dot-joined, provider id and
    model name hex-encoded so no part can run into the next."""
    return cache_key_prefix(provider_id, model_name,
                            template_digest) + text_digest


def cache_key_prefix(provider_id: str, model_name: str,
                     template_digest: str) -> str:
    """The key string up to its text digest: a text's key is this prefix
    followed by the text digest, so a scoring pass builds it once per
    provider."""
    return ".".join((provider_id.encode("utf-8").hex(),
                     model_name.encode("utf-8").hex(), template_digest, ""))


class ScoreCache:
    """Handle to one cache directory, bound to one dataset fingerprint.

    Safe to share between threads: puts and catch-up reads run under a
    per-handle lock. Safe to open in many processes at once: each writing
    handle appends to its own segment. Two writers of one key race
    benignly; each handle serves the line it indexed last. The manifest is
    written only at open.
    """

    def __init__(self, root: Path, fingerprint: str):
        self.root = root
        self.fingerprint = fingerprint
        self._lock = threading.Lock()
        # key string -> entry JSON; after a read, its scores or _MISS
        self._index: dict[bytes, Any] = {}
        self._indexed_bytes: dict[str, int] = {}  # segment name -> offset
        self._warned: set[str] = set()  # segments already warned about
        self._segment: Optional[str] = None  # this handle's, once it puts
        self._fd: Optional[int] = None
        self._close_fd: Optional[weakref.finalize] = None
        self._has_format1 = any(p.is_dir() for p in root.glob("??"))
        self._catch_up()

    def _catch_up(self) -> None:
        """Index the complete lines appended to every segment since this
        handle last read it: one listing, one stat per segment. Runs at
        open and, under the lock, on an index miss."""
        try:
            with os.scandir(self.root) as listing:
                segments = sorted((e.name, e) for e in listing
                                  if e.name.startswith(_SEGMENT_PREFIX)
                                  and e.name.endswith(_SEGMENT_SUFFIX))
        except OSError as exc:
            logger.warning("cannot list cache dir %s: %s", self.root, exc)
            return
        for name, entry in segments:
            try:
                if entry.stat().st_size > self._indexed_bytes.get(name, 0):
                    self._read_segment(name)
            except OSError as exc:
                logger.warning("unreadable cache segment %s: %s",
                               entry.path, exc)

    def _read_segment(self, name: str) -> None:
        """Index each new LF-terminated line whose CRC holds, last line
        winning. Bytes after the last LF are left for a later look, so a
        line another writer is still appending is never consumed
        half-written."""
        path = self.root / name
        done = self._indexed_bytes.get(name, 0)
        bad, torn = 0, False
        with open(path, "rb") as fh:
            fh.seek(done)
            for line in fh:
                if not line.endswith(b"\n"):
                    torn = True
                    break
                done += len(line)
                head, _, crc = line.rpartition(b"\t")
                key, tab, entry = head.partition(b"\t")
                if tab and crc == b"%08x\n" % zlib.crc32(head):
                    self._index[key] = entry
                else:
                    bad += 1
        self._indexed_bytes[name] = done
        if (bad or torn) and name not in self._warned:
            self._warned.add(name)
            logger.warning(
                "cache segment %s: skipped %d line(s) with a bad CRC%s; a "
                "later put of their keys heals them", path, bad,
                " and a torn last line" if torn else "")

    def get(self, key: str) -> Optional[tuple[float, ...]]:
        """The scores stored under `key`, or None.

        An index miss first catches up on other writers' segments, then
        falls back to a format-1 entry file. An entry fetched for another
        dataset fingerprint, or holding a fallback (`parse_ok` false), is a
        miss. So is a corrupt one, with a logged warning, so the cache heals
        itself on the next put: bad JSON, a missing field, another key, an
        unparseable `created_at`, or a score that is not a number in [0, 1].
        """
        [(_, hit)] = self._lookup((key,))
        return None if hit is None else tuple(hit)

    def get_many(self, keys: Iterable[str],
                 k: int) -> tuple[np.ndarray, np.ndarray]:
        """`get` for every key at once: the (n, k) float64 scores, row i for
        the i-th key and zero where not found, and the (n,) bool array of the
        rows found. `keys` is read once, so a generator holds no key list.
        At most one catch-up runs, at the first key that is not indexed. An
        entry without k scores is corrupt: not found, with a warning."""
        rows, flags = [], []
        for key, hit in self._lookup(keys):
            if hit is not None and len(hit) != k:
                logger.warning("corrupt cache entry %s: %d scores, expected %d",
                               key, len(hit), k)
                hit = None
            flags.append(hit is not None)
            if hit is not None:
                rows.append(hit)
        found = np.array(flags, dtype=bool)
        scores = np.zeros((len(flags), k))
        if rows:
            scores[found] = np.frombuffer(b"".join(rows)).reshape(-1, k)
        return scores, found

    def _lookup(self, keys: Iterable[str]
                ) -> Iterator[tuple[str, Optional[array]]]:
        """Each key with its scores as a float64 array, or None for a miss.
        The first key that is not indexed makes the one catch-up."""
        index = self._index
        caught_up = False
        for key in keys:
            index_key = key.encode("utf-8")
            slot = index.get(index_key)
            if slot is None and not caught_up:
                with self._lock:
                    self._catch_up()
                caught_up = True
                slot = index.get(index_key)
            if slot is None:
                slot = self._read_format1(key) if self._has_format1 else _MISS
            elif isinstance(slot, bytes):
                raw, slot = slot, self._parse(key, slot, self.root)
                with self._lock:  # unless a catch-up or put replaced it
                    if index.get(index_key) is raw:
                        index[index_key] = slot
            yield key, None if slot is _MISS else slot

    def _read_format1(self, key: str):
        shard = key.rpartition(".")[2][:2]  # of the text digest
        path = self.root / shard / (key + ".json")
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return _MISS
        except OSError as exc:
            logger.warning("unreadable cache entry %s: %s", path, exc)
            return _MISS
        return self._parse(key, raw, path)

    def _parse(self, key: str, raw: bytes, source: Path):
        """What an entry reads as: its scores as a float64 array, or _MISS."""
        try:
            doc = json.loads(raw.decode("utf-8"))
            scores = array("d", map(float, doc["scores"]))
            parse_ok = bool(doc["parse_ok"])
            datetime.fromisoformat(doc["created_at"])
            fingerprint = doc["dataset_fingerprint"]
            if doc["key"] != key:
                raise ValueError("key mismatch")
            if not all(0.0 <= s <= 1.0 for s in scores):
                raise ValueError("a score is not a number in [0, 1]")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            logger.warning("corrupt cache entry %s in %s: %s", key, source,
                           exc)
            return _MISS
        if fingerprint != self.fingerprint or not parse_ok:
            return _MISS
        return scores

    def put(self, key: str, scores: Sequence[float]) -> None:
        """Append a parsed score for `key`, stamped with this handle's
        fingerprint; it overrides an earlier entry for the key. A failed
        append raises CacheWriteError and moves later puts to a fresh
        segment, so a torn line never swallows the next one."""
        scores = [float(s) for s in scores]
        if not all(0.0 <= s <= 1.0 for s in scores):
            raise ValueError("cache entry scores must be finite and in [0, 1]")
        doc = json.dumps({
            "format_version": ENTRY_FORMAT_VERSION,
            "key": key,
            "scores": scores,
            "parse_ok": True,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "dataset_fingerprint": self.fingerprint,
        }, sort_keys=True).encode("utf-8")
        index_key = key.encode("utf-8")
        head = index_key + b"\t" + doc
        line = b"%s\t%08x\n" % (head, zlib.crc32(head))
        with self._lock:
            try:
                if self._fd is None:
                    self._open_segment()
                written = os.write(self._fd, line)
                if written != len(line):
                    raise OSError(f"wrote {written} of {len(line)} bytes")
            except OSError as exc:
                self._abandon_segment()
                raise CacheWriteError(
                    f"cannot append to cache {self.root}: {exc}") from exc
            self._indexed_bytes[self._segment] += len(line)
            self._index[index_key] = array("d", scores)

    def _open_segment(self) -> None:
        name = (f"{_SEGMENT_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
                f"{_SEGMENT_SUFFIX}")
        self._fd = os.open(self.root / name,
                           os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                           0o644)
        self._close_fd = weakref.finalize(self, os.close, self._fd)
        self._segment = name
        self._indexed_bytes[name] = 0

    def _abandon_segment(self) -> None:
        if self._close_fd is not None:
            self._close_fd()
        self._fd = self._close_fd = None


def _read_manifest(manifest_path: Path) -> str:
    """The dataset fingerprint a manifest records. Raises FileNotFoundError
    when there is none and CorruptCacheError when it cannot be used."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        stored = manifest["dataset_fingerprint"]
        version = manifest["format_version"]
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CorruptCacheError(
            f"corrupt cache manifest {manifest_path}: {exc}"
        ) from exc
    if isinstance(version, bool) or version not in _READABLE_FORMATS:
        raise CorruptCacheError(
            f"cache manifest {manifest_path} has unknown format_version "
            f"{version!r}")
    return stored


def cache_open(path: str | Path, expected_dataset_fingerprint: str,
               policy: str = "strict") -> ScoreCache:
    """Open (creating if absent) a cache directory for one dataset.

    A fresh directory adopts the expected fingerprint. On a fingerprint
    mismatch: policy "strict" raises StaleCacheError; policy "warn" logs,
    rewrites the manifest, and lets every stale entry read as a miss until
    overwritten (entries are stamped with the fingerprint that fetched
    them).
    """
    if policy not in ("strict", "warn"):
        raise ValueError(f"unknown cache policy {policy!r}")
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheWriteError(f"cannot create cache dir {root}: {exc}") from exc

    try:
        stored = _read_manifest(manifest_path)
    except FileNotFoundError:
        stored = None
    if stored == expected_dataset_fingerprint:
        return ScoreCache(root, expected_dataset_fingerprint)
    if stored is not None:
        if policy == "strict":
            raise StaleCacheError(
                f"cache at {root} was built for dataset {stored[:12]}..., "
                f"expected {expected_dataset_fingerprint[:12]}...; "
                "delete the directory or open with policy='warn'"
            )
        logger.warning(
            "cache at %s is stale (fingerprint changed); entries will be "
            "refetched", root,
        )

    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "dataset_fingerprint": expected_dataset_fingerprint,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    try:
        atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True))
    except OSError as exc:
        raise CacheWriteError(f"cannot write {manifest_path}: {exc}") from exc
    return ScoreCache(root, expected_dataset_fingerprint)


def cache_open_adopt(path: str | Path) -> ScoreCache:
    """Open an existing cache, adopting whatever fingerprint its manifest
    holds (used at predict time, when no dataset is in hand)."""
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    try:
        stored = _read_manifest(manifest_path)
    except FileNotFoundError:
        raise CorruptCacheError(f"no cache manifest at {manifest_path}") from None
    return ScoreCache(root, stored)
