"""On-disk, content-addressed store of LLM scores with dataset-fingerprint
validation.

Layout (documented byte-exactly so other tooling can read caches):

    <root>/manifest.json                 {"format_version": 1,
                                          "dataset_fingerprint": "<64 hex>",
                                          "created_at": "<ISO-8601 UTC>"}
    <root>/<shard>/<key>.json            one JSON entry per key

`shard` is the first two hex characters of the key's text digest (256
subdirectories, uniformly distributed). `key` is the dot-joined hex form of
the four key parts: hex-encoded provider id, hex-encoded model name, prompt
template digest, text digest. Entry files carry explicit field names plus a
format-version integer:

    {"format_version": 1, "key": "...", "scores": [...], "parse_ok": true,
     "created_at": "...", "dataset_fingerprint": "..."}

Writes are write-temp-then-rename, so a crash mid-put leaves the prior
entry (or miss) intact. The store is append-only: no eviction, no TTL.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .core import atomic_write_text
from .errors import CacheWriteError, CorruptCacheError, StaleCacheError

logger = logging.getLogger(__name__)

ENTRY_FORMAT_VERSION = 1
MANIFEST_FORMAT_VERSION = 1
_MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached score: provider, model, prompt template, text."""

    provider_id: str
    model_name: str
    prompt_template_digest: str
    text_digest: str

    def __post_init__(self):
        for part in (self.provider_id, self.model_name,
                     self.prompt_template_digest, self.text_digest):
            if not part:
                raise ValueError("cache key parts must be non-empty")

    @property
    def key_string(self) -> str:
        """Dot-joined hex form of the four parts."""
        return ".".join((
            self.provider_id.encode("utf-8").hex(),
            self.model_name.encode("utf-8").hex(),
            self.prompt_template_digest,
            self.text_digest,
        ))


@dataclass(frozen=True)
class CacheEntry:
    key: CacheKey
    scores: tuple[float, ...]
    parse_ok: bool
    created_at: datetime
    dataset_fingerprint: str

    @staticmethod
    def fresh(key: CacheKey, scores, parse_ok: bool,
              dataset_fingerprint: str) -> "CacheEntry":
        return CacheEntry(key, tuple(float(s) for s in scores), parse_ok,
                          datetime.now(timezone.utc), dataset_fingerprint)


def _atomic_write_text(path: Path, text: str) -> None:
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise CacheWriteError(f"cannot write {path}: {exc}") from exc


class ScoreCache:
    """Handle to one cache directory, bound to one dataset fingerprint.

    Concurrent reads are safe; concurrent writers to distinct keys are safe;
    two writers to the same key race benignly (last rename wins). The
    manifest is written only at open.
    """

    def __init__(self, root: Path, fingerprint: str):
        self.root = root
        self.fingerprint = fingerprint

    def _entry_path(self, key: CacheKey) -> Path:
        return self.root / key.text_digest[:2] / (key.key_string + ".json")

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Return the entry iff present and fingerprint-valid, else None.

        Corrupt entry files are treated as misses with a logged warning, so
        the cache heals itself on the next put.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("unreadable cache entry %s: %s", path, exc)
            return None
        try:
            doc = json.loads(raw)
            entry = CacheEntry(
                key=key,
                scores=tuple(float(s) for s in doc["scores"]),
                parse_ok=bool(doc["parse_ok"]),
                created_at=datetime.fromisoformat(doc["created_at"]),
                dataset_fingerprint=doc["dataset_fingerprint"],
            )
            if doc["key"] != key.key_string:
                raise ValueError("key mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("corrupt cache entry %s: %s", path, exc)
            return None
        if entry.dataset_fingerprint != self.fingerprint:
            return None
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Durable write; overwrites an existing entry for the same key."""
        if any(not math.isfinite(s) or not 0.0 <= s <= 1.0
               for s in entry.scores):
            raise ValueError("cache entry scores must be finite and in [0, 1]")
        path = self._entry_path(entry.key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheWriteError(f"cannot create shard dir {path.parent}: {exc}") from exc
        doc = {
            "format_version": ENTRY_FORMAT_VERSION,
            "key": entry.key.key_string,
            "scores": list(entry.scores),
            "parse_ok": entry.parse_ok,
            "created_at": entry.created_at.isoformat(),
            "dataset_fingerprint": entry.dataset_fingerprint,
        }
        _atomic_write_text(path, json.dumps(doc, sort_keys=True))


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

    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            stored = manifest["dataset_fingerprint"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorruptCacheError(
                f"corrupt cache manifest {manifest_path}: {exc}"
            ) from exc
        if stored != expected_dataset_fingerprint:
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
        else:
            return ScoreCache(root, expected_dataset_fingerprint)

    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "dataset_fingerprint": expected_dataset_fingerprint,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True))
    return ScoreCache(root, expected_dataset_fingerprint)


def cache_open_adopt(path: str | Path) -> ScoreCache:
    """Open an existing cache, adopting whatever fingerprint its manifest
    holds (used at predict time, when no dataset is in hand)."""
    manifest_path = Path(path) / _MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        stored = manifest["dataset_fingerprint"]
    except FileNotFoundError:
        raise CorruptCacheError(f"no cache manifest at {manifest_path}") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CorruptCacheError(
            f"corrupt cache manifest {manifest_path}: {exc}"
        ) from exc
    return cache_open(path, stored, policy="strict")
