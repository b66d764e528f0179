"""Disk score cache: keys, round trips, sharding, staleness policies."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.cache import CacheEntry, CacheKey, _MANIFEST_NAME

FP_A = "a" * 64
FP_B = "b" * 64


def _key(text_digest="1234" + "0" * 60, provider="mock", model="m1",
         template="e" * 64):
    return CacheKey(provider, model, template, text_digest)


def _entry(cache, key=None, scores=(0.25, 0.75), parse_ok=True):
    return CacheEntry.fresh(key or _key(), scores, parse_ok, cache.fingerprint)


class TestCacheKey:
    def test_key_string_layout(self):
        key = CacheKey("mock", "m1", "t" * 64, "d" * 64)
        parts = key.key_string.split(".")
        assert parts == [b"mock".hex(), b"m1".hex(), "t" * 64, "d" * 64]

    def test_key_string_distinguishes_parts(self):
        # hex-encoding the free-form parts: no joiner collision between
        # ("ab", "c") and ("a", "bc")
        k1 = CacheKey("ab", "c", "t" * 64, "d" * 64)
        k2 = CacheKey("a", "bc", "t" * 64, "d" * 64)
        assert k1.key_string != k2.key_string

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            CacheKey("", "m", "t", "d")
        with pytest.raises(ValueError):
            CacheKey("p", "m", "t", "")


class TestPutGet:
    def test_round_trip_exact_floats(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        scores = (0.1, 0.2, 0.7)  # not exactly representable; must survive
        entry = _entry(cache, scores=scores, parse_ok=False)
        cache.put(entry)
        got = cache.get(entry.key)
        assert got is not None
        assert got.scores == scores
        assert got.parse_ok is False
        assert got.dataset_fingerprint == FP_A

    def test_miss_on_absent_key(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        assert cache.get(_key()) is None

    def test_shard_is_text_digest_prefix(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        key = _key(text_digest="ab" + "0" * 62)
        cache.put(_entry(cache, key))
        shard = tmp_path / "c" / "ab"
        assert shard.is_dir()
        assert (shard / (key.key_string + ".json")).is_file()

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        for i in range(10):
            key = _key(text_digest=f"{i:02d}" + "0" * 62)
            cache.put(_entry(cache, key))
        leftovers = [p for p in (tmp_path / "c").rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache.put(_entry(cache, key))
        path = cache._entry_path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        # and a fresh put heals it
        cache.put(_entry(cache, key, scores=(0.5, 0.5)))
        assert cache.get(key).scores == (0.5, 0.5)

    def test_entry_missing_field_is_miss(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache.put(_entry(cache, key))
        path = cache._entry_path(key)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["scores"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cache.get(key) is None

    def test_entry_fingerprint_mismatch_is_miss(self, tmp_path):
        # simulate a stale entry surviving a warn-policy reopen
        cache_a = sf.cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache_a.put(_entry(cache_a, key))
        cache_b = sf.cache_open(tmp_path / "c", FP_B, policy="warn")
        assert cache_b.get(key) is None
        # refetched entry under the new fingerprint hits again
        cache_b.put(_entry(cache_b, key, scores=(0.0, 1.0)))
        assert cache_b.get(key).scores == (0.0, 1.0)

    def test_put_rejects_out_of_range_scores(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        with pytest.raises(ValueError):
            cache.put(_entry(cache, scores=(1.5, 0.0)))
        with pytest.raises(ValueError):
            cache.put(_entry(cache, scores=(float("nan"), 0.0)))

    def test_overwrite_same_key(self, tmp_path):
        cache = sf.cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache.put(_entry(cache, key, scores=(0.0, 1.0)))
        cache.put(_entry(cache, key, scores=(1.0, 0.0)))
        assert cache.get(key).scores == (1.0, 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=6),
           st.booleans())
    def test_round_trip_property(self, tmp_path_factory, scores, parse_ok):
        root = tmp_path_factory.mktemp("cc")
        cache = sf.cache_open(root, FP_A)
        entry = _entry(cache, scores=tuple(scores), parse_ok=parse_ok)
        cache.put(entry)
        got = cache.get(entry.key)
        assert got.scores == tuple(scores)
        assert got.parse_ok is parse_ok


class TestCacheOpen:
    def test_fresh_directory_adopts_fingerprint(self, tmp_path):
        cache = sf.cache_open(tmp_path / "new", FP_A)
        manifest = json.loads(
            (tmp_path / "new" / _MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["dataset_fingerprint"] == FP_A
        assert cache.fingerprint == FP_A

    def test_reopen_same_fingerprint(self, tmp_path):
        sf.cache_open(tmp_path / "c", FP_A)
        cache = sf.cache_open(tmp_path / "c", FP_A)
        assert cache.fingerprint == FP_A

    def test_strict_mismatch_raises(self, tmp_path):
        sf.cache_open(tmp_path / "c", FP_A)
        with pytest.raises(sf.StaleCacheError, match=FP_A[:12]):
            sf.cache_open(tmp_path / "c", FP_B, policy="strict")

    def test_warn_mismatch_rewrites_manifest(self, tmp_path):
        sf.cache_open(tmp_path / "c", FP_A)
        cache = sf.cache_open(tmp_path / "c", FP_B, policy="warn")
        assert cache.fingerprint == FP_B
        manifest = json.loads(
            (tmp_path / "c" / _MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["dataset_fingerprint"] == FP_B

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / _MANIFEST_NAME).write_text("???", encoding="utf-8")
        with pytest.raises(sf.CorruptCacheError):
            sf.cache_open(root, FP_A)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            sf.cache_open(tmp_path / "c", FP_A, policy="lenient")


class TestCacheOpenAdopt:
    def test_adopts_stored_fingerprint(self, tmp_path):
        sf.cache_open(tmp_path / "c", FP_A)
        cache = sf.cache_open_adopt(tmp_path / "c")
        assert cache.fingerprint == FP_A

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(sf.CorruptCacheError, match="manifest"):
            sf.cache_open_adopt(tmp_path / "nothing-here")
