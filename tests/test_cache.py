"""Disk score cache: keys, round trips, segments, the format-1 reader,
staleness policies."""

from __future__ import annotations

import json
import logging
import os
import sys
import zlib
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.cache import (
    _MANIFEST_NAME,
    cache_key,
    cache_open,
    cache_open_adopt,
)
from scorefusion.core import text_digest as digest_of
from scorefusion.llm import prompt_template_digest

FP_A = "a" * 64
FP_B = "b" * 64
SCORES = (0.25, 0.75)


def _key(text_digest="1234" + "0" * 60, provider="mock", model="m1",
         template="e" * 64):
    return cache_key(provider, model, template, text_digest)


def _mock_key(schema, mode, text):
    """The key score_batch stores a default mock provider's score under."""
    return cache_key("mock", "mock", prompt_template_digest(schema, mode),
                     digest_of(text))


def _write_format1(root, key, text, fingerprint=FP_A):
    """One entry file of a format-1 cache (one JSON file per entry in a
    shard directory), written by hand; the manifest too if absent."""
    manifest = root / _MANIFEST_NAME
    if not manifest.exists():
        root.mkdir(parents=True, exist_ok=True)
        manifest.write_text(json.dumps({
            "created_at": "2026-01-01T00:00:00+00:00",
            "dataset_fingerprint": fingerprint, "format_version": 1},
            sort_keys=True), encoding="utf-8")
    path = root / key.rpartition(".")[2][:2] / (key + ".json")
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _format1_doc(key, scores=SCORES, parse_ok=True, fingerprint=FP_A):
    return {"created_at": "2026-01-01T00:00:00+00:00",
            "dataset_fingerprint": fingerprint, "format_version": 1,
            "key": key, "parse_ok": parse_ok, "scores": list(scores)}


def _segments(root):
    return sorted(root.glob("log-*.jsonl"))


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestCacheKey:
    def test_key_string_layout(self):
        parts = cache_key("mock", "m1", "t" * 64, "d" * 64).split(".")
        assert parts == [b"mock".hex(), b"m1".hex(), "t" * 64, "d" * 64]

    def test_key_string_distinguishes_parts(self):
        # hex-encoding the free-form parts: no joiner collision between
        # ("ab", "c") and ("a", "bc")
        assert cache_key("ab", "c", "t" * 64, "d" * 64) \
            != cache_key("a", "bc", "t" * 64, "d" * 64)

    def test_empty_part_rejected(self):
        # the digests are sha256 hex; the config refuses the other two empty
        with pytest.raises(sf.ConfigurationError, match="provider_id"):
            sf.ProviderConfig(provider_id="")
        with pytest.raises(sf.ConfigurationError, match="model_name"):
            sf.ProviderConfig(model_name="")


class TestPutGet:
    def test_round_trip_exact_floats(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        scores = (0.1, 0.2, 0.7)  # not exactly representable; must survive
        cache.put(_key(), scores)
        assert cache.get(_key()) == scores
        assert cache_open(tmp_path / "c", FP_A).get(_key()) == scores

    def test_miss_on_absent_key(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        assert cache.get(_key()) is None

    def test_shard_is_text_digest_prefix(self, tmp_path):
        # the format-1 reader finds an entry in the shard named by the
        # first two hex characters of its text digest
        key = _key(text_digest="ab" + "0" * 62)
        _write_format1(tmp_path / "c", key, json.dumps(_format1_doc(key)))
        cache = cache_open(tmp_path / "c", FP_A)
        shard = tmp_path / "c" / "ab"
        assert shard.is_dir()
        assert (shard / (key + ".json")).is_file()
        assert cache.get(key) == SCORES

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        for i in range(10):
            cache.put(_key(text_digest=f"{i:02d}" + "0" * 62), SCORES)
        leftovers = [p for p in (tmp_path / "c").rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        key = _key()
        _write_format1(tmp_path / "c", key, "{ not json")
        cache = cache_open(tmp_path / "c", FP_A)
        assert cache.get(key) is None
        # and a fresh put heals it
        cache.put(key, (0.5, 0.5))
        assert cache.get(key) == (0.5, 0.5)

    def test_entry_missing_field_is_miss(self, tmp_path):
        key = _key()
        doc = _format1_doc(key)
        del doc["scores"]
        _write_format1(tmp_path / "c", key, json.dumps(doc))
        cache = cache_open(tmp_path / "c", FP_A)
        assert cache.get(key) is None

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), float("inf")])
    def test_out_of_range_score_is_refetched(self, tmp_path, caplog, bad):
        schema = sf.LabelSchema(("a", "b"))
        mc = sf.TaskMode.MULTI_CLASS
        key = _mock_key(schema, mc, "t")
        _write_format1(tmp_path / "c", key,
                       json.dumps(_format1_doc(key, scores=(bad, 0.5))))
        provider = sf.MockProvider({"t": (0.3, 0.7)}, schema)
        with caplog.at_level(logging.WARNING, logger="scorefusion.cache"):
            out = sf.score_batch(["t"], schema, mc, sf.ProviderConfig(),
                                 cache=cache_open(tmp_path / "c", FP_A),
                                 provider=provider)
        assert len(caplog.records) == 1
        assert "corrupt cache entry" in caplog.records[0].getMessage()
        assert provider.calls == 1
        assert out.tolist() == [[0.3, 0.7]]
        assert cache_open(tmp_path / "c", FP_A).get(key) == (0.3, 0.7)

    def test_wrong_score_count_is_refetched(self, tmp_path, caplog):
        schema = sf.LabelSchema(("a", "b", "c"))
        mc = sf.TaskMode.MULTI_CLASS
        key = _mock_key(schema, mc, "t")
        _write_format1(tmp_path / "c", key, json.dumps(_format1_doc(key)))
        provider = sf.MockProvider({"t": (0.2, 0.3, 0.5)}, schema)
        with caplog.at_level(logging.WARNING):
            out = sf.score_batch(["t", "t"], schema, mc, sf.ProviderConfig(),
                                 cache=cache_open(tmp_path / "c", FP_A),
                                 provider=provider)
        assert len(caplog.records) == 1
        assert "2 scores, expected 3" in caplog.records[0].getMessage()
        assert provider.calls == 1
        assert out.tolist() == [[0.2, 0.3, 0.5]] * 2
        assert cache_open(tmp_path / "c", FP_A).get(key) == (0.2, 0.3, 0.5)

    def test_entry_fingerprint_mismatch_is_miss(self, tmp_path):
        # simulate a stale entry surviving a warn-policy reopen
        cache_a = cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache_a.put(key, SCORES)
        cache_b = cache_open(tmp_path / "c", FP_B, policy="warn")
        assert cache_b.get(key) is None
        # refetched entry under the new fingerprint hits again
        cache_b.put(key, (0.0, 1.0))
        assert cache_b.get(key) == (0.0, 1.0)

    def test_put_rejects_out_of_range_scores(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        with pytest.raises(ValueError):
            cache.put(_key(), (1.5, 0.0))
        with pytest.raises(ValueError):
            cache.put(_key(), (float("nan"), 0.0))

    def test_overwrite_same_key(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        key = _key()
        cache.put(key, (0.0, 1.0))
        cache.put(key, (1.0, 0.0))
        assert cache.get(key) == (1.0, 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=6))
    def test_round_trip_property(self, tmp_path_factory, scores):
        root = tmp_path_factory.mktemp("cc")
        cache = cache_open(root, FP_A)
        cache.put(_key(), scores)
        assert cache.get(_key()) == tuple(scores)
        assert cache_open(root, FP_A).get(_key()) == tuple(scores)


class TestSegments:
    def test_reopened_handle_sees_every_entry(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        keys = [_key(text_digest=f"{i:064x}") for i in range(20)]
        for i, key in enumerate(keys):
            cache.put(key, (i / 20, 1 - i / 20))
        cache.put(keys[3], (1.0, 0.0))  # last wins
        assert len(_segments(tmp_path / "c")) == 1
        for reopened in (cache_open(tmp_path / "c", FP_A),
                         cache_open_adopt(tmp_path / "c")):
            for i, key in enumerate(keys):
                want = (1.0, 0.0) if i == 3 else (i / 20, 1 - i / 20)
                assert reopened.get(key) == want

    def test_line_layout(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        cache.put(_key(), SCORES)
        [segment] = _segments(tmp_path / "c")
        assert segment.name.startswith(f"log-{os.getpid()}-")
        line = segment.read_bytes()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        head, crc = line[:-1].rsplit(b"\t", 1)
        key, doc = head.split(b"\t")
        assert key == _key().encode()
        assert crc == b"%08x" % zlib.crc32(head)
        doc = json.loads(doc)
        assert datetime.fromisoformat(doc.pop("created_at")).tzinfo
        assert doc == {
            "dataset_fingerprint": FP_A, "format_version": 1,
            "key": _key(), "parse_ok": True, "scores": [0.25, 0.75]}

    def test_crc_flipped_line_is_miss_until_put_again(self, tmp_path,
                                                      caplog):
        cache = cache_open(tmp_path / "c", FP_A)
        k1, k2 = _key(text_digest="1" * 64), _key(text_digest="2" * 64)
        cache.put(k1, (0.25, 0.75))
        cache.put(k2, SCORES)
        [segment] = _segments(tmp_path / "c")
        data = segment.read_bytes()
        assert data.count(b"0.25") == 2
        segment.write_bytes(data.replace(b"0.25", b"0.35", 1))
        with caplog.at_level(logging.WARNING, logger="scorefusion.cache"):
            reopened = cache_open(tmp_path / "c", FP_A)
        assert len(caplog.records) == 1
        assert "bad CRC" in caplog.records[0].getMessage()
        assert reopened.get(k1) is None
        assert reopened.get(k2) == (0.25, 0.75)
        reopened.put(k1, (0.5, 0.5))
        assert cache_open(tmp_path / "c", FP_A).get(k1) == (0.5, 0.5)

    def test_torn_last_line_skipped_with_warning(self, tmp_path, caplog):
        cache = cache_open(tmp_path / "c", FP_A)
        k1, k2 = _key(text_digest="1" * 64), _key(text_digest="2" * 64)
        cache.put(k1, SCORES)
        cache.put(k2, SCORES)
        [segment] = _segments(tmp_path / "c")
        data = segment.read_bytes()
        segment.write_bytes(data[:-20])  # the kill came mid-append
        with caplog.at_level(logging.WARNING, logger="scorefusion.cache"):
            reopened = cache_open(tmp_path / "c", FP_A)
            assert reopened.get(k2) is None  # a catch-up warns no more
        assert len(caplog.records) == 1
        assert "torn last line" in caplog.records[0].getMessage()
        assert reopened.get(k1) is not None
        reopened.put(k2, (1.0, 0.0))
        assert len(_segments(tmp_path / "c")) == 2
        again = cache_open(tmp_path / "c", FP_A)
        assert again.get(k1) == (0.25, 0.75)
        assert again.get(k2) == (1.0, 0.0)

    def test_failed_append_moves_to_a_fresh_segment(self, tmp_path,
                                                    monkeypatch):
        cache = cache_open(tmp_path / "c", FP_A)
        k1, k2, k3 = (_key(text_digest=c * 64) for c in "123")
        cache.put(k1, SCORES)
        real_write = os.write

        def torn_write(fd, data):
            real_write(fd, data[:30])  # half a line reaches the file
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(sf.CacheWriteError, match="No space"):
            cache.put(k2, SCORES)
        monkeypatch.setattr(os, "write", real_write)
        cache.put(k3, (0.5, 0.5))
        assert len(_segments(tmp_path / "c")) == 2
        reopened = cache_open(tmp_path / "c", FP_A)
        assert reopened.get(k1) == (0.25, 0.75)
        assert reopened.get(k2) is None
        assert reopened.get(k3) == (0.5, 0.5)

    def test_put_on_another_handle_hits_after_catch_up(self, tmp_path):
        a = cache_open(tmp_path / "c", FP_A)
        b = cache_open(tmp_path / "c", FP_A)
        k1, k2 = _key(text_digest="1" * 64), _key(text_digest="2" * 64)
        assert a.get(k1) is None
        b.put(k1, (0.0, 1.0))
        assert a.get(k1) == (0.0, 1.0)
        # a line another writer has only half written is left for later
        b.put(k2, SCORES)
        [segment] = _segments(tmp_path / "c")
        data = segment.read_bytes()
        cut = data.rfind(b"\n", 0, len(data) - 1) + 1 + 40
        segment.write_bytes(data[:cut])
        assert a.get(k2) is None
        segment.write_bytes(data)
        assert a.get(k2) == (0.25, 0.75)

    def test_reader_creates_no_file(self, tmp_path):
        cache = cache_open(tmp_path / "c", FP_A)
        cache.put(_key(), SCORES)
        before = _snapshot(tmp_path / "c")
        reader = cache_open(tmp_path / "c", FP_A)
        assert reader.get(_key()) is not None
        assert reader.get(_key(text_digest="9" * 64)) is None
        assert _snapshot(tmp_path / "c") == before

    def test_threaded_score_batch_writes_one_line_per_text(self, tmp_path):
        schema = sf.LabelSchema(("a", "b", "c"))
        texts = [f"text {i}" for i in range(120)]
        table = {t: (0.5, 0.25, 0.25) if i % 2 else (0.0, 0.0, 1.0)
                 for i, t in enumerate(texts)}
        pcfg = sf.ProviderConfig(provider_id="mock", llm_batch_size=8)
        mc = sf.TaskMode.MULTI_CLASS
        cache = cache_open(tmp_path / "c", FP_A)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sf.score_batch(texts + texts[::-1], schema, mc, pcfg, cache=cache,
                           provider=sf.MockProvider(table, schema))
        finally:
            sys.setswitchinterval(old)
        [segment] = _segments(tmp_path / "c")
        lines = segment.read_bytes().split(b"\n")
        assert lines.pop() == b""
        keys = [line.split(b"\t")[0] for line in lines]
        assert sorted(keys) == sorted(_mock_key(schema, mc, t).encode()
                                      for t in texts)
        provider = sf.MockProvider(table, schema)
        out = sf.score_batch(texts, schema, mc, pcfg,
                             cache=cache_open(tmp_path / "c", FP_A),
                             provider=provider)
        assert provider.calls == 0
        assert np.array_equal(out, [table[t] for t in texts])

    def test_format1_and_segments_serve_together(self, tmp_path):
        schema = sf.LabelSchema(("a", "b"))
        mc = sf.TaskMode.MULTI_CLASS
        pcfg = sf.ProviderConfig(provider_id="mock")
        root = tmp_path / "c"
        old = {"old 0": (0.9, 0.1), "old 1": (0.2, 0.8)}
        for text, scores in old.items():
            key = _mock_key(schema, mc, text)
            _write_format1(root, key, json.dumps(_format1_doc(key, scores)))
        manifest = (root / _MANIFEST_NAME).read_bytes()
        new = {"new 0": (0.6, 0.4), "new 1": (0.3, 0.7)}
        writer = sf.MockProvider(new, schema)
        sf.score_batch(list(new), schema, mc, pcfg,
                       cache=cache_open(root, FP_A), provider=writer)
        assert writer.calls == 2
        assert len(_segments(root)) == 1
        assert (root / _MANIFEST_NAME).read_bytes() == manifest
        provider = sf.MockProvider({}, schema)
        out = sf.score_batch([*old, *new], schema, mc, pcfg,
                             cache=cache_open_adopt(root),
                             provider=provider)
        assert provider.calls == 0
        assert np.array_equal(out, [*old.values(), *new.values()])


class TestCacheOpen:
    def test_fresh_directory_adopts_fingerprint(self, tmp_path):
        cache = cache_open(tmp_path / "new", FP_A)
        manifest = json.loads(
            (tmp_path / "new" / _MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["dataset_fingerprint"] == FP_A
        assert cache.fingerprint == FP_A

    def test_reopen_same_fingerprint(self, tmp_path):
        cache_open(tmp_path / "c", FP_A)
        cache = cache_open(tmp_path / "c", FP_A)
        assert cache.fingerprint == FP_A

    def test_strict_mismatch_raises(self, tmp_path):
        cache_open(tmp_path / "c", FP_A)
        with pytest.raises(sf.StaleCacheError, match=FP_A[:12]):
            cache_open(tmp_path / "c", FP_B, policy="strict")

    def test_warn_mismatch_rewrites_manifest(self, tmp_path):
        cache_open(tmp_path / "c", FP_A)
        cache = cache_open(tmp_path / "c", FP_B, policy="warn")
        assert cache.fingerprint == FP_B
        manifest = json.loads(
            (tmp_path / "c" / _MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["dataset_fingerprint"] == FP_B

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / _MANIFEST_NAME).write_text("???", encoding="utf-8")
        with pytest.raises(sf.CorruptCacheError):
            cache_open(root, FP_A)

    def test_unknown_format_version_raises(self, tmp_path):
        root = tmp_path / "c"
        cache_open(root, FP_A)
        manifest = json.loads((root / _MANIFEST_NAME).read_text("utf-8"))
        assert manifest["format_version"] == 2
        manifest["format_version"] = 3
        (root / _MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(sf.CorruptCacheError, match="format_version 3"):
            cache_open(root, FP_A)
        with pytest.raises(sf.CorruptCacheError, match="format_version 3"):
            cache_open_adopt(root)

    def test_bool_format_version_raises(self, tmp_path):
        # true == 1, so a membership test alone reads it as format 1
        root = tmp_path / "c"
        cache_open(root, FP_A)
        manifest = json.loads((root / _MANIFEST_NAME).read_text("utf-8"))
        manifest["format_version"] = True
        (root / _MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(sf.CorruptCacheError, match="format_version True"):
            cache_open(root, FP_A)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            cache_open(tmp_path / "c", FP_A, policy="lenient")


class TestCacheOpenAdopt:
    def test_adopts_stored_fingerprint(self, tmp_path):
        cache_open(tmp_path / "c", FP_A)
        cache = cache_open_adopt(tmp_path / "c")
        assert cache.fingerprint == FP_A

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(sf.CorruptCacheError, match="manifest"):
            cache_open_adopt(tmp_path / "nothing-here")
