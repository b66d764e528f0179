"""Disk score cache: keys, round trips, segments, the format-1 reader,
staleness policies."""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import zlib
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.cache import (
    _MANIFEST_NAME,
    ScoreCache,
    cache_key,
    cache_key_prefix,
    cache_open,
    cache_open_adopt,
)
from scorefusion.core import text_digest as digest_of
from scorefusion.llm import prompt_template_digest, score_providers

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

    @pytest.mark.parametrize("provider, model", [
        ("mock", "m1"), ("プロバイダ", "mödel-β"), ("a.b", "c.d")])
    def test_prefix_is_the_key_before_its_text_digest(self, provider, model):
        assert cache_key_prefix(provider, model, "t" * 64) + "d" * 64 \
            == cache_key(provider, model, "t" * 64, "d" * 64)

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

    @pytest.mark.parametrize("bad", [
        1.5, -0.25, float("nan"), float("inf"),
        pytest.param(10 ** 400, id="int_beyond_float")])
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


def _line(key, doc, crc_ok=True):
    """One segment line holding entry bytes `doc`; a flipped CRC bit when
    not crc_ok."""
    head = key.encode() + b"\t" + doc
    return b"%s\t%08x\n" % (head, zlib.crc32(head) ^ (not crc_ok))


def _entry(key, scores, **fields):
    return json.dumps({**_format1_doc(key, scores), **fields},
                      sort_keys=True).encode()


# How each kind of entry is stored: (segment line or None, format-1 file
# text or None), for `key` with the k scores `scores`.
ENTRY_KINDS = {
    "valid": lambda key, s: (_line(key, _entry(key, s)), None),
    "bad_crc": lambda key, s: (_line(key, _entry(key, s), crc_ok=False),
                               None),
    "bad_json": lambda key, s: (_line(key, _entry(key, s)[:-7]), None),
    "wrong_key": lambda key, s: (_line(key, _entry(key + "0", s)), None),
    "out_of_range": lambda key, s: (
        _line(key, _entry(key, [*s[:-1], 1.5])), None),
    "other_fingerprint": lambda key, s: (
        _line(key, _entry(key, s, dataset_fingerprint=FP_B)), None),
    "parse_ok_false": lambda key, s: (
        _line(key, _entry(key, s, parse_ok=False)), None),
    "wrong_count": lambda key, s: (_line(key, _entry(key, [*s, 0.5])), None),
    "format1": lambda key, s: (None, _entry(key, s).decode()),
    "format1_bad_json": lambda key, s: (None, "{ not json"),
}


class TestGetMany:
    K = 3

    def _keys(self, n):
        return [_key(text_digest=f"{i:064x}") for i in range(n)]

    def _per_key(self, cache, keys, k):
        """get_many's answer from per-key get plus the score-count check."""
        hits = [cache.get(key) for key in keys]
        found = [hit is not None and len(hit) == k for hit in hits]
        rows = [hit if ok else (0.0,) * k for hit, ok in zip(hits, found)]
        return np.array(rows, dtype=float).reshape(len(keys), k), found

    @given(entries=st.lists(
               st.tuples(st.sampled_from(sorted(ENTRY_KINDS)),
                         st.integers(0, 5), st.integers(0, 1),
                         st.lists(st.floats(0.0, 1.0), min_size=3,
                                  max_size=3)),
               max_size=14),
           lookups=st.lists(st.integers(0, 6), max_size=10))
    def test_equals_per_key_get(self, tmp_path_factory, entries, lookups):
        root = tmp_path_factory.mktemp("gm")
        keys = self._keys(7)  # key 6 never has an entry
        segments = {0: b"", 1: b""}
        for kind, i, segment, scores in entries:
            line, format1 = ENTRY_KINDS[kind](keys[i], scores)
            if line is not None:
                segments[segment] += line
            else:
                _write_format1(root, keys[i], format1)
        for segment, data in segments.items():
            if data:
                (root / f"log-{segment}.jsonl").write_bytes(data)
        asked = [keys[i] for i in lookups]
        want_scores, want_found = self._per_key(cache_open(root, FP_A),
                                                asked, self.K)
        cache = cache_open(root, FP_A)
        for _ in range(2):  # a fresh handle, then its memo
            scores, found = cache.get_many(asked, self.K)
            assert scores.shape == (len(asked), self.K)
            assert scores.dtype == np.float64
            assert found.dtype == bool and found.tolist() == want_found
            assert np.array_equal(scores, want_scores)
        assert self._per_key(cache, asked, self.K)[1] == want_found

    def test_second_read_parses_nothing(self, tmp_path, monkeypatch):
        import scorefusion.cache as cache_mod

        keys = self._keys(4)
        writer = cache_open(tmp_path / "c", FP_A)
        for i, key in enumerate(keys[:3]):
            writer.put(key, (i / 4, 0.5, 0.25))
        cache = cache_open(tmp_path / "c", FP_A)
        first = cache.get_many(keys, self.K)

        def no_parse(self, key, raw, source):
            raise AssertionError("parsed an entry twice")
        monkeypatch.setattr(cache_mod.ScoreCache, "_parse", no_parse)
        second = cache.get_many(keys, self.K)
        assert first[1].tolist() == second[1].tolist() \
            == [True, True, True, False]
        assert np.array_equal(first[0], second[0])
        assert first[0].tolist() == [[0.0, 0.5, 0.25], [0.25, 0.5, 0.25],
                                     [0.5, 0.5, 0.25], [0.0, 0.0, 0.0]]
        assert cache.get(keys[1]) == (0.25, 0.5, 0.25)

    def test_no_keys(self, tmp_path):
        scores, found = cache_open(tmp_path / "c", FP_A).get_many([], 4)
        assert scores.shape == (0, 4) and found.shape == (0,)

    def test_newer_line_replaces_the_memo(self, tmp_path):
        k1, k2 = self._keys(2)
        a = cache_open(tmp_path / "c", FP_A)
        a.put(k1, (0.0, 1.0))
        reader = cache_open(tmp_path / "c", FP_A)
        assert reader.get(k1) == (0.0, 1.0)  # parsed and memoized
        b = cache_open(tmp_path / "c", FP_A)
        b.put(k1, (1.0, 0.0))
        assert reader.get(k1) == (0.0, 1.0)  # a hit does not catch up
        assert reader.get(k2) is None  # a miss catches up on b's segment
        assert reader.get(k1) == (1.0, 0.0)
        scores, found = reader.get_many([k1], 2)
        assert found.tolist() == [True] and scores.tolist() == [[1.0, 0.0]]

    def test_parse_never_overwrites_a_newer_line(self, tmp_path,
                                                 monkeypatch):
        # Another thread's catch-up indexes a newer line for the key while
        # this read parses the old one: the older parse is not kept.
        k1, k2 = self._keys(2)
        cache_open(tmp_path / "c", FP_A).put(k1, (0.0, 1.0))
        reader = cache_open(tmp_path / "c", FP_A)
        real_parse = ScoreCache._parse

        def parse_during_catch_up(self, key, raw, source):
            cache_open(tmp_path / "c", FP_A).put(k1, (1.0, 0.0))
            assert self.get(k2) is None  # its miss catches up
            return real_parse(self, key, raw, source)
        monkeypatch.setattr(ScoreCache, "_parse", parse_during_catch_up)
        assert reader.get(k1) == (0.0, 1.0)  # the line it read
        monkeypatch.setattr(ScoreCache, "_parse", real_parse)
        assert reader.get(k1) == (1.0, 0.0)

    def test_threaded_reads_keep_up_with_a_writer(self, tmp_path):
        # Readers parse, catch up and write back memos on one handle while
        # another handle appends newer lines: a parse kept over a newer
        # line would outlive the final catch-up.
        keys = self._keys(13)
        keys, absent = keys[:12], keys[12]
        writer = cache_open(tmp_path / "c", FP_A)
        reader = cache_open(tmp_path / "c", FP_A)
        versions = 40
        errors = []

        def read():
            try:
                for _ in range(versions):
                    scores, found = reader.get_many([*keys, absent], 2)
                    assert not found[-1]
                    assert np.all(scores.sum(axis=1)[found] == 1.0)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def write():
            for version in range(1, versions + 1):
                for key in keys:
                    writer.put(key, (version / 64, 1 - version / 64))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reader.get(absent) is None  # catches up on the last lines
        scores, found = reader.get_many(keys, 2)
        last = (versions / 64, 1 - versions / 64)
        assert found.tolist() == [True] * len(keys)
        assert scores.tolist() == [list(last)] * len(keys)

    def test_corrupt_entry_warns_once_and_put_heals(self, tmp_path, caplog):
        k1, k2 = self._keys(2)
        root = tmp_path / "c"
        cache_open(root, FP_A)
        (root / "log-0.jsonl").write_bytes(
            _line(k1, _entry(k1, SCORES)[:-7])
            + _line(k2, _entry(k2, SCORES)))
        cache = cache_open(root, FP_A)
        with caplog.at_level(logging.WARNING, logger="scorefusion.cache"):
            assert cache.get(k1) is None
            assert cache.get_many([k1, k2], 2)[1].tolist() == [False, True]
            assert cache.get(k1) is None
        assert len(caplog.records) == 1
        assert "corrupt cache entry" in caplog.records[0].getMessage()
        cache.put(k1, (0.5, 0.5))
        assert cache.get(k1) == (0.5, 0.5)
        assert cache_open(root, FP_A).get_many([k1], 2)[1].tolist() == [True]

    def test_wrong_count_warns_and_reads_as_missing(self, tmp_path, caplog):
        cache = cache_open(tmp_path / "c", FP_A)
        cache.put(_key(), SCORES)
        with caplog.at_level(logging.WARNING, logger="scorefusion.cache"):
            scores, found = cache.get_many([_key()], 3)
        assert found.tolist() == [False] and scores.tolist() == [[0.0] * 3]
        assert "2 scores, expected 3" in caplog.records[0].getMessage()
        assert cache.get(_key()) == SCORES

    def test_cold_pass_lists_the_directory_once_per_provider(
            self, tmp_path, monkeypatch):
        schema = sf.LabelSchema(("a", "b"))
        texts = [f"text {i}" for i in range(30)]
        pcfgs = (sf.ProviderConfig(provider_id="mock"),
                 sf.ProviderConfig(provider_id="mock", model_name="other"))
        providers = [sf.MockProvider({}, schema) for _ in pcfgs]
        cache = cache_open(tmp_path / "c", FP_A)
        listings = []
        real_scandir = os.scandir

        def counting_scandir(path):
            listings.append(path)
            return real_scandir(path)
        monkeypatch.setattr(os, "scandir", counting_scandir)
        score_providers(texts + texts, schema, sf.TaskMode.MULTI_CLASS,
                        pcfgs, cache, providers)
        assert [p.calls for p in providers] == [30, 30]
        assert len(listings) == len(pcfgs)


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
