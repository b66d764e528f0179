"""Hashed n-gram encoder: hashing, featurization, encoding, gradients,
and the frozen lookup encoder."""

from __future__ import annotations

import copy
import hashlib
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.encoder import (
    CsrRows,
    FrozenLookupEncoder,
    HashedNgramEncoder,
    _init_row_blocks,
    _init_sha256,
    _text_chunks,
    featurize,
    featurize_rows,
    fnv1a64,
    load_precomputed_embeddings,
    sign_init,
)


def encoder_gradient_step(projection: np.ndarray, grads: np.ndarray,
                          lr_small: float) -> np.ndarray:
    """Dense oracle for the sparse update: P <- P - lr * grads."""
    if grads.shape != projection.shape:
        raise ValueError(
            f"gradient shape {grads.shape} does not match projection "
            f"{projection.shape}"
        )
    projection -= lr_small * grads
    return projection


def _set_entry(enc, bucket, col, value):
    """Write one projection entry through the encoder's row path."""
    row = enc.projection[bucket].copy()
    row[col] = value
    enc.set_rows(np.array([bucket]), row[None])


def _buckets_of(enc, slots):
    """The buckets whose rows are in the given store slots."""
    stored = np.flatnonzero(enc._slot >= 0)
    bucket = np.empty(stored.size, dtype=np.int64)
    bucket[enc._slot[stored]] = stored
    return bucket[slots]


def _whole_batch(enc, feats):
    """Every row of feats as one TrainingBatch."""
    return enc.training_batches(feats)(np.arange(len(feats)))


def _reference_batch(feats, rows):
    """The touched buckets and (B, U) weight matrix of the given rows, by
    np.unique."""
    picked = feats[rows]
    touched, col = np.unique(picked.idx, return_inverse=True)
    weights = np.zeros((len(rows), touched.size))
    weights[picked.row_ids(), col] = picked.w
    return touched, weights


@st.composite
def csr_rows(draw, buckets):
    """CsrRows with empty rows and buckets repeated across rows; weights
    are positive and sum to 1 in a non-empty row."""
    pool = draw(st.lists(st.integers(0, buckets - 1), min_size=1,
                         max_size=12, unique=True))
    idx, w, lengths = [], [], []
    for _ in range(draw(st.integers(1, 12))):
        row = draw(st.lists(st.sampled_from(pool), max_size=len(pool),
                            unique=True))
        counts = np.array(draw(st.lists(st.integers(1, 9), min_size=len(row),
                                        max_size=len(row))), dtype=np.float64)
        idx += row
        w += (counts / counts.sum()).tolist() if row else []
        lengths.append(len(row))
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return CsrRows(indptr, np.array(idx, dtype=np.int64),
                   np.array(w, dtype=np.float64))


def _scalar_row(text, cfg):
    """The reference CSR row: featurize's map in insertion order, with
    weights counts / counts.sum()."""
    feats = featurize(text, cfg)
    idx = np.array(list(feats), dtype=np.int64)
    counts = np.array(list(feats.values()), dtype=np.float64)
    return idx, (counts / counts.sum() if feats else counts)


class TestFnv1a64:
    def test_published_vectors(self):
        # Standard 64-bit FNV-1a test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @given(st.binary(max_size=64))
    def test_stays_in_64_bits(self, data):
        assert 0 <= fnv1a64(data) < 2 ** 64


def _splitmix64_words_oracle(seed: int, buckets: int,
                             dim: int) -> list[list[int]]:
    """The words of sign_init's rows from their definition, in Python ints
    masked to 64 bits."""
    mask = 2 ** 64 - 1
    n_words = -(-dim // 64)
    rows = []
    for b in range(buckets):
        row = []
        for w in range(n_words):
            z = (seed + (b * n_words + w + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            row.append(z ^ (z >> 31))
        rows.append(row)
    return rows


def _splitmix64_sign_oracle(seed: int, buckets: int, dim: int) -> np.ndarray:
    """sign_init from its definition: +1 where the word's bit is set."""
    words = _splitmix64_words_oracle(seed, buckets, dim)
    out = np.empty((buckets, dim))
    for b in range(buckets):
        for c in range(dim):
            out[b, c] = 1.0 if (words[b][c // 64] >> (c % 64)) & 1 else -1.0
    return out


class TestSignInit:
    @pytest.mark.parametrize("dim", [1, 64, 130])
    @pytest.mark.parametrize("seed", [2 ** 63 + 12345, 2 ** 64 - 1, 0])
    def test_matches_python_int_splitmix64(self, seed, dim):
        got = sign_init(seed, 6, dim)
        assert got.dtype == np.float64 and got.shape == (6, dim)
        assert np.array_equal(got, _splitmix64_sign_oracle(seed, 6, dim))

    def test_balanced_signs(self):
        p = sign_init(3, 2 ** 12, 64)
        assert set(np.unique(p)) == {-1.0, 1.0}
        assert abs(p.mean()) < 0.01

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, True])
    def test_seed_must_be_uint64(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sign_init(seed, 4, 4)

    # A 256-value block: block multiples at every dim stay small enough
    # for the Python-int oracle.
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130])
    def test_block_boundaries_match_the_definition(self, dim, extra):
        with mock.patch("scorefusion.encoder._INIT_BLOCK_VALUES", 2 ** 8):
            block = next(_init_row_blocks(2 ** 20, dim))[1]
            assert block == max(1, 2 ** 8 // dim)
            buckets = 2 * block + extra
            got = sign_init(2 ** 63 + 7, buckets, dim)
        assert got.shape == (buckets, dim)
        assert np.array_equal(got,
                              _splitmix64_sign_oracle(2 ** 63 + 7, buckets, dim))

    def test_default_block_boundary_matches_the_definition(self):
        # 1,024 rows of 64 values per block at the module's block size.
        assert next(_init_row_blocks(2 ** 15, 64)) == (0, 1024)
        got = sign_init(11, 1025, 64)
        assert np.array_equal(got, _splitmix64_sign_oracle(11, 1025, 64))

    @pytest.mark.parametrize("start, stop", [(0, 0), (0, 37), (5, 6),
                                             (13, 50), (49, 50)])
    def test_row_range_is_a_slice_of_the_whole(self, start, stop):
        whole = sign_init(3, 50, 70)
        ids = np.arange(start, stop)
        with mock.patch("scorefusion.encoder._INIT_BLOCK_VALUES", 2 ** 8):
            assert np.array_equal(sign_init(3, 50, 70, rows=ids),
                                  whole[start:stop])
        out = np.full((stop - start, 70), np.nan)
        assert sign_init(3, 50, 70, rows=ids, out=out) is out
        assert np.array_equal(out, whole[start:stop])

    @pytest.mark.parametrize("ids", [[], [7], [49, 3, 3, 0, 17, 3],
                                     list(range(49, -1, -1))])
    def test_row_ids_are_rows_of_the_whole(self, ids):
        """Unsorted and repeated row ids, across several 256-value blocks,
        give those rows of the whole matrix and of its definition."""
        ids = np.array(ids, dtype=np.int64)
        whole = sign_init(3, 50, 70)
        with mock.patch("scorefusion.encoder._INIT_BLOCK_VALUES", 2 ** 8):
            got = sign_init(3, 50, 70, rows=ids)
        assert got.shape == (ids.size, 70)
        assert np.array_equal(got, whole[ids])
        assert np.array_equal(got, _splitmix64_sign_oracle(3, 50, 70)[ids])
        out = np.full((ids.size, 70), np.nan)
        assert sign_init(3, 50, 70, out=out, rows=ids.astype(np.int32)) \
            is out
        assert np.array_equal(out, whole[ids])

    @pytest.mark.parametrize("kwargs, match", [
        ({"rows": np.array([0, 50])}, r"row ids must lie in \[0, 50\)"),
        ({"rows": np.array([-1])}, r"row ids must lie in \[0, 50\)"),
        ({"rows": np.array([1.0])}, "1-d integer array"),
        ({"rows": np.array([[1]])}, "1-d integer array"),
    ])
    def test_row_ids_are_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            sign_init(3, 50, 4, **kwargs)

    def test_one_calling_form(self):
        """The whole start or `rows=` ids; no positional row range."""
        with pytest.raises(TypeError):
            sign_init(3, 50, 4, 0, 10)

    # The whole start and 256-value blocks, at block boundaries and not.
    @pytest.mark.parametrize("buckets, dim", [(1, 1), (50, 70), (9, 64),
                                              (8, 32), (17, 130)])
    def test_digest_hashes_the_words_of_every_row(self, buckets, dim):
        words = _splitmix64_words_oracle(2 ** 63 + 9, buckets, dim)
        want = hashlib.sha256(
            np.array(words, dtype="<u8").tobytes()).hexdigest()
        with mock.patch("scorefusion.encoder._INIT_BLOCK_VALUES", 2 ** 8):
            _init_sha256.cache_clear()
            assert _init_sha256(2 ** 63 + 9, buckets, dim) == want
        enc = HashedNgramEncoder(sf.EncoderConfig(dim=dim, buckets=max(
            buckets, dim)), seed=2 ** 63 + 9)
        assert enc.init_sha256 == _init_sha256(2 ** 63 + 9, max(buckets, dim),
                                               dim)
        assert HashedNgramEncoder(enc.cfg, seed=None).init_sha256 is None

    def test_peak_memory_is_the_output_plus_one_block(self):
        """numpy reports its buffers to tracemalloc: a default-size init
        holds its 16 MiB output and less than 1 MiB besides."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sign_init(2 ** 63 + 1, 2 ** 15, 64)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes == 16 * 2 ** 20
        assert peak < out.nbytes + 2 ** 20

    def test_projection_too_large_is_a_config_error(self):
        # A slot map of 2^48 int32 values exceeds every 64-bit address
        # space.
        cfg = sf.EncoderConfig(buckets=2 ** 48)
        with pytest.raises(sf.ConfigurationError,
                           match=r"slot map, buckets = 281474976710656 int32 "
                                 r"values \(1125899906842624 bytes\), "
                                 r"cannot be allocated"):
            HashedNgramEncoder(cfg, seed=1)

    def test_encoder_starts_from_sign_init_and_records_it(self):
        cfg = sf.EncoderConfig(dim=3, buckets=32)
        enc = HashedNgramEncoder(cfg, seed=2 ** 63 + 1)
        assert enc.init_seed == 2 ** 63 + 1
        assert np.array_equal(enc.projection, sign_init(2 ** 63 + 1, 32, 3))
        zero = HashedNgramEncoder(cfg, seed=None)
        assert zero.init_seed is None and not zero.projection.any()
        # A whole projection is a zero start with every row written in.
        zero.set_rows(np.arange(32), enc.projection)
        assert zero.init_seed is None
        assert np.array_equal(zero.projection, enc.projection)


class TestRowStore:
    """The encoder holds its start plus the rows its texts touched."""

    CFG = sf.EncoderConfig(dim=8, ngram_sizes=(3, 4), buckets=2 ** 12)
    TEXTS = ["the first text", "a second one", "", "ab", "straße 日本語",
             "the first text again", "zzzz qqqq"]

    @staticmethod
    def _assert_each_bucket_once(enc):
        stored = np.flatnonzero(enc._slot >= 0)
        assert sorted(enc._slot[stored].tolist()) == \
            list(range(enc._rows.shape[0]))

    def test_new_encoder_allocates_under_1_mib(self):
        """numpy reports its buffers to tracemalloc: a default 2^15 x 64
        encoder holds its 128 KiB slot map, not a 16 MiB projection."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enc = HashedNgramEncoder(sf.EncoderConfig(), seed=2 ** 63 + 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert enc._slot.nbytes == 2 ** 17
        assert peak < 2 ** 20

    @pytest.mark.parametrize("seed", [None, 2 ** 63 + 1])
    def test_embedding_stores_nothing(self, seed):
        """Embedding reads unstored rows from the start and stored rows
        from the store, and writes neither."""
        enc = HashedNgramEncoder(self.CFG, seed=seed)
        feats = enc.features(self.TEXTS)
        some = np.unique(feats.idx)[::3]
        enc.set_rows(some, np.arange(some.size * 8.0).reshape(-1, 8))
        want = enc.projection.copy()
        ids, rows = enc.stored_rows()
        got = enc.encode_batch(self.TEXTS)
        assert enc.stored_rows()[0].tolist() == ids.tolist()
        assert np.array_equal(enc.stored_rows()[1], rows)
        assert np.array_equal(enc.projection, want)
        assert got.tobytes() == _per_row_embed(feats, want).tobytes()
        fresh = HashedNgramEncoder(self.CFG, seed=seed)
        assert fresh.encode_batch(self.TEXTS).tobytes() == _per_row_embed(
            feats, fresh.projection).tobytes()
        assert fresh.stored_rows()[0].size == 0

    def test_projection_is_read_only(self):
        enc = HashedNgramEncoder(self.CFG, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            enc.projection[0, 0] = 2.0

    def test_set_rows_writes_through_the_store(self):
        enc = HashedNgramEncoder(self.CFG, seed=1)
        enc.set_rows(np.array([9, 7, 3000]), np.ones((3, 8)))
        values = np.arange(24.0).reshape(3, 8)
        enc.set_rows(np.array([4000, 7, 4000]), values)
        assert np.array_equal(enc.projection[7], values[1])
        assert np.array_equal(enc.projection[4000], values[2])
        self._assert_each_bucket_once(enc)

    def test_pickled_and_copied_encoders_embed_alike(self):
        enc = HashedNgramEncoder(self.CFG, seed=4)
        enc.set_rows(np.array([5, 70, 600]), np.full((3, 8), 0.5))
        want = enc.encode_batch(self.TEXTS)
        for other in (pickle.loads(pickle.dumps(enc)), copy.deepcopy(enc)):
            assert other.encode_batch(self.TEXTS[::-1] + ["new text"])[
                :len(self.TEXTS)][::-1].tobytes() == want.tobytes()
            assert np.array_equal(other.projection, enc.projection)

    def test_threads_embedding_at_once_equal_a_sequential_run(self):
        """Four threads embed overlapping texts at once, some of whose
        rows are stored; each result equals a sequential run, and the
        store is unchanged."""
        rng = np.random.default_rng(1)
        texts = ["".join(rng.choice(list("abcdefgh ij"), 30))
                 for _ in range(400)]
        parts = [texts[i::3] + texts[:20] for i in range(4)]
        enc = HashedNgramEncoder(self.CFG, seed=5)
        some = np.unique(enc.features(texts[:100]).idx)
        enc.set_rows(some, rng.standard_normal((some.size, 8)))
        ids, rows = enc.stored_rows()
        want = [enc.encode_batch(part) for part in parts]
        got: list = [None] * 4
        barrier = threading.Barrier(4)

        def run(i):
            barrier.wait(timeout=10)
            # One row at a time: many small calls interleave.
            got[i] = np.vstack([enc.encode_batch([t]) for t in parts[i]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert enc.stored_rows()[0].tolist() == ids.tolist()
        assert np.array_equal(enc.stored_rows()[1], rows)


class TestFeaturize:
    CFG = sf.EncoderConfig(dim=4, ngram_sizes=(3, 4), buckets=64)

    def test_hand_computed_ngrams(self):
        # "abcd" -> 3-grams "abc","bcd"; 4-gram "abcd"
        feats = featurize("abcd", self.CFG)
        expected = {}
        for gram in ("abc", "bcd", "abcd"):
            idx = fnv1a64(gram.encode("utf-8")) % 64
            expected[idx] = expected.get(idx, 0) + 1
        assert feats == expected

    def test_lowercased(self):
        assert featurize("AbCd", self.CFG) == featurize("abcd", self.CFG)

    def test_empty_and_short_text(self):
        assert featurize("", self.CFG) == {}
        assert featurize("ab", self.CFG) == {}

    def test_repeated_grams_count(self):
        feats = featurize("aaaa", self.CFG)
        idx3 = fnv1a64(b"aaa") % 64
        assert feats[idx3] == 2  # "aaa" at offsets 0 and 1

    @given(st.text(max_size=50))
    def test_total_and_in_range(self, text):
        feats = featurize(text, self.CFG)
        assert all(0 <= idx < 64 for idx in feats)
        assert all(count > 0 for count in feats.values())


class TestFeaturizeRows:
    CFG = sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=2 ** 15)

    def test_l1_normalized(self):
        # "aaaab": 3-grams "aaa" twice, "aab" once
        rows = featurize_rows(["aaaab"], self.CFG)
        idx, weights = rows.row(0)
        assert idx.tolist() == [fnv1a64(b"aaa") % 2 ** 15,
                                fnv1a64(b"aab") % 2 ** 15]
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-15)
        assert weights.tolist() == [2 / 3, 1 / 3]

    def test_empty(self):
        rows = featurize_rows(["", "ab"], self.CFG)
        assert len(rows) == 2 and rows.idx.size == 0 and rows.w.size == 0
        assert len(featurize_rows([], self.CFG)) == 0

    @given(texts=st.lists(st.text(max_size=30), max_size=12),
           ngram_sizes=st.sampled_from([(3, 4), (4, 3), (1, 2, 5), (2,),
                                        (4, 4)]),
           buckets=st.sampled_from([2 ** 6, 97, 2 ** 15]))
    def test_rows_equal_scalar_featurize(self, texts, ngram_sizes, buckets):
        cfg = sf.EncoderConfig(dim=4, ngram_sizes=ngram_sizes,
                               buckets=buckets)
        rows = featurize_rows(texts, cfg)
        assert len(rows) == len(texts)
        assert rows.idx.dtype == np.int64 and rows.w.dtype == np.float64
        for i, text in enumerate(texts):
            idx, weights = rows.row(i)
            want_idx, want_weights = _scalar_row(text, cfg)
            assert idx.tolist() == want_idx.tolist()
            assert weights.tolist() == want_weights.tolist()

    def test_non_ascii_and_chunking(self, monkeypatch):
        import scorefusion.encoder as encoder_mod
        monkeypatch.setattr(encoder_mod, "_FEATURIZE_CHUNK_ROWS", 3)
        cfg = sf.EncoderConfig(dim=4, ngram_sizes=(1, 3), buckets=2 ** 10)
        texts = ["İstanbul", "ΣΑΣ ςσ", "", "日本語テキスト", "a", "straße 😀",
                 "ﬁne"]
        rows = featurize_rows(texts, cfg)
        for i, text in enumerate(texts):
            idx, weights = rows.row(i)
            want_idx, want_weights = _scalar_row(text, cfg)
            assert idx.tolist() == want_idx.tolist()
            assert weights.tolist() == want_weights.tolist()

    def test_chunks_are_capped_by_rows_and_bytes(self, monkeypatch):
        import scorefusion.encoder as encoder_mod
        monkeypatch.setattr(encoder_mod, "_FEATURIZE_CHUNK_ROWS", 4)
        monkeypatch.setattr(encoder_mod, "_FEATURIZE_CHUNK_BYTES", 10)
        # UTF-8 bytes 3, 3, 3, 14, 0, 10, then 1 each: a text past the
        # budget is a chunk of its own, and "é" counts two bytes.
        texts = ["aaa", "bbb", "ccc", "d" * 14, "", "é" * 5,
                 "f", "g", "h", "i", "j"]
        assert list(_text_chunks(texts)) == [(0, 3), (3, 4), (4, 6),
                                             (6, 10), (10, 11)]
        assert list(_text_chunks([])) == [(0, 0)]
        cfg = sf.EncoderConfig(dim=4, ngram_sizes=(1, 3), buckets=2 ** 10)
        rows = featurize_rows(texts, cfg)
        for i, text in enumerate(texts):
            idx, weights = rows.row(i)
            want_idx, want_weights = _scalar_row(text, cfg)
            assert idx.tolist() == want_idx.tolist()
            assert weights.tolist() == want_weights.tolist()

    def test_short_texts_chunk_by_rows_alone(self):
        # Benchmark-length texts: 256 rows are far below the byte budget.
        texts = ["x" * 33] * 600
        assert list(_text_chunks(texts)) == [(0, 256), (256, 512),
                                             (512, 600)]

    def test_take_selects_rows_in_order(self):
        texts = ["first text", "", "second one", "third"]
        rows = featurize_rows(texts, self.CFG)
        picked = rows[np.array([2, 1, 2, 0])]
        assert len(picked) == 4
        for got, src in zip(range(4), (2, 1, 2, 0)):
            for a, b in zip(picked.row(got), rows.row(src)):
                assert a.tolist() == b.tolist()


def _encoder_with(cfg, projection):
    """An encoder whose projection is `projection`: a zero start with
    every row written in."""
    enc = HashedNgramEncoder(cfg, seed=None)
    enc.set_rows(np.arange(cfg.buckets), projection)
    return enc


def _per_row_embed(feats, projection):
    """The reference embedding: `weights @ projection[idx]` one row at a
    time, the zero vector for an empty row."""
    out = np.zeros((len(feats), projection.shape[1]))
    for i in range(len(feats)):
        idx, weights = feats.row(i)
        if idx.size:
            out[i] = weights @ projection[idx]
    return out


# Empty and too-short texts and non-ASCII ones, then a run of equal-length
# texts, so that many rows share an entry count and embed in one stacked
# product.
_MIXED_TEXTS = st.lists(
    st.one_of(st.text(max_size=40), st.sampled_from(["", "a", "ab"]),
              st.text(alphabet="aé日😀 b", max_size=12)), max_size=12)
_EQUAL_LENGTH_TEXTS = st.integers(0, 30).flatmap(
    lambda n: st.lists(st.text(alphabet="abcdefghij", min_size=n,
                               max_size=n), max_size=12))


class TestEncode:
    CFG = sf.EncoderConfig(dim=3, ngram_sizes=(3,), buckets=32)

    @given(mixed=_MIXED_TEXTS, equal=_EQUAL_LENGTH_TEXTS,
           dim=st.sampled_from([1, 3, 32, 64]),
           block_values=st.sampled_from([1, 200, 2 ** 20]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_embed_is_the_per_row_product_bit_for_bit(self, mixed, equal, dim,
                                                      block_values, seed):
        import scorefusion.encoder as encoder_mod

        texts = mixed + equal
        cfg = sf.EncoderConfig(dim=dim, ngram_sizes=(3, 4), buckets=2 ** 10)
        projection = np.random.default_rng(seed).standard_normal(
            (cfg.buckets, dim))
        enc = _encoder_with(cfg, projection)
        feats = enc.features(texts)
        want = _per_row_embed(feats, projection).tobytes()
        # block_values 1 and 200 split equal-count rows into many blocks
        with mock.patch.object(encoder_mod, "_EMBED_BLOCK_VALUES",
                               block_values):
            assert enc.embed_features(feats).tobytes() == want
            assert enc.encode_batch(texts).tobytes() == want

    def test_matches_manual_matmul(self):
        projection = np.random.default_rng(0).standard_normal((32, 3))
        text = "hello world"
        idx, weights = _scalar_row(text, self.CFG)
        expected = weights @ projection[idx]
        enc = _encoder_with(self.CFG, projection)
        np.testing.assert_allclose(enc.encode(text), expected, rtol=0, atol=0)

    def test_empty_text_is_zero_vector(self):
        enc = HashedNgramEncoder(self.CFG, seed=0)
        np.testing.assert_array_equal(enc.encode(""), np.zeros(3))

    def test_batch_equals_per_row(self):
        enc = HashedNgramEncoder(self.CFG, seed=1)
        texts = ["one text", "another text", "third text here", ""]
        batch = enc.encode_batch(texts)
        for text, row in zip(texts, batch):
            np.testing.assert_array_equal(row, enc.encode(text))

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_chunked_batch_is_bit_identical(self, n):
        # 256 = _FEATURIZE_CHUNK_ROWS: empty, one row, and either side of
        # one and two chunk boundaries
        enc = HashedNgramEncoder(sf.EncoderConfig(dim=8, buckets=2 ** 10),
                                 seed=2)
        rng = np.random.default_rng(n)
        texts = ["".join(rng.choice(list("abcd eé"), rng.integers(0, 40)))
                 for _ in range(n)]
        got = enc.encode_batch(texts)
        want = enc.embed_features(enc.features(texts))
        assert got.shape == (n, 8) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_batch_memory_does_not_grow_with_rows(self):
        import tracemalloc

        enc = HashedNgramEncoder(sf.EncoderConfig(dim=4), seed=3)
        rng = np.random.default_rng(4)
        # random letters: nearly every n-gram is its own feature
        texts = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz "), 100))
                 for _ in range(8 * 256)]

        def peak(batch):
            tracemalloc.start()
            try:
                enc.encode_batch(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # eight chunks peak at about one chunk's intermediates; featurizing
        # all rows before embedding any would hold all eight chunks' features
        assert peak(texts) < 1.25 * peak(texts[:256])

    def test_long_texts_embed_in_bounded_memory(self):
        """A chunk is capped by its text bytes too: 256 texts of 5,000
        characters (Reuters-length articles) peak under 48 MiB, where one
        256-row chunk peaks near 190 MiB, and each row has the bits of
        the text encoded alone."""
        enc = HashedNgramEncoder(sf.EncoderConfig(), seed=3)
        letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", dtype=np.uint8)
        codes = letters[np.random.default_rng(6).integers(0, 27, (256, 5000))]
        texts = [row.tobytes().decode("ascii") for row in codes]
        want = np.vstack([enc.encode_batch([text]) for text in texts])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = enc.encode_batch(texts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20
        assert got.tobytes() == want.tobytes()

    def test_equal_count_rows_embed_in_bounded_memory(self):
        import tracemalloc

        from scorefusion.encoder import _EMBED_BLOCK_VALUES

        enc = HashedNgramEncoder(sf.EncoderConfig(), seed=3)
        rng = np.random.default_rng(5)
        text = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz "), 2000))
        # One entry count for all 256 rows, about 3.7k entries each: one
        # stacked product of the whole chunk would gather 256 x 3.7k x 64
        # float64, about 480 MB.
        texts = [text] * 256

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block_bytes = _EMBED_BLOCK_VALUES * 8
        assert peak(lambda: enc.encode_batch(texts)) < \
            peak(lambda: enc.features(texts)) + 2 * block_bytes

    def test_init_deterministic_by_seed(self):
        a = HashedNgramEncoder(self.CFG, seed=7)
        b = HashedNgramEncoder(self.CFG, seed=7)
        c = HashedNgramEncoder(self.CFG, seed=8)
        np.testing.assert_array_equal(a.projection, b.projection)
        assert not np.array_equal(a.projection, c.projection)
        assert a.projection.shape == (32, 3)


class TestEncoderGradients:
    CFG = sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=64, lr_small=0.1)

    def test_dense_step_updates_in_place(self):
        projection = HashedNgramEncoder(self.CFG, seed=0).projection.copy()
        before = projection.copy()
        grads = np.ones_like(before)
        encoder_gradient_step(projection, grads, lr_small=0.1)
        np.testing.assert_allclose(projection, before - 0.1)

    def test_dense_step_shape_check(self):
        projection = HashedNgramEncoder(self.CFG, seed=0).projection
        with pytest.raises(ValueError):
            encoder_gradient_step(projection, np.ones((2, 2)), lr_small=0.1)

    def test_sparse_equals_dense(self):
        """apply_sparse_gradients must equal the dense step on a gradient
        that is the sum of per-example outer(weights, g), also where rows
        share buckets."""
        enc_a = HashedNgramEncoder(self.CFG, seed=3)
        projection_b = enc_a.projection.copy()
        texts = ["sparse path test", "sparse path rest", "another path here",
                 "", "test the sparse path"]
        rng = np.random.default_rng(0)
        gs = rng.standard_normal((len(texts), 4))
        feats = enc_a.features(texts)
        assert np.unique(feats.idx).size < feats.idx.size  # buckets repeat

        dense = np.zeros_like(projection_b)
        for i, g in enumerate(gs):
            idx, weights = feats.row(i)
            for j, w in zip(idx, weights):
                dense[j] += w * g
        encoder_gradient_step(projection_b, dense, lr_small=0.1)

        enc_a.apply_sparse_gradients(_whole_batch(enc_a, feats), gs)
        np.testing.assert_allclose(enc_a.projection,
                                   projection_b, rtol=0, atol=1e-15)

    def test_finite_difference_through_projection(self):
        """d(loss)/d(projection) via the sparse path vs central differences
        on a scalar loss = v . encode(text)."""
        enc = HashedNgramEncoder(self.CFG, seed=5)
        text = "gradient check text"
        idx, weights = enc.features([text]).row(0)
        v = np.arange(1.0, 5.0)  # fixed linear functional

        g = v.copy()  # d(v . e)/d e
        h = 1e-6
        for pos, (j, w) in enumerate(zip(idx.tolist(), weights.tolist())):
            for col in range(4):
                analytic = w * g[col]
                orig = enc.projection[j, col]
                _set_entry(enc, j, col, orig + h)
                up = float(v @ enc.encode(text))
                _set_entry(enc, j, col, orig - h)
                down = float(v @ enc.encode(text))
                _set_entry(enc, j, col, orig)
                fd = (up - down) / (2 * h)
                assert abs(analytic - fd) < 1e-6, (pos, col)

    def test_sparse_skips_empty_rows(self):
        enc = HashedNgramEncoder(self.CFG, seed=1)
        before = enc.projection.copy()
        enc.apply_sparse_gradients(_whole_batch(enc, enc.features([""])),
                                   np.ones((1, 4)))
        np.testing.assert_array_equal(enc.projection, before)


class TestTrainingBatch:
    """The training step's batch kernel against an np.unique reference."""

    # M @ P[u] sums a row over the sorted touched buckets, the per-row
    # w @ P[idx] in first-occurrence order; with weights summing to 1 and
    # unit-normal entries the two differ by a few ulps of O(1) values.
    EMBED_ATOL = 1e-12

    def _check(self, enc, build, feats, rows):
        batch = build(rows)
        touched, weights = _reference_batch(feats, rows)
        # touched holds store slots, sorted: their buckets in bucket order
        assert _buckets_of(enc, batch.touched).tolist() == touched.tolist()
        np.testing.assert_array_equal(batch.weights, weights)
        np.testing.assert_array_equal(batch.projection_rows,
                                      enc.projection[touched])
        np.testing.assert_allclose(enc.embed_batch(batch),
                                   enc.embed_features(feats[rows]),
                                   rtol=0, atol=self.EMBED_ATOL)

    @given(data=st.data(), buckets=st.sampled_from([64, 2 ** 15]))
    def test_matches_unique_reference(self, data, buckets):
        feats = data.draw(csr_rows(buckets))
        enc = HashedNgramEncoder(
            sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=buckets), seed=2)
        rows = np.array(data.draw(st.permutations(range(len(feats)))),
                        dtype=np.int64)
        self._check(enc, enc.training_batches(feats), feats, rows)

    def test_consecutive_batches_leave_mask_clean(self):
        cfg = sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=2 ** 15)
        enc = HashedNgramEncoder(cfg, seed=4)
        feats = enc.features(["alpha beta", "alpha gamma", "zzzz", "qqqq",
                              "", "beta alpha"])
        first = set(feats[np.array([0, 1])].idx.tolist())
        assert first & set(feats[np.array([5, 4])].idx.tolist())
        assert not first & set(feats[np.array([2, 3])].idx.tolist())
        build = enc.training_batches(feats)
        for rows in ([0, 1], [5, 4], [0, 1], [2, 3], [4], [0, 1, 2, 3, 4, 5]):
            self._check(enc, build, feats, np.array(rows))

    def test_reused_buffers_keep_no_stale_values(self):
        """A batch built after a larger one from the same builder equals a
        batch from a fresh builder; the buffers grow to hold the largest
        batch built (rounded up to a power of two), never the bucket
        count."""
        cfg = sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=2 ** 15)
        enc = HashedNgramEncoder(cfg, seed=4)
        feats = enc.features(["alpha beta gamma delta", "epsilon zeta eta",
                              "theta iota", "kappa", "", "lambda mu nu xi"])
        build = enc.training_batches(feats)
        b, u = build(np.arange(6)).weights.shape
        sizes = {name: buf.size for name, buf in build._buffers.items()}
        for rows in ([3], [4], [1, 3], [5, 0, 2]):
            got = build(np.array(rows))
            fresh = enc.training_batches(feats)(np.array(rows))
            assert got.touched.tolist() == fresh.touched.tolist()
            np.testing.assert_array_equal(got.weights, fresh.weights)
            np.testing.assert_array_equal(got.projection_rows,
                                          fresh.projection_rows)
            assert got.step.shape == fresh.step.shape
        assert {name: buf.size for name, buf in build._buffers.items()} \
            == sizes
        assert b * u <= sizes["weights"] < 2 * b * u
        assert u * cfg.dim <= sizes["rows"] == sizes["step"] < 2 * u * cfg.dim

    def test_step_out_matches_a_fresh_product(self):
        """The update written into the batch's step buffer has the bits of
        the plain product it replaced."""
        cfg = sf.EncoderConfig(dim=8, ngram_sizes=(3, 4), buckets=2 ** 10,
                               lr_small=0.1)
        texts = ["one two three", "four five six", "seven", "eight nine"]
        grads = np.random.default_rng(3).standard_normal((len(texts), 8))
        enc = HashedNgramEncoder(cfg, seed=9)
        feats = enc.features(texts)
        build = enc.training_batches(feats)
        build(np.arange(len(texts)))  # grow the buffers first
        batch = build(np.array([2, 0]))
        expected = enc.projection.copy()
        step = batch.weights.T @ grads[:2] * cfg.lr_small
        expected[_buckets_of(enc, batch.touched)] = \
            batch.projection_rows - step
        emb = batch.weights @ batch.projection_rows
        out = np.full((2, 11), np.nan)
        enc.embed_batch(batch, out=out[:, :8])
        assert np.array_equal(out[:, :8], emb)
        enc.apply_sparse_gradients(batch, grads[:2])
        assert np.array_equal(enc.projection.view(np.uint64),
                              expected.view(np.uint64))

    def test_empty_texts_embed_to_zero_and_leave_projection(self):
        enc = HashedNgramEncoder(
            sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=64), seed=1)
        before = enc.projection.copy()
        batch = _whole_batch(enc, enc.features(["", "ab", ""]))
        np.testing.assert_array_equal(enc.embed_batch(batch), np.zeros((3, 4)))
        enc.apply_sparse_gradients(batch, np.ones((3, 4)))
        np.testing.assert_array_equal(enc.projection, before)

    def test_len_is_row_count(self):
        enc = HashedNgramEncoder(
            sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=64), seed=1)
        feats = enc.features(["one", "", "three", "four"])
        build = enc.training_batches(feats)
        assert len(build(np.array([3, 1, 0]))) == 3
        assert len(build(np.array([1]))) == 1


class TestEncoderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sf.EncoderConfig(dim=0)
        with pytest.raises(ValueError):
            sf.EncoderConfig(buckets=0)
        with pytest.raises(ValueError):
            sf.EncoderConfig(ngram_sizes=())
        with pytest.raises(ValueError):
            sf.EncoderConfig(ngram_sizes=(0,))
        with pytest.raises(ValueError):
            sf.EncoderConfig(lr_small=0.0)

    def test_defaults(self):
        cfg = sf.EncoderConfig()
        assert cfg.dim == 64
        assert cfg.ngram_sizes == (3, 4)
        assert cfg.buckets == 2 ** 15
        assert cfg.lr_small == pytest.approx(1e-3)

    @given(dim=st.integers(1, 64),
           ngram_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           extra_buckets=st.integers(0, 2 ** 16),
           lr_small=st.floats(1e-9, 10.0))
    def test_dict_round_trip(self, dim, ngram_sizes, extra_buckets, lr_small):
        cfg = sf.EncoderConfig(dim=dim, ngram_sizes=tuple(ngram_sizes),
                               buckets=dim + extra_buckets, lr_small=lr_small)
        doc = cfg.to_dict()
        assert doc["ngram_sizes"] == list(ngram_sizes)
        assert sf.EncoderConfig.from_dict(doc, "encoder") == cfg


class TestFrozenLookupEncoder:
    def test_lookup_and_unknown(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("hello\t1.0\t2.0\nworld\t-0.5\t0.25\n",
                        encoding="utf-8")
        enc = load_precomputed_embeddings(str(path))
        assert enc.dim == 2
        np.testing.assert_array_equal(enc.encode("hello"), [1.0, 2.0])
        with pytest.raises(sf.UnknownTextError, match="missing"):
            enc.encode("missing")

    def test_training_calls_select_rows_and_change_nothing(self):
        """The frozen encoder's features are its embeddings, a batch is
        their rows, and the update leaves the table as it was."""
        table = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        enc = FrozenLookupEncoder(table, 2)
        feats = enc.features(["b", "a", "b"])
        np.testing.assert_array_equal(feats, [[3, 4], [1, 2], [3, 4]])
        batch = enc.training_batches(feats)(np.array([2, 1]))
        np.testing.assert_array_equal(enc.embed_batch(batch), [[3, 4], [1, 2]])
        assert enc.embed_features(feats) is feats
        enc.apply_sparse_gradients(batch, np.ones((2, 2)))
        np.testing.assert_array_equal(enc.encode("a"), [1.0, 2.0])
        assert enc.lr_small == 0.0

    def test_missing_file(self):
        with pytest.raises(sf.DataError):
            load_precomputed_embeddings("/nonexistent/emb.tsv")

    def test_ragged_dimensions(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1.0\t2.0\nb\t3.0\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="dimension"):
            load_precomputed_embeddings(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tone\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="non-numeric"):
            load_precomputed_embeddings(str(path))

    def test_missing_values_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("justtext\n", encoding="utf-8")
        with pytest.raises(sf.DataError):
            load_precomputed_embeddings(str(path))

    def test_duplicate_text_last_wins(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\t1.0\na\t9.0\n", encoding="utf-8")
        enc = load_precomputed_embeddings(str(path))
        np.testing.assert_array_equal(enc.encode("a"), [9.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.tsv"
        path.write_text("a\t1.0\n\nb\t2.0\n", encoding="utf-8")
        enc = load_precomputed_embeddings(str(path))
        assert set(enc.table) == {"a", "b"}
