"""Hashed n-gram encoder: hashing, featurization, encoding, gradients,
and the frozen lookup encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.encoder import (
    EncoderParams,
    encoder_gradient_step,
    features_to_arrays,
    featurize,
    fnv1a64,
    init_encoder_params,
)


class TestFnv1a64:
    def test_published_vectors(self):
        # Standard 64-bit FNV-1a test vectors (seed 0 = plain FNV-1a).
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_seed_changes_stream(self):
        assert fnv1a64(b"abc", seed=1) != fnv1a64(b"abc", seed=0)

    @given(st.binary(max_size=64))
    def test_stays_in_64_bits(self, data):
        assert 0 <= fnv1a64(data) < 2 ** 64


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


class TestFeaturesToArrays:
    def test_l1_normalized(self):
        idx, weights = features_to_arrays({3: 2, 7: 1, 9: 1})
        assert sorted(idx.tolist()) == [3, 7, 9]
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-15)
        order = {i: w for i, w in zip(idx.tolist(), weights.tolist())}
        assert order[3] == pytest.approx(0.5)

    def test_empty(self):
        idx, weights = features_to_arrays({})
        assert idx.size == 0 and weights.size == 0


class TestEncode:
    CFG = sf.EncoderConfig(dim=3, ngram_sizes=(3,), buckets=32)

    def test_matches_manual_matmul(self):
        params = init_encoder_params(self.CFG, seed=0)
        text = "hello world"
        feats = featurize(text, self.CFG)
        idx, weights = features_to_arrays(feats)
        expected = weights @ params.projection[idx]
        enc = sf.HashedNgramEncoder(self.CFG, params=params)
        np.testing.assert_allclose(enc.encode(text), expected, rtol=0, atol=0)

    def test_empty_text_is_zero_vector(self):
        enc = sf.HashedNgramEncoder(self.CFG, seed=0)
        np.testing.assert_array_equal(enc.encode(""), np.zeros(3))

    def test_batch_equals_per_row(self):
        enc = sf.HashedNgramEncoder(self.CFG, seed=1)
        texts = ["one text", "another text", "third text here", ""]
        batch = enc.encode_batch(texts)
        for text, row in zip(texts, batch):
            np.testing.assert_array_equal(row, enc.encode(text))

    def test_init_deterministic_by_seed(self):
        a = init_encoder_params(self.CFG, seed=7)
        b = init_encoder_params(self.CFG, seed=7)
        c = init_encoder_params(self.CFG, seed=8)
        np.testing.assert_array_equal(a.projection, b.projection)
        assert not np.array_equal(a.projection, c.projection)
        assert a.projection.shape == (32, 3)


class TestEncoderGradients:
    CFG = sf.EncoderConfig(dim=4, ngram_sizes=(3,), buckets=64, lr_small=0.1)

    def test_dense_step_updates_in_place(self):
        params = init_encoder_params(self.CFG, seed=0)
        before = params.projection.copy()
        grads = np.ones_like(before)
        encoder_gradient_step(params, grads, lr_small=0.1)
        np.testing.assert_allclose(params.projection, before - 0.1)

    def test_dense_step_shape_check(self):
        params = init_encoder_params(self.CFG, seed=0)
        with pytest.raises(ValueError):
            encoder_gradient_step(params, np.ones((2, 2)), lr_small=0.1)

    def test_sparse_equals_dense(self):
        """apply_sparse_gradients must equal the dense step on a gradient
        that is the sum of per-example outer(weights, g)."""
        enc_a = sf.HashedNgramEncoder(self.CFG, seed=3)
        enc_b = sf.HashedNgramEncoder(self.CFG, seed=3)
        texts = ["sparse path test", "another row here"]
        rng = np.random.default_rng(0)
        gs = [rng.standard_normal(4) for _ in texts]
        feats = [enc_a.features(t) for t in texts]

        dense = np.zeros_like(enc_b.params.projection)
        for (idx, weights), g in zip(feats, gs):
            for j, w in zip(idx, weights):
                dense[j] += w * g
        encoder_gradient_step(enc_b.params, dense, lr_small=0.05)

        enc_a.apply_sparse_gradients(feats, gs, lr_small=0.05)
        np.testing.assert_allclose(enc_a.params.projection,
                                   enc_b.params.projection, atol=1e-15)

    def test_finite_difference_through_projection(self):
        """d(loss)/d(projection) via the sparse path vs central differences
        on a scalar loss = v . encode(text)."""
        enc = sf.HashedNgramEncoder(self.CFG, seed=5)
        text = "gradient check text"
        idx, weights = enc.features(text)
        v = np.arange(1.0, 5.0)  # fixed linear functional

        g = v.copy()  # d(v . e)/d e
        h = 1e-6
        for pos, (j, w) in enumerate(zip(idx.tolist(), weights.tolist())):
            for col in range(4):
                analytic = w * g[col]
                orig = enc.params.projection[j, col]
                enc.params.projection[j, col] = orig + h
                up = float(v @ enc.encode(text))
                enc.params.projection[j, col] = orig - h
                down = float(v @ enc.encode(text))
                enc.params.projection[j, col] = orig
                fd = (up - down) / (2 * h)
                assert abs(analytic - fd) < 1e-6, (pos, col)

    def test_sparse_skips_empty_rows(self):
        enc = sf.HashedNgramEncoder(self.CFG, seed=1)
        before = enc.params.projection.copy()
        enc.apply_sparse_gradients([enc.features("")], [np.ones(4)],
                                   lr_small=0.5)
        np.testing.assert_array_equal(enc.params.projection, before)


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
        assert sf.EncoderConfig.from_dict(doc) == cfg


class TestFrozenLookupEncoder:
    def test_lookup_and_unknown(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("hello\t1.0\t2.0\nworld\t-0.5\t0.25\n",
                        encoding="utf-8")
        enc = sf.load_precomputed_embeddings(str(path))
        assert enc.dim == 2
        assert enc.trainable is False
        np.testing.assert_array_equal(enc.encode("hello"), [1.0, 2.0])
        with pytest.raises(sf.UnknownTextError, match="missing"):
            enc.encode("missing")

    def test_missing_file(self):
        with pytest.raises(sf.DataError):
            sf.load_precomputed_embeddings("/nonexistent/emb.tsv")

    def test_ragged_dimensions(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1.0\t2.0\nb\t3.0\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="dimension"):
            sf.load_precomputed_embeddings(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tone\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="non-numeric"):
            sf.load_precomputed_embeddings(str(path))

    def test_missing_values_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("justtext\n", encoding="utf-8")
        with pytest.raises(sf.DataError):
            sf.load_precomputed_embeddings(str(path))

    def test_duplicate_text_last_wins(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\t1.0\na\t9.0\n", encoding="utf-8")
        enc = sf.load_precomputed_embeddings(str(path))
        np.testing.assert_array_equal(enc.encode("a"), [9.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.tsv"
        path.write_text("a\t1.0\n\nb\t2.0\n", encoding="utf-8")
        enc = sf.load_precomputed_embeddings(str(path))
        assert set(enc.table) == {"a", "b"}
