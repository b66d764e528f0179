"""Text encoders: the trainable hashed n-gram encoder and a frozen
precomputed-embedding lookup.

The trainable encoder maps lowercased character n-grams through a
64-bit FNV-1a hash into `buckets` counting bins, L1-normalizes the counts,
and multiplies by a trainable (buckets, dim) projection that starts as a
seeded ±1 sign matrix (`sign_init`), or as zeros. The encoder holds that
projection the way a model file stores it: its start, plus a store of
rows. A buckets-long int32 slot map (4 bytes per bucket) gives each
stored row's slot in a (stored, dim) float64 row array, written once: by
the constructor from a load's rows, or by a fit in a fresh encoder.
Embedding only reads the store and takes every other row from its start
(`sign_init` of its row id), so memory grows with the rows trained or
loaded, not with `buckets` or with the texts predicted. Texts are
featurized in chunks bounded by a row count and a UTF-8 byte budget, and
training reuses per-fit batch buffers sized by the largest batch. It is
the desk-scale stand-in for a transformer backbone: it produces a dense
embedding and receives gradient updates at the small learning rate. Real
transformer vectors can be substituted via the frozen lookup encoder.
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import DictCodec, read_vector_table
from .errors import (ConfigurationError, DataError, RunStateError,
                     UnknownTextError)

# FNV-1a, 64-bit.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


# SplitMix64 (Steele, Lea and Flood 2014): the state increment and the two
# multipliers of the output mix.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB


# Float64 values of sign_init made per pass, 512 KiB: a whole init holds
# one such block of rows beside its output.
_INIT_BLOCK_VALUES = 2 ** 16


def _init_row_blocks(n: int, dim: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [a, b) covering [0, n), each of at most
    _INIT_BLOCK_VALUES values of `dim` columns (at least one row)."""
    step = max(1, _INIT_BLOCK_VALUES // dim)
    for a in range(0, n, step):
        yield a, min(a + step, n)


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) \
            or not 0 <= seed <= _U64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _splitmix_words(seed: int, ids: np.ndarray, n_words: int) -> np.ndarray:
    """The (len(ids), n_words) uint64 words of rows `ids` of a start: word
    w of row b is SplitMix64 of seed + (b * n_words + w + 1) *
    0x9E3779B97F4A7C15, in wrapping uint64 arithmetic only, so every numpy
    version yields the same words."""
    z = ids.astype(np.uint64)[:, None] * np.uint64(n_words) \
        + np.arange(1, n_words + 1, dtype=np.uint64)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SPLITMIX_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SPLITMIX_M2)
    z ^= z >> np.uint64(31)
    return z


def sign_init(seed: int, buckets: int, dim: int, *,
              rows: np.ndarray | None = None) -> np.ndarray:
    """The (buckets, dim) float64 matrix of ±1, or the rows of it whose ids
    `rows` lists (in any order, repeats allowed). Entry (b, c) is +1 where
    bit c % 64 of word c // 64 of row b of `_splitmix_words`, with
    ceil(dim / 64) words a row, is set. `seed` is an integer in [0, 2**64).

    A sign random projection preserves distances as well as a Gaussian one
    (Achlioptas 2003), and this one is defined here bit for bit, so a model
    file can store the seed in place of the rows training left alone, and
    an encoder can make any row from its id when a text touches it.
    The rows are made one `_init_row_blocks` block at a time, so beside its
    output a call holds its row ids and one block's words and bits.
    """
    _check_seed(seed)
    if rows is None:
        ids = np.arange(buckets, dtype=np.int64)
    else:
        ids = np.asarray(rows)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError("rows must be a 1-d integer array")
        if ids.size and not (ids.min() >= 0 and ids.max() < buckets):
            raise ValueError(f"row ids must lie in [0, {buckets})")
    out = np.empty((ids.size, dim))
    for a, b in _init_row_blocks(ids.size, dim):
        words = _splitmix_words(seed, ids[a:b], -(-dim // 64)).astype(
            "<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), axis=1, count=dim,
                             bitorder="little")
        block = out[a:b]
        np.multiply(bits, 2.0, out=block)
        block -= 1.0
    return out


@functools.lru_cache(maxsize=8)
def _init_sha256(seed: int, buckets: int, dim: int) -> str:
    """The sha256 of the little-endian words of sign_init(seed, buckets,
    dim), row by row, hashed one `_init_row_blocks` block at a time. It
    depends only on its arguments, so a process makes it once per start."""
    digest = hashlib.sha256()
    for a, b in _init_row_blocks(buckets, dim):
        words = _splitmix_words(seed, np.arange(a, b), -(-dim // 64))
        digest.update(words.astype("<u8", copy=False).tobytes())
    return digest.hexdigest()


def _empty_slot_map(buckets: int) -> np.ndarray:
    """A slot map of `buckets` int32 -1s (no row stored). A size that
    cannot be allocated is a ConfigurationError naming it, not a numpy
    MemoryError."""
    try:
        return np.full(buckets, -1, dtype=np.int32)
    except MemoryError:
        raise ConfigurationError(
            f"the encoder slot map, buckets = {buckets} int32 values "
            f"({4 * buckets} bytes), cannot be allocated") from None


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of `ids`, ascending (np.unique would import
    numpy.ma, which a fit, save, load and predict leave unloaded)."""
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _grown_size(size: int) -> int:
    """`size` rounded up to a power of two: a buffer grown to it is
    reallocated a few times as it grows, and the freed sizes leave few
    heap holes."""
    return 1 << (size - 1).bit_length()


@dataclass(frozen=True)
class EncoderConfig(DictCodec):
    """Settings for the hashed n-gram encoder.

    lr_small is the backbone learning rate; the fusion head trains at a
    higher one.
    """

    dim: int = 64
    ngram_sizes: tuple[int, ...] = (3, 4)
    buckets: int = 2 ** 15
    lr_small: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.buckets < self.dim:
            raise ConfigurationError("buckets must be >= dim")
        if not self.lr_small > 0:
            raise ConfigurationError("lr_small must be > 0")
        if not self.ngram_sizes or any(n < 1 for n in self.ngram_sizes):
            raise ConfigurationError(
                "ngram_sizes needs at least one size >= 1")
        # Both are int64 values in featurize and the slot map.
        if self.buckets >= 2 ** 63:
            raise ConfigurationError("buckets must be < 2**63")
        if any(n >= 2 ** 63 for n in self.ngram_sizes):
            raise ConfigurationError("ngram_sizes must each be < 2**63")


def featurize(text: str, cfg: EncoderConfig) -> dict[int, int]:
    """Hashed character n-gram counts over the lowercased text.

    Deterministic; empty text yields the empty map. Lowercasing is the only
    normalization applied. Bucket collisions are permitted and harmless.
    """
    lowered = text.lower()
    counts: dict[int, int] = {}
    for n in cfg.ngram_sizes:
        for i in range(len(lowered) - n + 1):
            gram = lowered[i:i + n]
            bucket = fnv1a64(gram.encode("utf-8")) % cfg.buckets
            counts[bucket] = counts.get(bucket, 0) + 1
    return counts


# Rows and UTF-8 text bytes featurized per bulk pass. The per-gram
# intermediates of a pass take about 150-180 bytes per text byte at the
# default n-gram sizes, so a pass of 128 KiB of text peaks near 23 MiB
# however long its texts are; a longer text is a pass of its own.
_FEATURIZE_CHUNK_ROWS = 256
_FEATURIZE_CHUNK_BYTES = 2 ** 17

# Projection values (float64) gathered per stacked product in
# embed_features: 8 MiB, so rows of equal entry count embed in bounded
# memory however many and however long they are.
_EMBED_BLOCK_VALUES = 2 ** 20


@dataclass(frozen=True)
class CsrRows:
    """L1-normalized hashed n-gram features of several texts, row-compressed.

    Row i holds buckets idx[indptr[i]:indptr[i+1]] (int64, in order of first
    occurrence) with weights w[...] (float64, summing to 1 for a non-empty
    row); an empty or too-short text is an empty row.
    """

    indptr: np.ndarray
    idx: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.idx[a:b], self.w[a:b]

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def __getitem__(self, rows: np.ndarray) -> "CsrRows":
        """feats[rows]: the given rows, in the given order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrRows(indptr, self.idx[pos], self.w[pos])


def _gram_keys(lowered: list[str],
               cfg: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """The key row * buckets + bucket (int64) of every n-gram of the
    lowercased texts in featurize's order (by row, then size in cfg order,
    then position), and each row's n-gram count."""
    n_chars = np.fromiter(map(len, lowered), dtype=np.int64,
                          count=len(lowered))
    data = np.frombuffer("".join(lowered).encode("utf-8"), dtype=np.uint8)
    # Byte offset of every character (its UTF-8 lead byte), plus the end.
    bounds = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    # Row r has per_size[r, s] grams of size s, one at each of its first
    # characters, and the first of them has rank first_rank[r, s].
    per_size = np.maximum(
        n_chars[:, None] - np.array(cfg.ngram_sizes, dtype=np.int64) + 1, 0)
    first_rank = np.cumsum(per_size).reshape(per_size.shape) - per_size
    row_first_char = np.cumsum(n_chars) - n_chars
    spans = []  # per size: its grams' start bytes, byte lengths and ranks
    for s, n in enumerate(cfg.ngram_sizes):
        count = per_size[:, s]
        before = np.cumsum(count) - count
        at = np.arange(int(count.sum()))
        pos = at + np.repeat(row_first_char - before, count)
        start = bounds[pos]
        length = bounds[pos + n] - start
        if length.size:
            spans.append((start, length,
                          at + np.repeat(first_rank[:, s] - before, count),
                          int(length.min()), int(length.max())))
    # One rolling FNV-1a pass for every size: after step k, h[b] is the hash
    # of the k bytes from offset b, so a gram's hash is h at its start byte
    # at the step its byte length is reached; a size whose grams are all one
    # byte length (ASCII text) records them all at one step. uint64
    # arithmetic wraps like the & _U64 mask.
    grams_per_row = per_size.sum(axis=1)
    hashes = np.empty(int(grams_per_row.sum()), dtype=np.uint64)
    h = np.full(data.size, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for k in range(1, max((hi for *_, hi in spans), default=0) + 1):
        h[:data.size - k + 1] ^= data[k - 1:]
        h[:data.size - k + 1] *= prime
        for start, length, rank, lo, hi in spans:
            if lo <= k <= hi:
                sel = slice(None) if lo == hi else np.flatnonzero(length == k)
                hashes[rank[sel]] = h[start[sel]]
    keys = np.repeat(np.arange(len(lowered)) * cfg.buckets, grams_per_row)
    keys += (hashes % np.uint64(cfg.buckets)).astype(np.int64)
    return keys, grams_per_row


def _featurize_chunk(texts: Sequence[str], cfg: EncoderConfig) -> CsrRows:
    n_rows = len(texts)
    keys, grams_per_row = _gram_keys([t.lower() for t in texts], cfg)
    # Count each key with one unstable sort. A key's smallest rank is its
    # first occurrence, and its row's entries are the first occurrences in
    # rank order, which is featurize's order.
    order = np.argsort(keys)
    ordered = keys[order]
    new_key = np.empty(keys.size, dtype=bool)
    new_key[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_key[1:])
    group = np.flatnonzero(new_key)
    count_at = np.zeros(keys.size, dtype=np.int64)
    count_at[np.minimum.reduceat(order, group)] = np.diff(
        np.append(group, keys.size))
    entries = np.flatnonzero(count_at)
    entry_keys = keys[entries]
    entry_row = entry_keys // cfg.buckets
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_row, minlength=n_rows), out=indptr[1:])
    return CsrRows(indptr, entry_keys - entry_row * cfg.buckets,
                   count_at[entries] / grams_per_row[entry_row])


def _text_chunks(texts: Sequence[str]) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [a, b) covering the texts (one empty range
    when there are none), each of at most _FEATURIZE_CHUNK_ROWS texts and
    _FEATURIZE_CHUNK_BYTES UTF-8 bytes, or one longer text alone."""
    ends = np.cumsum(np.fromiter(map(len, map(str.encode, texts)),
                                 dtype=np.int64, count=len(texts)))
    a = 0
    while True:
        budget = (ends[a - 1] if a else 0) + _FEATURIZE_CHUNK_BYTES
        b = int(np.searchsorted(ends, budget, side="right"))
        b = min(max(b, a + 1), a + _FEATURIZE_CHUNK_ROWS, len(texts))
        yield a, b
        a = b
        if a >= len(texts):
            return


def featurize_rows(texts: Sequence[str], cfg: EncoderConfig) -> CsrRows:
    """featurize for many texts at once, L1-normalized into CSR rows.

    Row i equals featurize(texts[i]) element for element: the same buckets
    in the same order, with weights counts / counts.sum().
    """
    parts = [_featurize_chunk(texts[a:b], cfg) for a, b in _text_chunks(texts)]
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(p.indptr) for p in parts]),
              out=indptr[1:])
    return CsrRows(indptr, np.concatenate([p.idx for p in parts]),
                   np.concatenate([p.w for p in parts]))


class HashedNgramEncoder:
    """Trainable encoder object used by the pipeline.

    Embedding = L1-normalized n-gram counts times the projection matrix;
    empty text maps to the zero vector. Texts are featurized in bulk into
    CsrRows. A training step works on a TrainingBatch and touches only the
    buckets the batch uses, never materializing a dense (buckets, dim)
    gradient.

    The projection is held as its start, `sign_init(init_seed)` or zeros
    when `init_seed` is None, plus a row store: `_slot[b]` is the slot of
    bucket b's row in `_rows`, or -1 while that row is at its start; slots
    ascend with buckets. The constructor (a load) or `training_batches` (a
    fit, on an encoder storing no rows) writes the row set once, and a
    training step updates it in place. Embedding only reads the encoder, so
    several threads may embed at once; a fit and a training step write it
    and must not run beside other calls on the same encoder.
    """

    def __init__(self, cfg: EncoderConfig, seed: int | None = 0,
                 stored: tuple[np.ndarray, np.ndarray] | None = None):
        """The projection starts as `sign_init(seed, buckets, dim)`, or as
        zeros when `seed` is None, and `init_seed` records that start, so a
        model file stores only the rows that moved from it. `stored`, a
        load's `(ids, rows)`, is held as the store, not copied: ids 1-d
        integers, strictly increasing and in [0, buckets), rows (len(ids),
        dim), else a ValueError; `stored=enc.stored_rows()` rebuilds `enc`.
        A slot map too large to allocate is a ConfigurationError."""
        if seed is not None:
            _check_seed(seed)
        self.cfg = cfg
        self.init_seed = seed
        self._slot = _empty_slot_map(cfg.buckets)
        self._rows = np.empty((0, cfg.dim))
        if stored is not None:
            ids = np.asarray(stored[0])
            rows = np.asarray(stored[1], dtype=np.float64)
            if ids.ndim != 1 or ids.dtype.kind not in "iu" \
                    or (ids[1:] <= ids[:-1]).any():
                raise ValueError("stored ids must be 1-d integers, strictly "
                                 "increasing")
            if ids.size and not (ids[0] >= 0 and ids[-1] < cfg.buckets):
                raise ValueError(f"stored ids must lie in [0, {cfg.buckets})")
            if rows.shape != (ids.size, cfg.dim):
                raise ValueError(f"stored rows have shape {rows.shape}, "
                                 f"expected {(ids.size, cfg.dim)}")
            self._slot[ids] = np.arange(ids.size)
            self._rows = rows

    @property
    def dim(self) -> int:
        return self.cfg.dim

    @property
    def lr_small(self) -> float:
        return self.cfg.lr_small

    @property
    def projection(self) -> np.ndarray:
        """The whole (buckets, dim) projection, built on demand, read-only:
        the start with the stored rows written over it. The encoder's own
        paths never build it."""
        out = self._start_rows(np.arange(self.cfg.buckets))
        out[self._slot >= 0] = self._rows
        out.flags.writeable = False
        return out

    def stored_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The buckets whose rows are in the store, ascending (their slot
        order), and a copy of those rows; every other row is at its start."""
        return np.flatnonzero(self._slot >= 0), self._rows.copy()

    @property
    def init_sha256(self) -> str | None:
        """The digest of the start a model file records, `_init_sha256` of
        `init_seed`, or None for a zero start."""
        if self.init_seed is None:
            return None
        return _init_sha256(self.init_seed, self.cfg.buckets, self.cfg.dim)

    def moved_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The projection rows that differ from the start: their bucket
        ids, ascending, and their values. Only a stored row can differ;
        each is compared with its start as uint64 bits, so a -0.0 entry
        counts as a change."""
        ids, rows = self.stored_rows()
        moved = (rows.view(np.uint64)
                 != self._start_rows(ids).view(np.uint64)).any(axis=1)
        return ids[moved], rows[moved]

    def _start_rows(self, ids: np.ndarray) -> np.ndarray:
        """The start's rows of buckets `ids`, zeros or `sign_init` of these
        ids."""
        if self.init_seed is None:
            return np.zeros((ids.size, self.cfg.dim))
        return sign_init(self.init_seed, self.cfg.buckets, self.cfg.dim,
                         rows=ids)

    def features(self, texts: Sequence[str]) -> CsrRows:
        return featurize_rows(texts, self.cfg)

    def embed_features(self, feats: CsrRows) -> np.ndarray:
        """(len(feats), dim) embeddings: row i is `w @ P[idx]` over its
        entries, the zero vector for an empty row. The store is only read:
        when a bucket has no stored row, the call gathers from a table of
        its own, the rows of the buckets it touches, each stored row or
        start row once.

        The R rows with the same entry count L are computed together, as
        one stacked (R, 1, L) @ (R, L, dim) matmul per block of at most
        _EMBED_BLOCK_VALUES gathered projection values. numpy hands each
        stacked item to the gemv the per-row product calls, so the bits are
        the per-row product's, which saved models were trained and checked
        with; a gather-reduce such as np.add.reduceat rounds differently.
        """
        dim = self.cfg.dim
        slots = self._slot[feats.idx]
        table = self._rows
        if slots.size and slots.min() < 0:
            ids = _distinct(feats.idx)
            slots = np.searchsorted(ids, feats.idx)
            at = self._slot[ids]
            stored = at >= 0
            table = np.empty((ids.size, dim))
            table[stored] = self._rows[at[stored]]
            table[~stored] = self._start_rows(ids[~stored])
        out = np.zeros((len(feats), dim))
        lengths = np.diff(feats.indptr)
        rows = np.argsort(lengths)
        rows = rows[np.count_nonzero(lengths == 0):]
        n_entries = lengths[rows].tolist()
        a = 0
        while a < rows.size:
            n = n_entries[a]
            b = min(a + max(1, _EMBED_BLOCK_VALUES // (n * dim)),
                    bisect_right(n_entries, n, a))
            block = rows[a:b]
            at = feats.indptr[block][:, None] + np.arange(n)
            out[block] = np.matmul(feats.w[at][:, None, :],
                                   table[slots[at]])[:, 0]
            a = b
        return out

    def encode(self, text: str) -> np.ndarray:
        return self.encode_batch([text])[0]

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        """embed_features(features(texts)), featurized and embedded one
        chunk of texts at a time, so memory stays bounded by the chunk."""
        out = np.empty((len(texts), self.cfg.dim))
        for a, b in _text_chunks(texts):
            # Bound to a name, a chunk's features live until the next
            # chunk's are built; as a temporary, freeing them let malloc
            # trim its heap, and every chunk page-faulted it back in.
            feats = self.features(texts[a:b])
            out[a:b] = self.embed_features(feats)
        return out

    def training_batches(self, feats: CsrRows) -> "TrainingBatches":
        """A TrainingBatch builder over the rows of one fit's features.

        Stores the fit vocabulary, found with a mask over the buckets, at
        its start rows in ascending bucket order, so the sorted slots of a
        batch's buckets are in bucket order. The features' buckets are
        mapped to their int32 slots once per fit. An encoder that already
        stores rows is a RunStateError: a fit starts from a fresh one, and
        a store that cannot be allocated is a ConfigurationError naming its
        size, not a numpy MemoryError."""
        if self._rows.shape[0]:
            raise RunStateError("a fit needs an encoder that stores no rows")
        mask = np.zeros(self.cfg.buckets, dtype=bool)
        mask[feats.idx] = True
        vocabulary = np.flatnonzero(mask)
        try:
            self._rows = self._start_rows(vocabulary)
        except MemoryError:
            raise ConfigurationError(
                f"the encoder row store, {vocabulary.size} rows of dim "
                f"{self.cfg.dim} ({8 * vocabulary.size * self.cfg.dim} "
                "bytes), cannot be allocated") from None
        self._slot[vocabulary] = np.arange(vocabulary.size)
        return TrainingBatches(
            CsrRows(feats.indptr, self._slot[feats.idx], feats.w), self)

    def embed_batch(self, batch: "TrainingBatch",
                    out: np.ndarray | None = None) -> np.ndarray:
        """(len(batch), dim) embeddings of a training batch, M @ P[u],
        written into `out` when given.

        Equals embed_features on the same rows up to round-off: the sum runs
        over the sorted touched buckets, with zeros where a row lacks one.
        """
        return np.matmul(batch.weights, batch.projection_rows, out=out)

    def apply_sparse_gradients(self, batch: "TrainingBatch",
                               embedding_grads: np.ndarray) -> None:
        """SGD step at lr_small from per-example embedding grads (B, dim).

        dL/dP[b, :] = sum over rows r of weight_rb * dL/d(embedding_r); the
        embedding grads must already carry any 1/batch factor from the loss.
        With the batch's (B, U) weight matrix M over its touched buckets u,
        the whole step is P[u] -= lr_small * (M.T @ G), computed from the
        rows P[u] the batch read when it was built, in the batch's `step`.
        """
        step = np.matmul(batch.weights.T, embedding_grads, out=batch.step)
        step *= self.lr_small
        np.subtract(batch.projection_rows, step, out=step)
        self._rows[batch.touched] = step


@dataclass(frozen=True)
class TrainingBatch:
    """Some rows of CsrRows as a dense weight matrix over the buckets they
    touch, with the projection rows of those buckets.

    touched holds the store slots of those buckets, sorted and each once,
    which is their bucket order (see `training_batches`); weights[r, c] is
    row r's weight on the bucket of slot touched[c], 0 where the row lacks
    it; projection_rows is those rows as read at build time, and step is
    room of the same shape for the update. The embedding and the update of
    one training step share them, and the next batch built reuses their
    memory, so a batch must be applied before the next one is built.
    """

    touched: np.ndarray
    weights: np.ndarray
    projection_rows: np.ndarray
    step: np.ndarray

    def __len__(self) -> int:
        return self.weights.shape[0]


class TrainingBatches:
    """Builds TrainingBatch values from the rows of one fit's features,
    whose entries are the int32 store slots of the encoder's fit vocabulary.

    The touched slots are found without a sort: a boolean mask over the
    stored rows, allocated once and all-False again after every batch, is
    set at the batch's entries and read back with flatnonzero. A batch's
    weights, projection rows and step are contiguous views of flat buffers
    that grow to hold the largest batch built and are then reused, so a fit
    does not allocate (and page-fault in) fresh arrays every batch.
    """

    def __init__(self, feats: CsrRows, encoder: HashedNgramEncoder):
        self.feats = feats
        self.encoder = encoder
        self._mask = np.zeros(len(encoder._rows), dtype=bool)
        self._column = np.zeros(len(encoder._rows), dtype=np.int64)
        self._buffers = {name: np.empty(0)
                         for name in ("weights", "rows", "step")}

    def _buffer(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """The first shape[0] * shape[1] values of a grow-only buffer, as
        a C-contiguous array of that shape."""
        size = shape[0] * shape[1]
        if self._buffers[name].size < size:
            self._buffers[name] = np.empty(_grown_size(size))
        return self._buffers[name][:size].reshape(shape)

    def __call__(self, rows: np.ndarray) -> TrainingBatch:
        """The given rows of the features, in the given order."""
        picked = self.feats[rows]
        # numpy indexes with intp arrays faster than with the int32 slots.
        slots = picked.idx.astype(np.intp)
        self._mask[slots] = True
        touched = np.flatnonzero(self._mask)
        self._mask[touched] = False
        self._column[touched] = np.arange(touched.size)
        weights = self._buffer("weights", (len(picked), touched.size))
        weights.fill(0.0)
        weights[picked.row_ids(), self._column[slots]] = picked.w
        shape = (touched.size, self.encoder.cfg.dim)
        # touched lies in range by construction; mode="raise" would write
        # through a temporary copy of `out`.
        projection_rows = np.take(self.encoder._rows, touched, axis=0,
                                  out=self._buffer("rows", shape), mode="clip")
        return TrainingBatch(touched, weights, projection_rows,
                             self._buffer("step", shape))


class FrozenLookupEncoder:
    """Frozen encoder backed by a text -> embedding table.

    Querying a text absent from the table is an error naming the text. In
    training its features are the (n, dim) embeddings, a batch is some of
    their rows, and the update does nothing.
    """

    lr_small = 0.0

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.table = table
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def encode(self, text: str) -> np.ndarray:
        try:
            return self.table[text]
        except KeyError:
            raise UnknownTextError(
                f"unknown text for frozen encoder: {text!r}"
            ) from None

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([self.encode(t) for t in texts]).reshape(
            len(texts), self._dim)

    features = encode_batch

    def training_batches(self, feats: np.ndarray):
        return feats.__getitem__

    def embed_features(self, feats: np.ndarray) -> np.ndarray:
        return feats

    def embed_batch(self, batch: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return batch
        out[...] = batch
        return out

    def apply_sparse_gradients(self, batch, embedding_grads) -> None:
        """Frozen: no update."""


def load_precomputed_embeddings(path: str) -> FrozenLookupEncoder:
    """A frozen lookup encoder from a `read_vector_table` file of text and
    embedding rows; `dim` is the row width. A file with no rows is a
    DataError."""
    table = read_vector_table(path)
    if not table:
        raise DataError(f"{path}: no embedding rows")
    return FrozenLookupEncoder(table, next(iter(table.values())).size)
