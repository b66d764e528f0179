"""Text encoders: the trainable hashed n-gram encoder and a frozen
precomputed-embedding lookup.

The trainable encoder maps lowercased character n-grams through a seeded
64-bit FNV-1a hash into `buckets` counting bins, L1-normalizes the counts,
and multiplies by a trainable projection matrix. It is the desk-scale
stand-in for a transformer backbone: it produces a dense embedding and
receives gradient updates at the small learning rate. Real transformer
vectors can be substituted via the frozen lookup encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DictCodec
from .errors import DataError, UnknownTextError

# FNV-1a, 64-bit. The seed is XORed into the offset basis; seed 0 (the fixed
# default) gives the standard FNV-1a stream.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

HASH_SEED = 0


def fnv1a64(data: bytes, seed: int = HASH_SEED) -> int:
    h = (_FNV_OFFSET ^ seed) & _U64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


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
        object.__setattr__(self, "ngram_sizes", tuple(self.ngram_sizes))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.buckets < self.dim:
            raise ValueError("buckets must be >= dim")
        if not self.lr_small > 0:
            raise ValueError("lr_small must be > 0")
        if not self.ngram_sizes or any(n < 1 for n in self.ngram_sizes):
            raise ValueError("ngram_sizes needs at least one size >= 1")


@dataclass
class EncoderParams:
    """Trainable projection matrix, shape (buckets, dim)."""

    projection: np.ndarray

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.projection.copy())


def init_encoder_params(cfg: EncoderConfig, seed: int) -> EncoderParams:
    """Random-projection style init: i.i.d. standard normal entries."""
    rng = np.random.default_rng(seed)
    return EncoderParams(rng.standard_normal((cfg.buckets, cfg.dim)))


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


def features_to_arrays(features: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """L1-normalized sparse view of a feature map: (bucket indices, weights).

    Weights sum to 1 for non-empty maps, so embedding scale is independent
    of text length.
    """
    if not features:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    idx = np.fromiter(features.keys(), dtype=np.int64, count=len(features))
    counts = np.fromiter(features.values(), dtype=np.float64, count=len(features))
    return idx, counts / counts.sum()


def encoder_gradient_step(params: EncoderParams, grads: np.ndarray,
                          lr_small: float) -> EncoderParams:
    """Plain gradient descent on the projection: P <- P - lr * grads."""
    if grads.shape != params.projection.shape:
        raise ValueError(
            f"gradient shape {grads.shape} does not match projection "
            f"{params.projection.shape}"
        )
    params.projection -= lr_small * grads
    return params


class HashedNgramEncoder:
    """Trainable encoder object used by the pipeline.

    Embedding = L1-normalized n-gram counts times the projection matrix;
    empty text maps to the zero vector. The sparse gradient path means the
    training loop never materializes a dense (buckets, dim) gradient. The
    sparse update is exactly equivalent to encoder_gradient_step on a dense
    gradient that is zero outside the touched buckets.
    """

    trainable = True

    def __init__(self, cfg: EncoderConfig, params: EncoderParams | None = None,
                 seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else init_encoder_params(cfg, seed)

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def features(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        return features_to_arrays(featurize(text, self.cfg))

    def embed_features(self, feats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        idx, weights = feats
        if idx.size == 0:
            return np.zeros(self.cfg.dim)
        return weights @ self.params.projection[idx]

    def encode(self, text: str) -> np.ndarray:
        return self.embed_features(self.features(text))

    def encode_batch(self, texts: list[str]) -> list[np.ndarray]:
        return [self.encode(t) for t in texts]

    def apply_sparse_gradients(
        self,
        feats_batch: list[tuple[np.ndarray, np.ndarray]],
        embedding_grads: list[np.ndarray],
        lr_small: float,
    ) -> None:
        """SGD step from per-example embedding gradients.

        Each row contributes dL/dP[b, :] = weight_b * dL/d(embedding); the
        embedding grads must already carry any 1/batch factor from the loss.
        Only buckets active in the batch are touched.
        """
        for (idx, weights), g in zip(feats_batch, embedding_grads):
            if idx.size == 0:
                continue
            self.params.projection[idx] -= lr_small * np.outer(weights, g)


class FrozenLookupEncoder:
    """Frozen encoder backed by a text -> embedding table.

    Receives no gradient updates; querying a text absent from the table is
    an error naming the text.
    """

    trainable = False

    def __init__(self, table: dict[str, np.ndarray], dim: int,
                 source_path: str | None = None):
        self.table = table
        self._dim = dim
        self.source_path = source_path

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

    def encode_batch(self, texts: list[str]) -> list[np.ndarray]:
        return [self.encode(t) for t in texts]


def load_precomputed_embeddings(path: str) -> FrozenLookupEncoder:
    """Load a frozen lookup encoder from a TSV file.

    Format: UTF-8, one record per line, tab-separated: the text, then `dim`
    floats in decimal. All rows must share one dimension. Duplicate texts are
    legal; the last record wins.
    """
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    raise DataError(
                        f"{path}:{lineno}: expected text plus at least one value"
                    )
                text = parts[0]
                try:
                    values = np.array([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
                if not np.all(np.isfinite(values)):
                    raise DataError(f"{path}:{lineno}: non-finite embedding value")
                if dim is None:
                    dim = values.size
                elif values.size != dim:
                    raise DataError(
                        f"{path}:{lineno}: dimension {values.size} differs from "
                        f"earlier rows ({dim})"
                    )
                table[text] = values
    except FileNotFoundError:
        raise DataError(f"embedding file not found: {path}") from None
    if dim is None:
        raise DataError(f"{path}: no embedding rows")
    return FrozenLookupEncoder(table, dim, source_path=path)
