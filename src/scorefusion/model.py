"""The trained model and its file format.

A model file is one JSON document, keys sorted, with no timestamps or
environment fields: saving the same model twice yields identical bytes,
and load(save(m)) predicts bit-identically. Every float array is one
base64 string of its little-endian float64 bytes. Format 3 stores a hashed
encoder's projection as its start, `sign_init(init_seed)` (zeros when
`init_seed` is null), plus the rows that differ from it bitwise; training
moves only the rows its texts touch, so the file grows with the fit
vocabulary, not the bucket count. Formats 2 (the whole projection in
base64) and 1 (JSON lists of repr floats) are still read.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

import numpy as np

from .core import LabelSchema, TaskMode, atomic_write_text
from .encoder import (
    EncoderConfig,
    FrozenLookupEncoder,
    HashedNgramEncoder,
    sign_init_words,
)
from .errors import ConfigurationError, DataError, ModelFormatError
from .fusion import FusionConfig, FusionParams
from .llm import PROMPT_TEMPLATE_VERSION, ProviderConfig

MODEL_FORMAT_VERSION = 3


@dataclass
class FusionModel:
    """A trained classifier: encoder state + provider list + fusion head.

    The head's input is [embedding | P*K provider scores]; with no providers
    the model is the encoder-only baseline.
    """

    schema: LabelSchema
    mode: TaskMode
    encoder: Union[HashedNgramEncoder, FrozenLookupEncoder]
    providers: tuple[ProviderConfig, ...]
    fusion_cfg: FusionConfig
    fusion_params: FusionParams

    def __post_init__(self):
        expected = self.encoder.dim + len(self.providers) * self.schema.K
        if self.fusion_params.input_dim != expected:
            raise ConfigurationError(
                f"fusion input width {self.fusion_params.input_dim} != "
                f"D + P*K = {expected}"
            )
        if self.fusion_params.output_dim != self.schema.K:
            raise ConfigurationError(
                f"fusion output width {self.fusion_params.output_dim} != "
                f"K = {self.schema.K}"
            )
        self.fusion_cfg.check_label_count(self.schema.K)
        hidden = tuple(w.shape[1] for w in self.fusion_params.weights[:-1])
        if hidden != self.fusion_cfg.hidden_sizes:
            raise ConfigurationError(
                f"fusion hidden_sizes {list(self.fusion_cfg.hidden_sizes)} != "
                f"the layers' widths {list(hidden)}"
            )


def _encode_array(a: np.ndarray) -> str:
    """The stored form of a float array: base64 of its flattened
    little-endian float64 bytes, exact for every bit pattern."""
    raw = np.asarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_array(value, version: int) -> np.ndarray:
    """A flat float64 array from its form in a file of `version`: a list
    of numbers in format 1, an `_encode_array` string from format 2 on."""
    if version == 1:
        if not isinstance(value, list):
            raise ModelFormatError(
                f"expected a list of numbers, got {type(value).__name__}")
        return np.asarray(value, dtype=np.float64)
    if not isinstance(value, str):
        raise ModelFormatError(
            f"expected a base64 string, got {type(value).__name__}")
    try:
        # validate=True rejects characters outside the alphabet, bad padding
        # and data after the padding; binascii.Error is a ValueError.
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        raise ModelFormatError(f"array is not valid base64: {exc}") from None
    if len(raw) % 8:
        raise ModelFormatError(
            f"array has {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _read_array(value, version: int, shape: tuple[int, ...]) -> np.ndarray:
    """A stored array as `shape`, checked: as many values as the shape
    holds, every one finite."""
    flat = _decode_array(value, version)
    if flat.size != math.prod(shape):
        raise ModelFormatError(f"array of shape {shape} has {flat.size} "
                               f"values, expected {math.prod(shape)}")
    if not np.isfinite(flat).all():
        raise ModelFormatError("model holds a non-finite weight")
    return flat.reshape(shape)


def _init_sha256(seed, cfg: EncoderConfig):
    """The sha256 of the little-endian words of `sign_init(seed)`, or None
    for the zero start."""
    if seed is None:
        return None
    words = sign_init_words(seed, cfg.buckets, cfg.dim)
    return hashlib.sha256(words.astype("<u8", copy=False).tobytes()).hexdigest()


def _encoder_to_doc(encoder) -> dict:
    if isinstance(encoder, HashedNgramEncoder):
        cfg, seed = encoder.cfg, encoder.init_seed
        start = HashedNgramEncoder(cfg, seed=seed).projection
        # Compared as bits, so a -0.0 entry counts as a change.
        projection = np.ascontiguousarray(encoder.projection, dtype=np.float64)
        rows = np.flatnonzero((projection.view(np.uint64)
                               != start.view(np.uint64)).any(axis=1))
        return {
            "kind": "hashed_ngram",
            **cfg.to_dict(),
            "init_seed": seed,
            "init_sha256": _init_sha256(seed, cfg),
            "rows": rows.tolist(),
            "projection_rows": _encode_array(projection[rows]),
        }
    if isinstance(encoder, FrozenLookupEncoder):
        return {
            "kind": "frozen_lookup",
            "dim": encoder.dim,
            "table": {text: _encode_array(vec)
                      for text, vec in encoder.table.items()},
        }
    raise ModelFormatError(f"unsupported encoder type {type(encoder).__name__}")


def _config_from_model_doc(cls, doc: dict, where: str):
    """A model file holds every config field (missing ones are an error)
    beside other keys."""
    return cls.from_dict({f.name: doc[f.name] for f in fields(cls)}, where)


def _hashed_encoder_from_rows(doc: dict, cfg: EncoderConfig,
                              version: int) -> HashedNgramEncoder:
    """A format-3 hashed encoder: its start, regenerated and checked
    against the recorded digest, with the stored rows written over it."""
    seed = doc["init_seed"]
    encoder = HashedNgramEncoder(cfg, seed=seed)
    if doc["init_sha256"] != _init_sha256(seed, cfg):
        raise ModelFormatError(
            f"init_sha256 {doc['init_sha256']!r} does not match the "
            f"regenerated init of init_seed {seed!r}")
    rows = doc["rows"]
    if type(rows) is not list or any(type(r) is not int for r in rows):
        raise ModelFormatError("rows must be a list of integers")
    if rows and not (0 <= min(rows) and max(rows) < cfg.buckets):
        raise ModelFormatError(f"rows must lie in [0, {cfg.buckets})")
    ids = np.array(rows, dtype=np.int64)
    if (np.diff(ids) <= 0).any():
        raise ModelFormatError("rows must be strictly increasing")
    encoder.projection[ids] = _read_array(doc["projection_rows"], version,
                                          (ids.size, cfg.dim))
    return encoder


def _encoder_from_model_doc(doc: dict, version: int):
    kind = doc["kind"]
    if kind == "hashed_ngram":
        cfg = _config_from_model_doc(EncoderConfig, doc, "encoder")
        if version >= 3:
            return _hashed_encoder_from_rows(doc, cfg, version)
        return HashedNgramEncoder(cfg, _read_array(
            doc["projection"], version, (cfg.buckets, cfg.dim)))
    if kind == "frozen_lookup":
        dim = doc["dim"]
        table = {text: _read_array(vec, version, (dim,))
                 for text, vec in doc["table"].items()}
        return FrozenLookupEncoder(table, dim)
    raise ModelFormatError(f"unknown encoder kind {kind!r}")


def save_model(model: FusionModel, path: Union[str, Path]) -> None:
    """Persist a model as a single self-contained JSON file, written to a
    temp file and renamed over `path`, so a failed save leaves any earlier
    file there intact."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "prompt_template_version": PROMPT_TEMPLATE_VERSION,
        "labels": list(model.schema.labels),
        "mode": model.mode.value,
        "providers": [p.to_dict() for p in model.providers],
        "encoder": _encoder_to_doc(model.encoder),
        "fusion": {
            **model.fusion_cfg.to_dict(),
            "layers": [
                {
                    "shape": list(w.shape),
                    "weight": _encode_array(w),
                    "bias": _encode_array(b),
                }
                for w, b in zip(model.fusion_params.weights,
                                model.fusion_params.biases)
            ],
        },
    }
    try:
        atomic_write_text(Path(path), json.dumps(doc, sort_keys=True))
    except OSError as exc:
        raise DataError(f"cannot write model file {path}: {exc}") from None


def load_model(path: Union[str, Path]) -> FusionModel:
    """Read a model file (format 1, 2 or 3) back; predictions match the
    saved model exactly.

    A format-3 hashed encoder is rebuilt from `sign_init(init_seed)`, which
    must hash to the recorded `init_sha256`, with the stored rows written
    over it. An encoder read from format 1 or 2 has `init_seed` None, so
    saving it again writes format 3 with every non-zero row.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise ModelFormatError(f"model file {path} is not valid JSON: {exc}") \
            from None
    try:
        version = doc["format_version"]
        if isinstance(version, bool) \
                or version not in (1, 2, MODEL_FORMAT_VERSION):
            raise ModelFormatError(
                f"model format version {version} unsupported "
                f"(expected 1, 2 or {MODEL_FORMAT_VERSION})"
            )
        # Format 1 predates the recorded prompt version.
        if version > 1 \
                and doc["prompt_template_version"] != PROMPT_TEMPLATE_VERSION:
            raise ModelFormatError(
                f"model was trained with prompt template version "
                f"{doc['prompt_template_version']!r}, but this scorefusion "
                f"prompts with version {PROMPT_TEMPLATE_VERSION}"
            )
        schema = LabelSchema(doc["labels"])
        mode = TaskMode(doc["mode"])
        providers = tuple(ProviderConfig.from_dict(p, "provider")
                          for p in doc["providers"])
        encoder = _encoder_from_model_doc(doc["encoder"], version)
        fdoc = doc["fusion"]
        fusion_cfg = _config_from_model_doc(FusionConfig, fdoc, "fusion")
        weights, biases = [], []
        for i, layer in enumerate(fdoc["layers"]):
            fan_in, fan_out = layer["shape"]
            if weights and fan_in != weights[-1].shape[1]:
                raise ModelFormatError(
                    f"layer {i} has fan-in {fan_in}, expected the previous "
                    f"layer's fan-out {weights[-1].shape[1]}")
            weights.append(_read_array(layer["weight"], version,
                                       (fan_in, fan_out)))
            biases.append(_read_array(layer["bias"], version, (fan_out,)))
        params = FusionParams(weights, biases)
        return FusionModel(schema, mode, encoder, providers,
                           fusion_cfg, params)
    except ModelFormatError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, IndexError,
            ConfigurationError) as exc:
        raise ModelFormatError(
            f"model file {path} is structurally invalid: {exc}"
        ) from None
