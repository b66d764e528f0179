"""The trained model, the config it carries, and its file format.

A `FusionModel` is the `AutoFusionConfig` it was trained with, the
encoder's state and the fusion head. A model file is one JSON document,
keys sorted, with no timestamps or environment fields: saving the same
model twice yields identical bytes, and load(save(m)) predicts
bit-identically. Format 4 stores `config.to_dict()` under `config`; the
`encoder` and `fusion` sections hold only state. Every float array is one
base64 string of its little-endian float64 bytes. A hashed encoder's
projection is stored as its start, `init_seed` with the digest the encoder
gives (`init_sha256`; zeros when `init_seed` is null), plus the rows the
encoder reports as moved from it bitwise; training moves only the rows its
texts touch, so the file grows with the fit vocabulary, not the bucket
count. Loading checks the rows and the digest, then stores the file's rows
and no other, so neither save nor load allocates a (buckets, dim) array.
Formats 3 (the config in pieces), 2 (the whole projection in base64) and
1 (JSON lists of repr floats) are still read, the last two as a zero
start plus their non-zero rows; a config field they never stored takes
its default, and a frozen encoder's path, which they never stored, reads
as a path saying so.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    DictCodec,
    LabelSchema,
    NonEmptyPath,
    NonEmptyStr,
    TaskMode,
    atomic_write_text,
    check_value,
)
from .encoder import EncoderConfig, FrozenLookupEncoder, HashedNgramEncoder
from .errors import ConfigurationError, DataError, ModelFormatError
from .fusion import FusionConfig, FusionParams
from .llm import PROMPT_TEMPLATE_VERSION, ProviderConfig

MODEL_FORMAT_VERSION = 4


@dataclass(frozen=True)
class AutoFusionConfig(DictCodec):
    """Everything needed to train and apply one fusion classifier.

    `encoder` is either hashed-n-gram settings (trainable) or a path to a
    precomputed-embedding TSV (frozen). With no `llm_providers`, the
    default, the model is the encoder-only baseline.
    """

    label_columns: tuple[str, ...] = ()
    multi_label: bool = False
    llm_providers: tuple[ProviderConfig, ...] = ()
    encoder: Union[EncoderConfig, str] = field(default_factory=EncoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    cache_dir: Optional[str] = None
    cache_policy: str = "strict"
    validation_fraction: float = 0.1
    text_column: NonEmptyStr = "text"

    def __post_init__(self):
        if isinstance(self.label_columns, str):
            raise ConfigurationError(
                "label_columns must be a list of column names, got the "
                f"string {self.label_columns!r}"
            )
        # Before the field types, so a label YAML read as a bool gets a hint.
        if isinstance(self.label_columns, (list, tuple)):
            try:
                LabelSchema(self.label_columns)
            except ValueError as exc:
                raise ConfigurationError(f"label_columns: {exc}") from None
        super().__post_init__()
        self.fusion.check_label_count(len(self.label_columns))
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must lie in [0, 1)")
        if self.cache_policy not in ("strict", "warn"):
            raise ConfigurationError(
                f"cache_policy must be 'strict' or 'warn', got {self.cache_policy!r}"
            )

    @property
    def schema(self) -> LabelSchema:
        return LabelSchema(self.label_columns)

    @property
    def mode(self) -> TaskMode:
        return TaskMode.from_multi_label(self.multi_label)

    def to_dict(self) -> dict:
        doc = super().to_dict()
        if isinstance(self.encoder, str):
            doc["encoder"] = {"precomputed_path": self.encoder}
        return doc

    @classmethod
    def from_dict(cls, doc, where: str):
        """Also reads the `{precomputed_path: P}` encoder to_dict writes."""
        enc = doc.get("encoder") if isinstance(doc, dict) else None
        if isinstance(enc, dict) and "precomputed_path" in enc:
            if len(enc) > 1:
                raise ConfigurationError(
                    "encoder.precomputed_path excludes other encoder keys")
            doc = {**doc, "encoder": check_value(
                "encoder.precomputed_path", NonEmptyPath,
                enc["precomputed_path"])}
        return super().from_dict(doc, where)


@dataclass
class FusionModel:
    """A trained classifier: the config it was trained with, the encoder's
    state and the fusion head.

    The head's input is [embedding | P*K provider scores]; with no providers
    the model is the encoder-only baseline. A hashed encoder's settings are
    `config.encoder`; a frozen one's `config.encoder` is its table's path.
    """

    config: AutoFusionConfig
    encoder: Union[HashedNgramEncoder, FrozenLookupEncoder]
    fusion_params: FusionParams

    @property
    def schema(self) -> LabelSchema:
        return self.config.schema

    @property
    def mode(self) -> TaskMode:
        return self.config.mode

    def __post_init__(self):
        cfg, k = self.config, self.schema.K
        if not (cfg.encoder == self.encoder.cfg
                if isinstance(self.encoder, HashedNgramEncoder)
                else isinstance(cfg.encoder, str)):
            raise ConfigurationError(
                f"config.encoder {cfg.encoder!r} does not describe the "
                f"model's {type(self.encoder).__name__}")
        expected = self.encoder.dim + len(cfg.llm_providers) * k
        if self.fusion_params.input_dim != expected:
            raise ConfigurationError(
                f"fusion input width {self.fusion_params.input_dim} != "
                f"D + P*K = {expected}"
            )
        if self.fusion_params.output_dim != k:
            raise ConfigurationError(
                f"fusion output width {self.fusion_params.output_dim} != "
                f"K = {k}"
            )
        hidden = tuple(w.shape[1] for w in self.fusion_params.weights[:-1])
        if hidden != cfg.fusion.hidden_sizes:
            raise ConfigurationError(
                f"fusion hidden_sizes {list(cfg.fusion.hidden_sizes)} != "
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


def _encoder_to_doc(encoder) -> dict:
    """The encoder's state; its settings are in the config."""
    if isinstance(encoder, HashedNgramEncoder):
        ids, rows = encoder.moved_rows()
        return {
            "init_seed": encoder.init_seed,
            "init_sha256": encoder.init_sha256,
            "rows": ids.tolist(),
            "projection_rows": _encode_array(rows),
        }
    if isinstance(encoder, FrozenLookupEncoder):
        return {
            "dim": encoder.dim,
            "table": {text: _encode_array(vec)
                      for text, vec in encoder.table.items()},
        }
    raise ModelFormatError(f"unsupported encoder type {type(encoder).__name__}")


def _stored_fields(cls, doc: dict) -> dict:
    """The fields of `cls` from a format 1-3 section, which holds every
    one of them (a missing one is an error) beside other keys."""
    return {f.name: doc[f.name] for f in fields(cls)}


def _config_from_old_doc(doc: dict, version: int) -> AutoFusionConfig:
    """The config of a format 1-3 file, which stored it in pieces: labels,
    mode, providers, and the encoder and fusion settings beside their
    arrays. A frozen encoder's path was not stored; its config reads as a
    path that says so."""
    kind = doc["encoder"]["kind"]
    if kind == "hashed_ngram":
        encoder = _stored_fields(EncoderConfig, doc["encoder"])
    elif kind == "frozen_lookup":
        encoder = {"precomputed_path":
                   f"<not recorded by model format {version}>"}
    else:
        raise ModelFormatError(f"unknown encoder kind {kind!r}")
    return AutoFusionConfig.from_dict({
        "label_columns": doc["labels"],
        "multi_label": TaskMode(doc["mode"]) is TaskMode.MULTI_LABEL,
        "llm_providers": doc["providers"],
        "encoder": encoder,
        "fusion": _stored_fields(FusionConfig, doc["fusion"]),
    }, "config")


def _encoder_from_model_doc(doc: dict, version: int,
                            cfg: Union[EncoderConfig, str]):
    """The encoder `cfg` describes, its state read from `doc`.

    A hashed encoder is built from its start, then `set_rows` writes in its
    stored rows, so it stores the rows `moved_rows` saves again. From
    format 3 on the start is `init_seed`, checked against the recorded
    digest, and the stored rows are the listed ones. The row ids are
    checked first, then the encoder is built, which checks the seed and
    allocates only its slot map, so a size that cannot be allocated fails
    before the digest is made. Formats 1 and 2 stored the whole projection
    and no start: the start is zeros, and the stored rows are those with a
    set bit, so a -0.0 entry counts."""
    if isinstance(cfg, str):
        dim = doc["dim"]
        table = {text: _read_array(vec, version, (dim,))
                 for text, vec in doc["table"].items()}
        return FrozenLookupEncoder(table, dim)
    if version < 3:
        projection = _read_array(doc["projection"], version,
                                 (cfg.buckets, cfg.dim))
        ids = np.flatnonzero(projection.view(np.uint64).any(axis=1))
        encoder, rows = HashedNgramEncoder(cfg, seed=None), projection[ids]
    else:
        seed, rows = doc["init_seed"], doc["rows"]
        if type(rows) is not list or any(type(r) is not int for r in rows):
            raise ModelFormatError("rows must be a list of integers")
        if rows and not (0 <= min(rows) and max(rows) < cfg.buckets):
            raise ModelFormatError(f"rows must lie in [0, {cfg.buckets})")
        ids = np.array(rows, dtype=np.int64)
        if (np.diff(ids) <= 0).any():
            raise ModelFormatError("rows must be strictly increasing")
        encoder = HashedNgramEncoder(cfg, seed=seed)
        if doc["init_sha256"] != encoder.init_sha256:
            raise ModelFormatError(
                f"init_sha256 {doc['init_sha256']!r} does not match the init "
                f"of init_seed {seed!r}")
        rows = _read_array(doc["projection_rows"], version,
                           (ids.size, cfg.dim))
    encoder.set_rows(ids, rows)
    return encoder


def save_model(model: FusionModel, path: Union[str, Path]) -> None:
    """Persist a model as a single self-contained JSON file, written to a
    temp file and renamed over `path`, so a failed save leaves any earlier
    file there intact."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "prompt_template_version": PROMPT_TEMPLATE_VERSION,
        "config": model.config.to_dict(),
        "encoder": _encoder_to_doc(model.encoder),
        "fusion": {
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
    """Read a model file (format 1 to 4) back; predictions match the saved
    model exactly.

    A hashed encoder from format 3 on starts from `init_seed`, whose
    digest must be the recorded `init_sha256`, with the stored rows
    written over it. One read from format 1 or 2 starts from zeros
    (`init_seed` None) and stores the projection's non-zero rows, so
    saving it again writes those rows.
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
                or version not in (1, 2, 3, MODEL_FORMAT_VERSION):
            raise ModelFormatError(
                f"model format version {version} unsupported "
                f"(expected 1 to {MODEL_FORMAT_VERSION})"
            )
        # Format 1 predates the recorded prompt version.
        if version > 1 \
                and doc["prompt_template_version"] != PROMPT_TEMPLATE_VERSION:
            raise ModelFormatError(
                f"model was trained with prompt template version "
                f"{doc['prompt_template_version']!r}, but this scorefusion "
                f"prompts with version {PROMPT_TEMPLATE_VERSION}"
            )
        config = AutoFusionConfig.from_dict(doc["config"], "config") \
            if version == MODEL_FORMAT_VERSION \
            else _config_from_old_doc(doc, version)
        encoder = _encoder_from_model_doc(doc["encoder"], version,
                                          config.encoder)
        weights, biases = [], []
        for i, layer in enumerate(doc["fusion"]["layers"]):
            fan_in, fan_out = layer["shape"]
            if weights and fan_in != weights[-1].shape[1]:
                raise ModelFormatError(
                    f"layer {i} has fan-in {fan_in}, expected the previous "
                    f"layer's fan-out {weights[-1].shape[1]}")
            weights.append(_read_array(layer["weight"], version,
                                       (fan_in, fan_out)))
            biases.append(_read_array(layer["bias"], version, (fan_out,)))
        return FusionModel(config, encoder, FusionParams(weights, biases))
    except ModelFormatError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, IndexError,
            ConfigurationError) as exc:
        raise ModelFormatError(
            f"model file {path} is structurally invalid: {exc}"
        ) from None
