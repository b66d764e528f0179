"""Domain types shared by every module: label schemas, examples, datasets,
task modes, score vectors, dataset fingerprinting, the config codec, the
atomic file write and the text-TAB-number table reader.

All types here are immutable after construction and safe to share across
threads. Label order is frozen at schema creation; every vector in the
package is positional against that order.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import os
import stat
import sys
import uuid
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import (Annotated, Iterable, Iterator, Optional, Sequence,
                    Union, get_args, get_origin, get_type_hints)

import numpy as np

from .errors import ConfigurationError, DataError


class TaskMode(Enum):
    """Classification regime. Controls loss, activation, and decision rule."""

    MULTI_CLASS = "multi_class"
    MULTI_LABEL = "multi_label"

    @staticmethod
    def from_multi_label(multi_label: bool) -> "TaskMode":
        return TaskMode.MULTI_LABEL if multi_label else TaskMode.MULTI_CLASS


# A non-empty, valid UTF-8 str field (a model name, a column name).
NonEmptyStr = Annotated[str, "non-empty"]
# A non-empty path; it may hold bytes POSIX allows but UTF-8 does not.
NonEmptyPath = Annotated[str, "non-empty path"]
# A class's field annotations, resolved on first use, not at import.
_type_hints = functools.cache(get_type_hints)


class DictCodec:
    """A settings or report dataclass whose fields check_value checks
    against their annotations, and its plain-mapping form (YAML, run
    snapshots and metrics files, model files): one key per field, tuples as
    lists, nested dataclasses as mappings. A subclass's __post_init__ calls
    this one first, then checks value ranges only.

    from_dict decodes every such section, nested ones included, from its
    mapping form. It rejects what check_keys rejects and turns a value the
    dataclass rejects into a ConfigurationError starting with `where`."""

    def __post_init__(self):
        hints = _type_hints(type(self), include_extras=True)
        for f in fields(self):
            object.__setattr__(self, f.name, check_value(
                f.name, hints[f.name], getattr(self, f.name)))

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in items})

    @classmethod
    def from_dict(cls, doc, where: str):
        check_keys(doc, {f.name for f in fields(cls)}, where)
        hints = _type_hints(cls, include_extras=True)
        try:
            return cls(**{k: _decode(k, hints[k], v) for k, v in doc.items()})
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from None


def _is_codec(tp) -> bool:
    return type(tp) is type and issubclass(tp, DictCodec)


def _decode(name: str, tp, value, index=None):
    """`value` for the field `name` annotated `tp`, its sections decoded
    by from_dict: a mapping for a codec or a union's codec member, any
    other non-instance for a codec, and each mapping in a list, whose
    errors start `name[index]: ` (an unknown key is still a `name` key)."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and isinstance(value, (list, tuple)):
        return [_decode(name, args[0], v, i) if isinstance(v, dict) else v
                for i, v in enumerate(value)]
    if origin in (Union, UnionType) and isinstance(value, dict):
        tp = next(filter(_is_codec, args), tp)
    if not _is_codec(tp) or isinstance(value, tp):
        return value
    try:
        return tp.from_dict(value, name)
    except ConfigurationError as exc:
        if index is None:
            raise
        raise ConfigurationError(f"{name}[{index}]: "
                                 + str(exc).removeprefix(f"{name}: ")) from None


def check_keys(doc, allowed, where: str) -> None:
    """A ConfigurationError naming `where` unless `doc` is a mapping whose
    every key is in `allowed`."""
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{where} must be a mapping, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigurationError(f"unknown {where} key {key!r}")


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", NonEmptyStr: "a non-empty string",
               NonEmptyPath: "a non-empty string"}


def _rejected(name: str, what: str, value) -> ConfigurationError:
    """The error for a value of `name` that is not `what`. An int of more
    than 50 digits, which repr may refuse to print, shows its digit count."""
    if type(value) is not int or abs(value) < 10 ** 50:
        return ConfigurationError(f"{name} must be {what}, got {value!r}")
    digits = abs(value).bit_length() * 30102 // 100000  # 0.30102 < log10 2
    while abs(value) >= 10 ** digits:
        digits += 1
    return ConfigurationError(
        f"{name} must be {what}, got an integer of {digits} digits")


def check_value(name: str, tp, value):
    """The value to store for `value` under `name`, annotated `tp`, or a
    ConfigurationError naming `name`. `int` takes integers and `float`
    finite real numbers, never bools (nor 4.0 for `int`), so a config never
    truncates or coerces; `str`, `bool` and classes take their instances;
    `Optional[T]` adds None; `tuple[T, ...]` takes a list or tuple of T and
    stores a tuple; a union tries its tuple members on a list or tuple and
    its others on anything else (all, if none fits), and if none takes it,
    names each (a codec as a mapping). A NonEmptyStr must be valid UTF-8."""
    if tp in (int, float):
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if tp is int else numbers.Real) \
                or tp is float and not abs(value) <= sys.float_info.max:
            raise _rejected(name, _TYPE_NAMES[tp], value)
    elif get_origin(tp) in (Union, UnionType):
        args = [a for a in get_args(tp) if a is not type(None)]
        if value is None and len(args) < len(get_args(tp)):
            return value
        tried = [a for a in args if (get_origin(a) is tuple)
                 == isinstance(value, (list, tuple))] or args
        if len(tried) == 1:
            return check_value(name, tried[0], value)
        for member in tried:
            with suppress(ConfigurationError):
                return check_value(name, member, value)
        what = " or ".join("a mapping" if _is_codec(a) else _TYPE_NAMES[a]
                           for a in tried)
        raise _rejected(name, what, value)
    elif get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _rejected(name, "a list", value)
        item = get_args(tp)[0]
        return tuple(check_value(f"{name} items", item, v) for v in value)
    elif not isinstance(value, getattr(tp, "__origin__", tp)) \
            or (tp in (NonEmptyStr, NonEmptyPath) and not value):
        what = _TYPE_NAMES.get(tp) or f"an instance of {tp.__name__}"
        raise _rejected(name, what, value)
    elif tp is NonEmptyStr \
            and value.encode("utf-8", "ignore").decode("utf-8") != value:
        raise ConfigurationError(f"{name} must be valid UTF-8, got {value!r}")
    return value


def atomic_write_text(path: Path, text: str) -> None:
    """Write `text` (UTF-8, newlines as given) whole. Where `path` is
    absent or a regular file, `text` goes to a temp file beside it that is
    then renamed over it: readers see the old file or the new one, never a
    partial one, and on any failure the temp file is removed and the error
    re-raised. A symlink is followed, so the link stays and the file it
    names is replaced. Anything else at `path` (a FIFO, a device) is
    written in place, since a rename would replace it with a regular
    file."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        path.write_text(text, encoding="utf-8", newline="")
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def read_vector_table(path: str) -> dict[str, np.ndarray]:
    """{text: float64 vector} from a UTF-8 file of LF-terminated rows, each
    the text then at least one number, TAB-separated. A leading BOM is
    dropped, not read as part of the first text. A CR before the LF is
    dropped (CRLF files load); any other CR belongs to the text. Blank lines
    are skipped, all rows share one width, every value is finite, and a
    repeated text keeps its last row. Any failure, an unreadable file
    included, is a DataError naming the file and, if any, the line."""
    table: dict[str, np.ndarray] = {}
    width: int | None = None
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").removesuffix("\r")
                if not line:
                    continue
                text, *parts = line.split("\t")
                where = f"{path}:{lineno}"
                if not parts:
                    raise DataError(
                        f"{where}: expected text plus at least one value")
                try:
                    values = np.array([float(v) for v in parts])
                except ValueError as exc:
                    raise DataError(f"{where}: non-numeric value ({exc})") \
                        from None
                if not np.isfinite(values).all():
                    raise DataError(f"{where}: non-finite value")
                width = width or values.size
                if values.size != width:
                    raise DataError(f"{where}: dimension {values.size} "
                                    f"differs from earlier rows ({width})")
                table[text] = values
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return table


@dataclass(frozen=True)
class LabelSchema:
    """The ordered universe of K label names.

    Index i <-> label i everywhere; the binding never changes for the
    lifetime of a model.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(labels))
        for name in self.labels:
            if not isinstance(name, str):
                raise ValueError(
                    f"label names must be strings, got {name!r} (YAML reads "
                    "unquoted yes/no/on/off/true/false as booleans: quote "
                    "label names)")
        if len(self.labels) < 2:
            raise ValueError("a label schema needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("label names must be unique")
        if any(not name for name in self.labels):
            raise ValueError("label names must be non-empty")

    @property
    def K(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LabelVector:
    """Binary target vector of length K.

    In MULTI_CLASS mode exactly one bit is set; in MULTI_LABEL mode any
    number of bits (including zero) may be set. Mode conformance is checked
    by validate_dataset, not by the type itself.
    """

    bits: tuple[int, ...]

    def __init__(self, bits: Iterable[int]):
        as_tuple = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in as_tuple):
            raise ValueError("label vector bits must be 0 or 1")
        object.__setattr__(self, "bits", as_tuple)

    @staticmethod
    def from_index(index: int, k: int) -> "LabelVector":
        """One-hot vector with bit `index` set."""
        if not 0 <= index < k:
            raise ValueError(f"index {index} out of range for K={k}")
        return LabelVector(tuple(1 if i == index else 0 for i in range(k)))

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class TextExample:
    """One labeled or unlabeled text row. Empty text is legal everywhere."""

    text: str
    target: Optional[LabelVector] = None


@dataclass(frozen=True)
class Dataset:
    """Texts plus schema and mode. Row order is significant (it is part of
    the fingerprint)."""

    schema: LabelSchema
    mode: TaskMode
    rows: tuple[TextExample, ...] = field(default_factory=tuple)

    def __init__(self, schema: LabelSchema, mode: TaskMode,
                 rows: Iterable[TextExample] = ()):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "rows", tuple(rows))

    def texts(self) -> list[str]:
        return [row.text for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ScoreVector:
    """K finite real numbers, positional against a schema."""

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        as_tuple = tuple(float(v) for v in values)
        if any(not math.isfinite(v) for v in as_tuple):
            raise ValueError("score vector values must be finite")
        object.__setattr__(self, "values", as_tuple)

    def __len__(self) -> int:
        return len(self.values)


def validate_dataset(ds: Dataset) -> list[str]:
    """Check every row against the mode's target invariant.

    Total: never raises on malformed content, only reports. Returns an empty
    list iff the dataset is valid. Each violation names the row index and the
    rule broken.
    """
    violations: list[str] = []
    k = ds.schema.K
    for i, row in enumerate(ds.rows):
        if row.target is None:
            continue
        if len(row.target) != k:
            violations.append(
                f"row {i}: target has {len(row.target)} bits, schema has {k} labels"
            )
            continue
        active = sum(row.target.bits)
        if ds.mode is TaskMode.MULTI_CLASS and active != 1:
            violations.append(
                f"row {i}: multi-class target must have exactly one active label"
            )
    return violations


# Canonical byte serialization for fingerprinting. Every covered field is
# written as an 8-byte big-endian length prefix followed by its UTF-8 bytes,
# in this fixed order: label count, each label name, mode value, row count,
# then per row the text and the target (sentinel byte 0x00 for "no target",
# 0x01 followed by the bits as ASCII '0'/'1' otherwise). Row order is
# significant by design: shuffling rows invalidates caches, which is safer
# than silently reusing them.

_NO_TARGET = b"\x00"
_HAS_TARGET = b"\x01"


def _put_str(h, s: str) -> None:
    data = s.encode("utf-8")
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 digest (64 hex chars) of the canonical serialization of a
    dataset: schema labels in order, mode, and every row's text and target
    in row order. Stable across process restarts and platforms."""
    h = hashlib.sha256()
    h.update(len(ds.schema.labels).to_bytes(8, "big"))
    for name in ds.schema.labels:
        _put_str(h, name)
    _put_str(h, ds.mode.value)
    h.update(len(ds.rows).to_bytes(8, "big"))
    with utf8_rows(row.text for row in ds.rows):
        for row in ds.rows:
            _put_str(h, row.text)
            if row.target is None:
                h.update(_NO_TARGET)
            else:
                h.update(_HAS_TARGET)
                h.update("".join(str(b) for b in row.target.bits).encode("ascii"))
    return h.hexdigest()


@contextmanager
def utf8_rows(texts: Iterable[str]) -> Iterator[None]:
    """A UnicodeEncodeError in the block as a DataError naming the first
    row of `texts` that is not valid UTF-8 (a lone surrogate, as Python
    decodes a bad command-line byte); rows are searched only then."""
    try:
        yield
    except UnicodeEncodeError:
        for i, text in enumerate(texts):
            if text.encode("utf-8", "ignore").decode("utf-8") != text:
                raise DataError(f"row {i}: text is not valid UTF-8 (it "
                                "holds a lone surrogate)") from None
        raise


def check_texts(texts: Iterable[str]) -> None:
    """A bare str is a DataError: iterated, it would be one text per
    character, and with providers one paid call per character."""
    if isinstance(texts, str):
        raise DataError("texts must be a sequence of strings, not one str")


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a single text (used in cache keys)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_dataset(schema: LabelSchema, mode: TaskMode,
                 texts: Sequence[str],
                 targets: Optional[Sequence[Optional[LabelVector]]] = None) -> Dataset:
    """Convenience constructor pairing texts with optional targets."""
    if targets is None:
        rows = [TextExample(t) for t in texts]
    else:
        if len(targets) != len(texts):
            raise ValueError("texts and targets must have equal length")
        rows = [TextExample(t, y) for t, y in zip(texts, targets)]
    return Dataset(schema, mode, rows)
