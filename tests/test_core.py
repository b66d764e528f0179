"""Core types, dataset validation, and fingerprinting."""

from __future__ import annotations

import hashlib
import re
from dataclasses import fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.core import (
    DictCodec,
    ScoreVector,
    TextExample,
    dataset_fingerprint,
    text_digest,
    validate_dataset,
)
from scorefusion.metrics import LabelMetrics, MetricsReport


_LABEL = LabelMetrics("a", 0.5, 1 / 3, 0.4, 3)
_CODEC_VALUES = [
    sf.EncoderConfig(dim=8, ngram_sizes=(2, 5), buckets=64, lr_small=0.25),
    sf.FusionConfig(hidden_sizes=(4, 3), threshold=(0.25, 0.75), seed=0),
    sf.ProviderConfig(provider_id="mock", temperature=0.5,
                      mock_table_path="t.tsv"),
    _LABEL,
    MetricsReport(0.5, 0.25, 0.75, 0.3, (_LABEL, _LABEL), 0.1, 0.2, 0.3),
]


class TestDictCodec:
    """Every settings and report section goes through one codec."""

    @pytest.mark.parametrize("value", _CODEC_VALUES,
                             ids=lambda v: type(v).__name__)
    def test_round_trip(self, value):
        doc = json.loads(json.dumps(value.to_dict()))
        assert type(value).from_dict(doc, "section") == value

    @pytest.mark.parametrize("value", _CODEC_VALUES,
                             ids=lambda v: type(v).__name__)
    def test_unknown_key_named(self, value):
        doc = {**value.to_dict(), "stray": 1}
        with pytest.raises(sf.ConfigurationError,
                           match="unknown section key 'stray'"):
            type(value).from_dict(doc, "section")

    def test_non_mapping_named(self):
        with pytest.raises(sf.ConfigurationError,
                           match="section must be a mapping, got list"):
            sf.FusionConfig.from_dict([], "section")

    @pytest.mark.parametrize("cls, doc, match", [
        (sf.FusionConfig, {"epochs": 0}, "section: epochs must be >= 1"),
        (sf.EncoderConfig, {"dim": "8"}, "section: dim must be an integer"),
        (sf.ProviderConfig, {"provider_id": "nope"},
         "section: unknown provider_id 'nope'"),
        (LabelMetrics, {"label": "a"}, "section: .*missing"),
    ])
    def test_rejected_value_names_the_section(self, cls, doc, match):
        with pytest.raises(sf.ConfigurationError, match=match):
            cls.from_dict(doc, "section")


# One valid instance of every DictCodec; the walk below checks each field.
_WALKED = [*_CODEC_VALUES, sf.AutoFusionConfig(label_columns=("a", "b"))]
_SAMPLES = (True, "1", 1.5, None, [], {})


def _admits(annotation, value) -> bool:
    """Whether a field annotated `annotation` takes `value`, one of
    _SAMPLES, by its type alone (a list stands for a tuple)."""
    if get_origin(annotation) in (Union, UnionType):
        return any(_admits(a, value) for a in get_args(annotation))
    if get_origin(annotation) is tuple:
        return isinstance(value, list)
    return type(value) is annotation


def _wrong_type_cases():
    for base in _WALKED:
        hints = get_type_hints(type(base))
        for f in fields(base):
            for value in _SAMPLES:
                if not _admits(hints[f.name], value):
                    yield pytest.param(
                        base, f.name, value,
                        id=f"{type(base).__name__}.{f.name}={value!r}")


def test_every_codec_is_walked():
    assert {type(v) for v in _WALKED} == set(DictCodec.__subclasses__())


def _section_class(annotation):
    """The DictCodec class a field annotated `annotation` decodes a
    mapping into, or None."""
    members = get_args(annotation) \
        if get_origin(annotation) in (Union, UnionType) else (annotation,)
    return next((m for m in members
                 if type(m) is type and issubclass(m, DictCodec)), None)


@pytest.mark.parametrize("base, name, value", _wrong_type_cases())
def test_wrong_type_is_a_config_error_naming_the_field(base, name, value):
    """Every field of every codec rejects a value of the wrong type, built
    in Python or decoded, without a type check written for that field.
    Decoded, a mapping for a section field is that section's mapping form,
    so `{}` is the default section."""
    doc = {f.name: getattr(base, f.name) for f in fields(base)}
    doc[name] = value
    named = rf"(^|\W){re.escape(name)}\W"
    with pytest.raises(sf.ConfigurationError, match=named):
        type(base)(**doc)
    section = _section_class(get_type_hints(type(base))[name])
    if value == {} and section is not None:
        decoded = type(base).from_dict(doc, "section")
        assert getattr(decoded, name) == section()
        return
    with pytest.raises(sf.ConfigurationError, match=rf"^section:.*{named}"):
        type(base).from_dict(doc, "section")


@pytest.mark.parametrize("cls, doc, match", [
    (sf.AutoFusionConfig, {"label_columns": ["a", "b"],
                           "fusion": {"epochs": "3"}},
     "^section: fusion: epochs must be an integer, got '3'$"),
    (sf.AutoFusionConfig, {"label_columns": ["a", "b"],
                           "encoder": {"dim": True}},
     "^section: encoder: dim must be an integer, got True$"),
    (sf.AutoFusionConfig, {"label_columns": ["a", "b"],
                           "llm_providers": [{}, {"max_retries": 1.5}]},
     r"^section: llm_providers\[1\]: max_retries must be an integer, "
     "got 1.5$"),
    (sf.AutoFusionConfig, {"label_columns": ["a", "b"],
                           "llm_providers": [{"stray": 1}]},
     r"^section: llm_providers\[0\]: unknown llm_providers key 'stray'$"),
    (MetricsReport, {**_CODEC_VALUES[-1].to_dict(),
                     "per_label": [_LABEL.to_dict(),
                                   {**_LABEL.to_dict(), "support": "3"}]},
     r"^section: per_label\[1\]: support must be an integer, got '3'$"),
])
def test_nested_wrong_type_names_both_sections(cls, doc, match):
    with pytest.raises(sf.ConfigurationError, match=match):
        cls.from_dict(doc, "section")


# Generated valid instances of every DictCodec.
_name = st.text(min_size=1, max_size=8)
_rate = st.floats(1e-9, 10.0)
_unit = st.floats(0.0, 1.0)
_prob = st.floats(0.01, 0.99)
_encoders = st.integers(1, 64).flatmap(lambda dim: st.builds(
    sf.EncoderConfig, dim=st.just(dim), buckets=st.integers(dim, 2 ** 16),
    ngram_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4)
    .map(tuple), lr_small=_rate))


def _fusions(k=st.integers(1, 5)):
    """FusionConfigs whose per-class threshold, if drawn, has k values."""
    return k.flatmap(lambda k: st.builds(
        sf.FusionConfig,
        hidden_sizes=st.lists(st.integers(1, 256), max_size=3).map(tuple),
        lr_high=_rate, epochs=st.integers(1, 500),
        train_batch_size=st.integers(1, 512), seed=st.integers(0, 2 ** 32),
        threshold=_prob | st.lists(_prob, min_size=k, max_size=k).map(tuple)))


def _provider(provider_id, mock_table_path=None, **kw):
    """A ProviderConfig; only the mock provider takes a mock table."""
    if provider_id != "mock":
        mock_table_path = None
    return sf.ProviderConfig(provider_id, mock_table_path=mock_table_path,
                             **kw)


_providers = st.fixed_dictionaries(
    {"provider_id": st.sampled_from(["mock", "openai", "gemini-compatible",
                                     "deepseek"])},
    optional={"model_name": _name, "endpoint_url": st.text(max_size=8),
              "api_key_env": st.text(max_size=8),
              "temperature": st.floats(0.0, 2.0),
              "max_retries": st.integers(0, 9),
              "backoff_base_ms": st.integers(0, 10 ** 4),
              "llm_batch_size": st.integers(1, 64),
              "timeout_ms": st.integers(1, 10 ** 5),
              "mock_table_path": st.none() | _name},
).map(lambda kw: _provider(**kw))
_configs = st.lists(_name, min_size=2, max_size=4, unique=True).flatmap(
    lambda labels: st.builds(
        sf.AutoFusionConfig,
        label_columns=st.just(tuple(labels)),
        multi_label=st.booleans(),
        llm_providers=st.lists(_providers, max_size=3).map(tuple),
        encoder=_encoders | _name, fusion=_fusions(st.just(len(labels))),
        cache_dir=st.none() | _name,
        cache_policy=st.sampled_from(["strict", "warn"]),
        validation_fraction=st.floats(0.0, 0.99), text_column=_name))
_label_metrics = st.builds(LabelMetrics, label=st.text(max_size=8),
                           precision=_unit, recall=_unit, f1=_unit,
                           support=st.integers(0, 10 ** 6))
_reports = st.builds(
    MetricsReport, accuracy=_unit, precision=_unit, recall=_unit, f1=_unit,
    per_label=st.lists(_label_metrics, max_size=3).map(tuple),
    micro_precision=_unit, micro_recall=_unit, micro_f1=_unit)
_GENERATED = {sf.EncoderConfig: _encoders, sf.FusionConfig: _fusions(),
              sf.ProviderConfig: _providers, sf.AutoFusionConfig: _configs,
              LabelMetrics: _label_metrics, MetricsReport: _reports}


def test_every_codec_is_generated():
    assert set(_GENERATED) == set(DictCodec.__subclasses__())


@pytest.mark.parametrize("strategy", _GENERATED.values(),
                         ids=[cls.__name__ for cls in _GENERATED])
@given(data=st.data())
def test_generated_values_round_trip_through_json(strategy, data):
    """from_dict reads back what to_dict writes, nested sections included."""
    value = data.draw(strategy)
    doc = json.loads(json.dumps(value.to_dict()))
    assert type(value).from_dict(doc, "s") == value


class TestUtf8Strings:
    """A name or column string must encode as UTF-8; a path need not, as
    POSIX opens a surrogate-escaped file name."""

    @pytest.mark.parametrize("build, named", [
        (lambda v: sf.ProviderConfig(model_name=v), "model_name"),
        (lambda v: sf.AutoFusionConfig(label_columns=("a", "b"),
                                       text_column=v), "text_column"),
    ])
    def test_name_fields_reject_lone_surrogates(self, build, named):
        assert build("caf\u00e9")
        with pytest.raises(sf.ConfigurationError,
                           match=rf"^{named} must be valid UTF-8, got 'm\\udcff'$"):
            build("m\udcff")

    def test_path_fields_keep_surrogate_escaped_bytes(self):
        path = "emb-\udcff.tsv"
        cfg = sf.AutoFusionConfig(label_columns=("a", "b"), cache_dir=path,
                                  encoder=path)
        assert sf.AutoFusionConfig.from_dict(cfg.to_dict(), "c") == cfg
        assert sf.ProviderConfig(mock_table_path=path).mock_table_path == path


class TestLabelSchema:
    def test_k_and_order(self):
        schema = sf.LabelSchema(("a", "b", "c"))
        assert schema.K == 3
        assert schema.labels == ("a", "b", "c")

    def test_too_few_labels(self):
        with pytest.raises(ValueError):
            sf.LabelSchema(("only",))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            sf.LabelSchema(("a", "a"))

    def test_empty_label_name(self):
        with pytest.raises(ValueError):
            sf.LabelSchema(("a", ""))


class TestLabelVector:
    def test_bits_and_length(self):
        v = sf.LabelVector((1, 0, 1))
        assert v.bits == (1, 0, 1)
        assert len(v) == 3

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            sf.LabelVector((0, 2))

    def test_from_index(self):
        assert sf.LabelVector.from_index(1, 3).bits == (0, 1, 0)
        with pytest.raises(ValueError):
            sf.LabelVector.from_index(3, 3)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                    max_size=8))
    def test_round_trip(self, bits):
        assert list(sf.LabelVector(bits).bits) == bits


class TestScoreVector:
    def test_finite_only(self):
        ScoreVector((0.0, 1.0))
        with pytest.raises(ValueError):
            ScoreVector((0.5, float("nan")))
        with pytest.raises(ValueError):
            ScoreVector((float("inf"), 0.0))


class TestValidateDataset:
    def test_one_hot_rows_are_valid(self):
        schema = sf.LabelSchema(("a", "b", "c"))
        targets = [sf.LabelVector.from_index(i, 3) for i in range(3)]
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS,
                             ["x", "y", "z"], targets)
        assert validate_dataset(ds) == []

    def test_multiclass_two_active_bits(self):
        schema = sf.LabelSchema(("a", "b", "c"))
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x"],
                             [sf.LabelVector((1, 1, 0))])
        violations = validate_dataset(ds)
        assert len(violations) == 1
        assert "row 0" in violations[0]
        assert "exactly one" in violations[0]

    def test_multilabel_all_zero_is_valid(self):
        schema = sf.LabelSchema(("a", "b"))
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_LABEL, ["x"],
                             [sf.LabelVector((0, 0))])
        assert validate_dataset(ds) == []

    def test_length_mismatch_reported(self):
        schema = sf.LabelSchema(("a", "b", "c"))
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_LABEL, ["x"],
                             [sf.LabelVector((1, 0))])
        violations = validate_dataset(ds)
        assert len(violations) == 1
        assert "2 bits" in violations[0]

    def test_rows_without_targets_pass(self):
        schema = sf.LabelSchema(("a", "b"))
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x", "y"])
        assert validate_dataset(ds) == []

    @given(st.lists(st.tuples(st.text(max_size=20),
                              st.lists(st.integers(0, 1), min_size=1,
                                       max_size=5)),
                    max_size=10),
           st.sampled_from([sf.TaskMode.MULTI_CLASS, sf.TaskMode.MULTI_LABEL]))
    def test_total_never_raises(self, rows, mode):
        schema = sf.LabelSchema(("a", "b", "c"))
        examples = [TextExample(text, sf.LabelVector(bits))
                    for text, bits in rows]
        result = validate_dataset(sf.Dataset(schema, mode, examples))
        assert isinstance(result, list)


def _oracle_fingerprint(labels, mode_value, rows) -> str:
    """Independent re-derivation of the canonical byte stream: 8-byte
    big-endian length prefix + UTF-8 per field; label count, labels, mode,
    row count, then per row text and 0x00 / 0x01+bits target sentinel."""
    h = hashlib.sha256()

    def put(s: str) -> None:
        data = s.encode("utf-8")
        h.update(len(data).to_bytes(8, "big") + data)

    h.update(len(labels).to_bytes(8, "big"))
    for name in labels:
        put(name)
    put(mode_value)
    h.update(len(rows).to_bytes(8, "big"))
    for text, bits in rows:
        put(text)
        if bits is None:
            h.update(b"\x00")
        else:
            h.update(b"\x01" + "".join(str(b) for b in bits).encode("ascii"))
    return h.hexdigest()


class TestDatasetFingerprint:
    def _dataset(self):
        schema = sf.LabelSchema(("pos", "neg"))
        return sf.make_dataset(
            schema, sf.TaskMode.MULTI_CLASS,
            ["great stuff", "awful stuff", "no label here"],
            [sf.LabelVector((1, 0)), sf.LabelVector((0, 1)), None],
        )

    def test_matches_independent_oracle(self):
        ds = self._dataset()
        expected = _oracle_fingerprint(
            ("pos", "neg"), "multi_class",
            [("great stuff", (1, 0)), ("awful stuff", (0, 1)),
             ("no label here", None)],
        )
        assert dataset_fingerprint(ds) == expected

    def test_shape_and_determinism(self):
        fp = dataset_fingerprint(self._dataset())
        assert len(fp) == 64
        assert all(c in "0123456789abcdef" for c in fp)
        assert fp == dataset_fingerprint(self._dataset())

    def test_text_change_changes_digest(self):
        base = self._dataset()
        schema = base.schema
        changed = sf.make_dataset(
            schema, base.mode,
            ["great stuff!", "awful stuff", "no label here"],
            [row.target for row in base.rows],
        )
        assert dataset_fingerprint(base) != dataset_fingerprint(changed)

    def test_row_order_is_significant(self):
        base = self._dataset()
        swapped = sf.Dataset(base.schema, base.mode,
                             (base.rows[1], base.rows[0], base.rows[2]))
        assert dataset_fingerprint(base) != dataset_fingerprint(swapped)

    def test_mode_is_covered(self):
        base = self._dataset()
        relabeled = sf.Dataset(base.schema, sf.TaskMode.MULTI_LABEL, base.rows)
        assert dataset_fingerprint(base) != dataset_fingerprint(relabeled)

    def test_labels_are_covered(self):
        base = self._dataset()
        renamed = sf.Dataset(sf.LabelSchema(("pos", "neutral")), base.mode,
                             base.rows)
        assert dataset_fingerprint(base) != dataset_fingerprint(renamed)

    def test_target_presence_is_covered(self):
        schema = sf.LabelSchema(("a", "b"))
        labeled = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x"],
                                  [sf.LabelVector((1, 0))])
        unlabeled = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x"])
        assert dataset_fingerprint(labeled) != dataset_fingerprint(unlabeled)

    @given(st.lists(st.tuples(st.text(max_size=30),
                              st.one_of(st.none(),
                                        st.lists(st.integers(0, 1), min_size=2,
                                                 max_size=2))),
                    max_size=6))
    def test_oracle_agreement_property(self, rows):
        schema = sf.LabelSchema(("a", "b"))
        examples = [TextExample(t, sf.LabelVector(bits) if bits else None)
                    for t, bits in rows]
        ds = sf.Dataset(schema, sf.TaskMode.MULTI_LABEL, examples)
        expected = _oracle_fingerprint(
            ("a", "b"), "multi_label",
            [(t, bits if bits else None) for t, bits in rows])
        assert dataset_fingerprint(ds) == expected


class TestTextDigest:
    def test_known_value(self):
        # sha256("") is a published constant
        assert text_digest("") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_distinct_texts_differ(self):
        assert text_digest("a") != text_digest("b")


class TestMakeDataset:
    def test_length_mismatch(self):
        schema = sf.LabelSchema(("a", "b"))
        with pytest.raises(ValueError):
            sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x"],
                            [sf.LabelVector((1, 0)), sf.LabelVector((0, 1))])

    def test_texts_accessor(self):
        schema = sf.LabelSchema(("a", "b"))
        ds = sf.make_dataset(schema, sf.TaskMode.MULTI_CLASS, ["x", "y"])
        assert ds.texts() == ["x", "y"]
        assert len(ds) == 2
