"""End-to-end pipeline: config building, fit/predict/evaluate, persistence,
caching behavior, baselines, and the classifier wrapper."""

from __future__ import annotations

import errno
import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scorefusion as sf
from scorefusion.cache import cache_open_adopt
from scorefusion.encoder import (
    FrozenLookupEncoder,
    HashedNgramEncoder,
    _init_sha256,
    sign_init,
)
from scorefusion.fusion import FusionParams
from scorefusion.llm import PROMPT_TEMPLATE_VERSION
from scorefusion.model import (
    MODEL_FORMAT_VERSION,
    _decode_array,
    _encode_array,
)
from scorefusion.pipeline import build_config, dataset_from_records
from scorefusion.results import load_run

from conftest import TOY_TEXTS, small_fusion_config

MC = sf.TaskMode.MULTI_CLASS
DATA = Path(__file__).parent / "data"


def _model_arrays(model):
    """Every float array of a model: the encoder's, then the head's."""
    enc = model.encoder
    vectors = [enc.projection] if isinstance(enc, HashedNgramEncoder) \
        else [enc.table[text] for text in sorted(enc.table)]
    return [*vectors, *model.fusion_params.weights, *model.fusion_params.biases]


def _fit_toy(toy_dataset, toy_table, cfg=None, **fit_kw):
    cfg = cfg or small_fusion_config()
    provider = sf.MockProvider(toy_table, toy_dataset.schema)
    model, record = sf.fit(toy_dataset, cfg, providers=[provider], **fit_kw)
    return model, record, provider


class TestBuildConfig:
    BASE = {"label_columns": ["yes", "no"]}

    def test_minimal(self):
        """No `llm_provider` means no provider: the encoder-only baseline."""
        cfg = build_config(dict(self.BASE))
        assert cfg.label_columns == ("yes", "no")
        assert not cfg.multi_label
        assert cfg.llm_providers == ()
        assert sf.AutoFusionConfig(label_columns=("yes", "no")) == cfg

    @pytest.mark.parametrize("key, value", [("model_name", "m"),
                                            ("mock_table", "table.tsv")])
    def test_provider_detail_without_provider_rejected(self, key, value):
        with pytest.raises(sf.ConfigurationError,
                           match=f"'{key}' needs 'llm_provider'"):
            build_config(dict(self.BASE, **{key: value}))

    def test_unknown_top_key_named(self):
        with pytest.raises(sf.ConfigurationError, match="lable_columns"):
            build_config({"lable_columns": ["a", "b"]})

    def test_unknown_nested_keys_named(self):
        with pytest.raises(sf.ConfigurationError, match="dims"):
            build_config(dict(self.BASE, encoder={"dims": 8}))
        with pytest.raises(sf.ConfigurationError, match="epoch"):
            build_config(dict(self.BASE, fusion={"epoch": 5}))
        with pytest.raises(sf.ConfigurationError, match="provder"):
            build_config(dict(self.BASE,
                                 llm_provider={"provder": "mock"}))

    def test_label_columns_required(self):
        with pytest.raises(sf.ConfigurationError, match="label_columns"):
            build_config({"multi_label": True})

    @pytest.mark.parametrize("labels", [[True, False], [1, 2]])
    def test_label_names_must_be_strings(self, labels):
        with pytest.raises(sf.ConfigurationError,
                           match=rf"strings, got {labels[0]}.*yes/no"):
            build_config({"label_columns": labels})

    def test_seed_shorthand_wins(self):
        cfg = build_config(dict(self.BASE, seed=7,
                                   fusion={"seed": 99}))
        assert cfg.fusion.seed == 7

    def test_fusion_seed_without_shorthand(self):
        cfg = build_config(dict(self.BASE, fusion={"seed": 99}))
        assert cfg.fusion.seed == 99

    def test_provider_string_with_model_name(self):
        cfg = build_config(dict(self.BASE, llm_provider="openai",
                                   model_name="gpt-x"))
        assert cfg.llm_providers[0].provider_id == "openai-compatible"
        assert cfg.llm_providers[0].model_name == "gpt-x"

    def test_provider_list_pairs_model_names(self):
        cfg = build_config(dict(self.BASE,
                                   llm_provider=["openai", "gemini"],
                                   model_name=["m1", "m2"]))
        assert [p.model_name for p in cfg.llm_providers] == ["m1", "m2"]

    def test_model_name_length_mismatch(self):
        with pytest.raises(sf.ConfigurationError, match="length"):
            build_config(dict(self.BASE,
                                 llm_provider=["openai", "gemini"],
                                 model_name=["m1"]))

    @pytest.mark.parametrize("extra", [
        {"llm_provider": "mock", "model_name": ""},
        {"llm_provider": {"provider": "mock", "model_name": ""}},
        {"llm_provider": ["mock", "mock"], "model_name": ["m", ""]},
        {"llm_provider": {"provider": "mock", "model_name": None}},
    ])
    def test_empty_model_name_rejected(self, extra):
        with pytest.raises(sf.ConfigurationError, match="model_name"):
            build_config(dict(self.BASE, **extra))

    def test_provider_mapping(self):
        cfg = build_config(dict(self.BASE, llm_provider={
            "provider": "openai", "temperature": 0.5, "max_retries": 7}))
        assert cfg.llm_providers[0].temperature == 0.5
        assert cfg.llm_providers[0].max_retries == 7

    def test_encoder_fields(self):
        cfg = build_config(dict(self.BASE,
                                   encoder={"dim": 8, "buckets": 256,
                                            "ngram_sizes": [2, 3]}))
        assert cfg.encoder.dim == 8
        assert cfg.encoder.ngram_sizes == (2, 3)

    def test_precomputed_path_excludes_other_encoder_keys(self):
        cfg = build_config(dict(self.BASE,
                                   encoder={"precomputed_path": "/e.tsv"}))
        assert cfg.encoder == "/e.tsv"
        with pytest.raises(sf.ConfigurationError, match="excludes"):
            build_config(dict(self.BASE,
                                 encoder={"precomputed_path": "/e.tsv",
                                          "dim": 4}))

    def test_validation_errors_become_config_errors(self):
        with pytest.raises(sf.ConfigurationError):
            build_config(dict(self.BASE, fusion={"epochs": 0}))
        with pytest.raises(sf.ConfigurationError):
            build_config(dict(self.BASE, validation_fraction=1.0))
        with pytest.raises(sf.ConfigurationError):
            build_config({"label_columns": ["only"]})
        with pytest.raises(sf.ConfigurationError):
            build_config({"label_columns": ["a", "a"]})

    @pytest.mark.parametrize("doc", [
        {"label_columns": ["", "b"]},
        {"label_columns": 5},
        {"label_columns": ["a", "b"], "encoder": {"dim": "abc"}},
        {"label_columns": ["a", "b"], "fusion": {"epochs": "3"}},
        {"label_columns": ["a", "b"], "seed": "abc"},
        {"label_columns": ["a", "b"],
         "llm_provider": {"provider": "mock", "max_retries": "x"}},
        {"label_columns": ["a", "b"], "multi_label": "false"},
        {"label_columns": ["a", "b"], "multi_label": 1},
        {"label_columns": ["a", "b"], "encoder": {"dim": 4.5}},
        {"label_columns": ["a", "b"], "encoder": {"dim": True}},
        {"label_columns": ["a", "b"], "encoder": {"buckets": 1024.0}},
        {"label_columns": ["a", "b"], "encoder": {"ngram_sizes": [3, 4.0]}},
        {"label_columns": ["a", "b"], "fusion": {"epochs": 2.5}},
        {"label_columns": ["a", "b"], "fusion": {"hidden_sizes": [8.0]}},
        {"label_columns": ["a", "b"], "fusion": {"train_batch_size": True}},
        {"label_columns": ["a", "b"], "fusion": {"seed": 1.5}},
        {"label_columns": ["a", "b"], "seed": 4.5},
        {"label_columns": ["a", "b"], "seed": True},
        *({"label_columns": ["a", "b"],
           "llm_provider": {"provider": "mock", key: value}}
          for key in ("max_retries", "backoff_base_ms", "llm_batch_size",
                      "timeout_ms")
          for value in (2.5, True, "3")),
        *({"label_columns": ["a", "b"], **section}
          for value in (True, "0.5", float("inf"), float("nan"))
          for section in ({"fusion": {"lr_high": value}},
                          {"encoder": {"lr_small": value}},
                          {"llm_provider": {"provider": "mock",
                                            "temperature": value}})),
        {"label_columns": ["a", "b"], "fusion": {"seed": -1}},
    ])
    def test_bad_values_become_config_errors(self, doc):
        with pytest.raises(sf.ConfigurationError):
            build_config(doc)

    @pytest.mark.parametrize("extra, match", [
        ({"encoder": {"dim": 4.5}}, "encoder: dim must be an integer"),
        ({"encoder": {"ngram_sizes": [3, 4.0]}},
         "encoder: ngram_sizes items must be an integer"),
        ({"fusion": {"epochs": False}}, "fusion: epochs must be an integer"),
        ({"fusion": {"hidden_sizes": [8.0]}},
         "fusion: hidden_sizes items must be an integer"),
        ({"multi_label": "false"}, "multi_label must be true or false"),
        ({"fusion": {"lr_high": True}}, "fusion: lr_high must be a finite "
                                        "number, got True"),
        ({"encoder": {"lr_small": True}}, "encoder: lr_small must be a finite"),
        ({"llm_provider": {"provider": "mock", "temperature": True}},
         "temperature must be a finite number"),
        ({"fusion": {"threshold": "0.5"}},
         "fusion: threshold must be a finite number, got '0.5'"),
        ({"fusion": {"threshold": [0.5, "0.5"]}},
         "fusion: threshold items must be a finite number"),
        ({"validation_fraction": "0.2"},
         "validation_fraction must be a finite number, got '0.2'"),
        ({"text_column": 5}, "text_column must be a non-empty string, got 5"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"label_columns": "spam"}, "label_columns must be a list of column "
                                    "names, got the string 'spam'"),
        *(({"encoder": {"precomputed_path": value}},
           rf"encoder.precomputed_path must be a non-empty string, "
           rf"got {shown}")
          for value, shown in ((None, "None"), (5, "5"), ("", "''"),
                               (["e.tsv"], r"\['e.tsv'\]"))),
        *(({"encoder": value}, rf"^config: encoder must be a mapping or a "
                               rf"string, got {shown}$")
          for value, shown in ((5, "5"), (None, "None"), ([1], r"\[1\]"))),
        ({"fusion": {"lr_high": 10 ** 400}},
         r"^config: fusion: lr_high must be a finite number, got an "
         r"integer of 401 digits$"),
        *(({"multi_label": multi_label, "fusion": {"threshold": [0.5]}},
           r"^config: fusion.threshold needs one value per label \(2\), "
           r"got 1$") for multi_label in (False, True)),
    ])
    def test_wrong_type_is_named(self, extra, match):
        with pytest.raises(sf.ConfigurationError, match=match):
            build_config({"label_columns": ["a", "b"], **extra})

    def test_integer_rates_are_numbers(self):
        cfg = build_config({"label_columns": ["a", "b"],
                            "fusion": {"lr_high": 1},
                            "encoder": {"lr_small": 1},
                            "llm_provider": {"provider": "mock",
                                             "temperature": 0}})
        assert (cfg.fusion.lr_high, cfg.encoder.lr_small) == (1, 1)
        assert cfg.llm_providers[0].temperature == 0

    def test_non_mapping_rejected(self):
        with pytest.raises(sf.ConfigurationError, match="mapping"):
            build_config(["label_columns"])
        with pytest.raises(sf.ConfigurationError,
                           match="fusion must be a mapping, got list"):
            build_config(dict(self.BASE, fusion=[1]))

    def test_yaml_provider_spellings_only(self):
        for key, value in (("provider_id", "mock"),
                           ("mock_table_path", "t.tsv")):
            with pytest.raises(sf.ConfigurationError,
                               match=f"unknown provider key '{key}'"):
                build_config(dict(self.BASE, llm_provider={
                    "provider": "mock", key: value}))

    def test_python_config_checks_its_own_types(self):
        with pytest.raises(sf.ConfigurationError, match="validation_fraction"):
            sf.AutoFusionConfig(label_columns=("a", "b"),
                                validation_fraction="0.1")
        with pytest.raises(sf.ConfigurationError, match="text_column"):
            sf.AutoFusionConfig(label_columns=("a", "b"), text_column=5)
        with pytest.raises(sf.ConfigurationError, match="label_columns"):
            sf.AutoFusionConfig(label_columns="ab")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sf.FusionConfig(seed=-1)
        with pytest.raises(sf.ConfigurationError,
                           match="^lr_high must be a finite number"):
            sf.FusionConfig(lr_high=10 ** 400)

    @pytest.mark.parametrize("make", [
        lambda value: sf.FusionConfig(lr_high=value),
        lambda value: sf.EncoderConfig(lr_small=value),
        lambda value: sf.ProviderConfig(temperature=value),
    ], ids=["fusion", "encoder", "provider"])
    def test_huge_integer_named_by_its_digits(self, make):
        """An int past the float range is a config error that names it by
        its digit count, also past Python's int-to-string limit."""
        for value, digits in ((10 ** 5000, 5001), (-10 ** 400, 401)):
            with pytest.raises(sf.ConfigurationError,
                               match=r"must be a finite number, got an "
                                     rf"integer of {digits} digits$"):
                make(value)

    @pytest.mark.parametrize("multi_label", [False, True])
    @pytest.mark.parametrize("threshold", [(0.5,), (0.5, 0.5, 0.5)])
    def test_per_class_threshold_needs_one_value_per_label(
            self, multi_label, threshold):
        fusion = sf.FusionConfig(threshold=threshold)
        with pytest.raises(sf.ConfigurationError,
                           match=r"^fusion.threshold needs one value per "
                                 rf"label \(2\), got {len(threshold)}$"):
            sf.AutoFusionConfig(label_columns=("a", "b"),
                                multi_label=multi_label, fusion=fusion)
        assert sf.AutoFusionConfig(label_columns=("a", "b", "c"),
                                   multi_label=multi_label,
                                   fusion=sf.FusionConfig(
                                       threshold=(0.5, 0.5, 0.5)))

    def test_to_dict_reflects_fields(self):
        cfg = small_fusion_config()
        doc = cfg.to_dict()
        assert doc["label_columns"] == ["yes", "no"]
        assert doc["fusion"]["lr_high"] == 0.5
        assert doc["encoder"]["dim"] == 16


class TestFitValidation:
    def test_empty_dataset(self, toy_schema):
        ds = sf.make_dataset(toy_schema, MC, [], [])
        with pytest.raises(sf.InvalidDatasetError, match="no rows"):
            sf.fit(ds, small_fusion_config())

    def test_missing_targets(self, toy_schema):
        ds = sf.make_dataset(toy_schema, MC, ["a", "b"],
                             [sf.LabelVector((1, 0)), None])
        with pytest.raises(sf.InvalidDatasetError, match="target"):
            sf.fit(ds, small_fusion_config())

    def test_schema_mismatch(self, toy_dataset):
        cfg = small_fusion_config(label_columns=("up", "down"))
        with pytest.raises(sf.DataError, match="label"):
            sf.fit(toy_dataset, cfg)

    def test_mode_mismatch(self, toy_dataset):
        cfg = small_fusion_config(multi_label=True)
        with pytest.raises(sf.DataError, match="mode"):
            sf.fit(toy_dataset, cfg)


    def test_projection_too_large_fails_before_scoring(self, toy_dataset,
                                                      toy_table, tmp_path):
        """A slot map of 2^48 int32 values exceeds every 64-bit address
        space: a config error naming the size, before any provider call,
        cache or run directory."""
        cfg = small_fusion_config(encoder=sf.EncoderConfig(buckets=2 ** 48),
                                  cache_dir=str(tmp_path / "cache"))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        with pytest.raises(sf.ConfigurationError,
                           match=r"buckets = 281474976710656 int32 values "
                                 r"\(1125899906842624 bytes\)"):
            sf.fit(toy_dataset, cfg, tmp_path / "runs", providers=[provider])
        assert provider.calls == 0
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "runs").exists()


class TestFit:
    def test_returns_model_and_finalized_record(self, toy_dataset, toy_table):
        model, record, _ = _fit_toy(toy_dataset, toy_table)
        assert isinstance(model, sf.FusionModel)
        assert model.fusion_params.input_dim == 16 + 1 * 2
        assert record.finalized
        assert len(record.epoch_logs) == 30
        assert all("train_loss" in e for e in record.epoch_logs)
        assert len(record.predictions) == len(toy_dataset)

    def test_overfits_toy_data(self, toy_dataset, toy_table):
        # uninformative mock scores force the encoder to learn the mapping
        cfg = small_fusion_config(
            fusion=sf.FusionConfig(hidden_sizes=(16,), epochs=150,
                                   lr_high=0.5, train_batch_size=8, seed=42))
        model, record, _ = _fit_toy(toy_dataset, toy_table, cfg)
        assert record.epoch_logs[-1]["train_loss"] < 0.05
        preds = sf.predict(model, list(TOY_TEXTS),
                           providers=[sf.MockProvider(toy_table,
                                                      model.schema)])
        decided = [p.decided.bits for p in preds]
        want = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(8)]
        assert decided == want

    def test_validation_metrics_logged(self, toy_dataset, toy_table):
        cfg = small_fusion_config(validation_fraction=0.25)
        _, record, _ = _fit_toy(toy_dataset, toy_table, cfg)
        assert all("val_accuracy" in e and "val_macro_f1" in e
                   for e in record.epoch_logs)
        assert record.metrics is not None

    def test_no_validation_no_metrics(self, toy_dataset, toy_table):
        _, record, _ = _fit_toy(toy_dataset, toy_table)
        assert all("val_accuracy" not in e for e in record.epoch_logs)
        assert record.metrics is None

    def test_determinism_across_runs(self, toy_dataset, toy_table, tmp_path):
        paths = []
        for i in range(2):
            model, _, _ = _fit_toy(toy_dataset, toy_table)
            path = tmp_path / f"m{i}.json"
            sf.save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_model(self, toy_dataset, toy_table, tmp_path):
        cfg2 = small_fusion_config(
            fusion=sf.FusionConfig(hidden_sizes=(16,), epochs=30,
                                   lr_high=0.5, train_batch_size=8, seed=43))
        m1, _, _ = _fit_toy(toy_dataset, toy_table)
        m2, _, _ = _fit_toy(toy_dataset, toy_table, cfg2)
        sf.save_model(m1, tmp_path / "a.json")
        sf.save_model(m2, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() != \
            (tmp_path / "b.json").read_bytes()

    def test_divergence_raises_configuration_error(self, toy_dataset,
                                                   toy_table):
        cfg = small_fusion_config(
            fusion=sf.FusionConfig(hidden_sizes=(16,), epochs=30,
                                   lr_high=1e6, train_batch_size=8, seed=42))
        with pytest.raises(sf.ConfigurationError,
                           match=r"epoch \d+.*lr_high=1e\+06.*lr_small=0.05"):
            _fit_toy(toy_dataset, toy_table, cfg)

    def test_run_directory_layout(self, toy_dataset, toy_table, tmp_path):
        _, record, _ = _fit_toy(toy_dataset, toy_table,
                                runs_root=tmp_path / "runs")
        run_dir = tmp_path / "runs" / record.run_id
        assert (run_dir / "config.json").is_file()
        assert (run_dir / "epochs.jsonl").is_file()
        assert (run_dir / "predictions.csv").is_file()
        assert (run_dir / "metrics.json").is_file()
        loaded = load_run(tmp_path / "runs", record.run_id)
        assert loaded.epoch_logs == record.epoch_logs

    def test_config_snapshot_sections_decode_back(self, toy_dataset,
                                                  toy_table, tmp_path):
        cfg = small_fusion_config(llm_providers=(
            sf.ProviderConfig(provider_id="mock"),
            sf.ProviderConfig(provider_id="mock", model_name="second",
                              temperature=0.5, timeout_ms=7)))
        providers = [sf.MockProvider(toy_table, toy_dataset.schema)] * 2
        _, record = sf.fit(toy_dataset, cfg, providers=providers,
                           runs_root=tmp_path)
        doc = json.loads((tmp_path / record.run_id / "config.json")
                         .read_text(encoding="utf-8"))["config"]
        assert tuple(sf.ProviderConfig.from_dict(p, "provider")
                     for p in doc["llm_providers"]) == cfg.llm_providers
        assert sf.EncoderConfig.from_dict(doc["encoder"], "encoder") \
            == cfg.encoder
        assert sf.FusionConfig.from_dict(doc["fusion"], "fusion") \
            == cfg.fusion

    @pytest.mark.parametrize("variant", ["hashed", "frozen", "multi_label",
                                         "no_providers"])
    def test_config_snapshot_decodes_to_the_fitted_config(
            self, variant, toy_dataset, toy_table, tmp_path):
        """A run's own config.json reads back as the config that trained
        it, with one AutoFusionConfig.from_dict call."""
        ds, fusion = toy_dataset, dict(hidden_sizes=(4,), epochs=2)
        overrides = {"cache_dir": str(tmp_path / "cache"),
                     "text_column": "body"}
        if variant == "frozen":
            path = tmp_path / "emb.tsv"
            sf.write_mock_table({t: (i / 8, 1 - i / 8)
                                 for i, t in enumerate(TOY_TEXTS)}, str(path))
            overrides["encoder"] = str(path)
        elif variant == "multi_label":
            ds = sf.make_dataset(ds.schema, sf.TaskMode.MULTI_LABEL,
                                 list(TOY_TEXTS),
                                 [sf.LabelVector((i % 2, int(i % 3 == 0)))
                                  for i in range(len(TOY_TEXTS))])
            overrides["multi_label"] = True
            fusion["threshold"] = (0.25, 0.75)
        elif variant == "no_providers":
            overrides["llm_providers"] = ()
        cfg = small_fusion_config(fusion=sf.FusionConfig(**fusion),
                                  **overrides)
        providers = [sf.MockProvider(toy_table, ds.schema)] \
            if cfg.llm_providers else None
        _, record = sf.fit(ds, cfg, runs_root=tmp_path / "runs",
                           providers=providers)
        config = load_run(tmp_path / "runs", record.run_id).config
        assert sf.AutoFusionConfig.from_dict(config, "config") == cfg


class TestFitCaching:
    def test_second_fit_makes_zero_calls(self, toy_dataset, toy_table,
                                         tmp_path):
        cfg = small_fusion_config(cache_dir=str(tmp_path / "cache"))
        p1 = sf.MockProvider(toy_table, toy_dataset.schema)
        sf.fit(toy_dataset, cfg, providers=[p1])
        assert p1.calls == len(toy_dataset)
        p2 = sf.MockProvider(toy_table, toy_dataset.schema)
        sf.fit(toy_dataset, cfg, providers=[p2])
        assert p2.calls == 0

    def test_changed_data_strict_raises(self, toy_dataset, toy_schema,
                                        toy_table, tmp_path):
        cfg = small_fusion_config(cache_dir=str(tmp_path / "cache"))
        p = sf.MockProvider(toy_table, toy_schema)
        sf.fit(toy_dataset, cfg, providers=[p])
        changed = sf.make_dataset(
            toy_schema, MC, [t.upper() for t in TOY_TEXTS],
            [r.target for r in toy_dataset.rows])
        with pytest.raises(sf.StaleCacheError):
            sf.fit(changed, cfg,
                   providers=[sf.MockProvider({}, toy_schema)])

    def test_changed_data_warn_refetches(self, toy_dataset, toy_schema,
                                         toy_table, tmp_path):
        cfg = small_fusion_config(cache_dir=str(tmp_path / "cache"),
                                  cache_policy="warn")
        sf.fit(toy_dataset, cfg,
               providers=[sf.MockProvider(toy_table, toy_schema)])
        upper = {t.upper(): (0.5, 0.5) for t in TOY_TEXTS}
        changed = sf.make_dataset(
            toy_schema, MC, [t.upper() for t in TOY_TEXTS],
            [r.target for r in toy_dataset.rows])
        p = sf.MockProvider(upper, toy_schema)
        sf.fit(changed, cfg, providers=[p])
        assert p.calls == len(changed)  # stale entries read as misses


class TestPredict:
    def test_empty_input(self, toy_dataset, toy_table):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        provider = sf.MockProvider(toy_table, model.schema)
        preds = sf.predict(model, [], providers=[provider])
        assert preds.scores.shape == preds.decided.shape == (0, 2)
        assert preds.scores.dtype == np.float64
        assert preds.decided.dtype == bool
        assert list(preds) == []
        assert provider.calls == 0

    def test_bare_string_is_a_data_error(self, toy_dataset, toy_table):
        """A str is not a list of texts: sf.predict and the classifier
        reject it before any call, not as one paid row per character."""
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        clf = sf.AutoFusionClassifier(model.config)
        clf.model = model
        provider = sf.MockProvider(toy_table, model.schema)
        for call in (lambda: sf.predict(model, "hello", providers=[provider]),
                     lambda: clf.predict("hello", providers=[provider])):
            with pytest.raises(sf.DataError, match="not one str"):
                call()
        assert provider.calls == 0

    def test_order_preserved_and_scores_valid(self, toy_dataset, toy_table):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        texts = list(reversed(TOY_TEXTS))
        preds = sf.predict(model, texts,
                           providers=[sf.MockProvider(toy_table,
                                                      model.schema)])
        assert len(preds) == len(texts)
        for p in preds:
            assert sum(p.scores.values) == pytest.approx(1.0)
            assert sum(p.decided.bits) == 1

    def test_warm_cache_serves_predictions(self, toy_dataset, toy_table,
                                           tmp_path):
        cfg = small_fusion_config(cache_dir=str(tmp_path / "cache"))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, _ = sf.fit(toy_dataset, cfg, providers=[provider])
        cache = cache_open_adopt(tmp_path / "cache")
        empty = sf.MockProvider({}, model.schema)  # would give uniform
        preds = sf.predict(model, list(TOY_TEXTS), cache=cache,
                           providers=[empty])
        assert empty.calls == 0
        want = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(8)]
        assert [p.decided.bits for p in preds] == want


class TestFusedInput:
    def test_embedding_then_providers_in_order(self):
        """The head's input is [embedding | provider 1 scores | provider 2
        scores]: a one-layer head that copies chosen input columns to the
        logits exposes the layout."""
        schema = sf.LabelSchema(("yes", "no"))
        encoder = HashedNgramEncoder(
            sf.EncoderConfig(dim=2, ngram_sizes=(3,), buckets=16), seed=0)
        weights = np.zeros((6, 2))
        weights[4, 0] = 1.0  # logit 0 <- provider 2, class "yes"
        weights[1, 1] = 1.0  # logit 1 <- embedding column 1
        params = FusionParams([weights], [np.zeros(2)])
        model = sf.FusionModel(sf.AutoFusionConfig(
            label_columns=schema.labels, multi_label=True,
            llm_providers=(
                sf.ProviderConfig(provider_id="mock"),
                sf.ProviderConfig(provider_id="mock", model_name="second")),
            encoder=encoder.cfg, fusion=sf.FusionConfig(hidden_sizes=())),
            encoder, params)
        text = "layout check"
        providers = [sf.MockProvider({text: (0.1, 0.9)}, schema),
                     sf.MockProvider({text: (0.4, 0.6)}, schema)]
        (pred,) = sf.predict(model, [text], providers=providers)
        want = sf.sigmoid(np.array([0.4, encoder.encode(text)[1]]))
        assert list(pred.scores.values) == want.tolist()

    def test_config_must_describe_the_encoder(self):
        """A model's config.encoder is its hashed encoder's settings, or a
        path for a frozen one; anything else would not survive a save."""
        encoder = HashedNgramEncoder(
            sf.EncoderConfig(dim=2, ngram_sizes=(3,), buckets=16), seed=0)
        params = FusionParams([np.zeros((2, 2))], [np.zeros(2)])
        for described in (replace(encoder.cfg, lr_small=0.5), "emb.tsv"):
            cfg = sf.AutoFusionConfig(
                label_columns=("yes", "no"), llm_providers=(),
                encoder=described, fusion=sf.FusionConfig(hidden_sizes=()))
            with pytest.raises(sf.ConfigurationError,
                               match="does not describe the model's "
                                     "HashedNgramEncoder"):
                sf.FusionModel(cfg, encoder, params)


class TestEvaluate:
    def test_perfect_on_training_set(self, toy_dataset, toy_table):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        report = sf.evaluate(model, toy_dataset,
                             providers=[sf.MockProvider(toy_table,
                                                        model.schema)])
        assert report.accuracy == 1.0
        assert report.f1 == 1.0

    def test_hand_checked_four_rows(self, toy_schema, toy_table,
                                    toy_dataset):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        # deliberately wrong targets on half the rows
        flipped = [sf.LabelVector.from_index((i + 1) % 2, 2)
                   for i in range(4)]
        ds = sf.make_dataset(toy_schema, MC, list(TOY_TEXTS[:4]),
                             [toy_dataset.rows[0].target,
                              toy_dataset.rows[1].target,
                              flipped[2], flipped[3]])
        report = sf.evaluate(model, ds,
                             providers=[sf.MockProvider(toy_table,
                                                        model.schema)])
        assert report.accuracy == 0.5

    def test_missing_targets_rejected(self, toy_schema, toy_table,
                                      toy_dataset):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        ds = sf.make_dataset(toy_schema, MC, ["x"], [None])
        with pytest.raises(sf.InvalidDatasetError, match="target"):
            sf.evaluate(model, ds)

    def test_empty_dataset_rejected(self, toy_schema, toy_table,
                                    toy_dataset):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        ds = sf.make_dataset(toy_schema, MC, [], [])
        with pytest.raises(sf.InvalidDatasetError, match="no rows"):
            sf.evaluate(model, ds)

    def test_label_mismatch_rejected(self, toy_dataset, toy_table):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        other = sf.make_dataset(sf.LabelSchema(("up", "down")), MC,
                                ["x"], [sf.LabelVector((1, 0))])
        with pytest.raises(sf.DataError, match="label"):
            sf.evaluate(model, other)

    def test_records_run_when_given(self, toy_dataset, toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        providers = [sf.MockProvider(toy_table, model.schema)]
        record = sf.evaluate_as_run(model, toy_dataset, tmp_path,
                                    {"note": "eval"}, providers=providers)
        loaded = load_run(tmp_path, record.run_id)
        assert loaded.finalized
        assert loaded.config == {"note": "eval"}
        assert loaded.metrics == sf.evaluate(model, toy_dataset,
                                             providers=providers)
        assert len(loaded.predictions) == len(toy_dataset)


class TestTextNotUtf8:
    """A text holding a lone surrogate, as Python decodes an undecodable
    command-line byte, is a DataError naming its row, and no run is left
    behind."""

    @pytest.mark.parametrize("op", ["fit", "predict", "evaluate",
                                    "evaluate_as_run"])
    def test_named_by_row(self, op, toy_dataset, toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        texts = list(TOY_TEXTS)
        texts[2] = "bad \udcff text"
        ds = sf.make_dataset(toy_dataset.schema, MC, texts,
                             [row.target for row in toy_dataset.rows])
        providers = [sf.MockProvider(toy_table, model.schema)]
        calls = {
            "fit": lambda: sf.fit(ds, small_fusion_config(), tmp_path,
                                  providers=providers),
            "predict": lambda: sf.predict(model, texts, providers=providers),
            "evaluate": lambda: sf.evaluate(model, ds, providers=providers),
            "evaluate_as_run": lambda: sf.evaluate_as_run(
                model, ds, tmp_path, {}, providers=providers),
        }
        with pytest.raises(sf.DataError, match="row 2: text is not valid "
                                               "UTF-8"):
            calls[op]()
        assert list(tmp_path.iterdir()) == []


class TestSaveLoad:
    def test_round_trip_predictions_identical(self, toy_dataset, toy_table,
                                              tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        path = tmp_path / "model.json"
        sf.save_model(model, path)
        loaded = sf.load_model(path)
        mk = lambda m: sf.MockProvider(toy_table, m.schema)
        p1 = sf.predict(model, list(TOY_TEXTS), providers=[mk(model)])
        p2 = sf.predict(loaded, list(TOY_TEXTS), providers=[mk(loaded)])
        for a, b in zip(p1, p2):
            assert a.scores.values == b.scores.values
            assert a.decided.bits == b.decided.bits

    def test_save_is_byte_stable(self, toy_dataset, toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(model, tmp_path / "a.json")
        sf.save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_predict_leaves_the_model_unchanged(self, toy_dataset, toy_table,
                                                tmp_path):
        """predict and encode_batch, on unseen texts too, neither store a
        row nor change the saved bytes of a fitted or a loaded model."""
        fitted, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(fitted, tmp_path / "before.json")
        loaded = sf.load_model(tmp_path / "before.json")
        texts = list(TOY_TEXTS) + ["never seen qzx words", "jjvvkk"]
        for model in (fitted, loaded):
            ids, rows = model.encoder.stored_rows()
            sf.predict(model, texts,
                       providers=[sf.MockProvider(toy_table, model.schema)])
            model.encoder.encode_batch(texts)
            assert model.encoder.stored_rows()[0].tolist() == ids.tolist()
            assert np.array_equal(model.encoder.stored_rows()[1], rows)
            sf.save_model(model, tmp_path / "after.json")
            assert (tmp_path / "after.json").read_bytes() == \
                (tmp_path / "before.json").read_bytes()

    def test_metadata_round_trips(self, toy_dataset, toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        path = tmp_path / "model.json"
        sf.save_model(model, path)
        loaded = sf.load_model(path)
        assert loaded.config == model.config
        assert loaded.schema.labels == model.schema.labels
        assert loaded.mode is model.mode
        for w1, w2 in zip(model.fusion_params.weights,
                          loaded.fusion_params.weights):
            assert np.array_equal(w1, w2)

    # Files written by the writer of each format, each beside the scores
    # and decisions it gave on some texts (`<name>_expected.json`):
    # - model_v1: multi-label, two providers, per-class thresholds;
    # - model_v2: multi-class, one provider, its projection holding an
    #   all-zero row and a -0.0 entry;
    # - model_v3: multi-label, two providers, per-class thresholds, a
    #   sign_init start with some rows moved;
    # - model_v3_frozen: multi-class, one provider, a frozen-lookup encoder;
    # - model_v4: multi-class, one provider, a sign_init start with some
    #   rows moved by training and one unmoved row holding a -0.0 entry.
    OLD_MODELS = sorted(p for p in DATA.glob("model_v*.json")
                        if not p.stem.endswith("_expected"))

    def _assert_decisions(self, model, expected_path):
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
        texts = expected["texts"]
        providers = [sf.MockProvider(dict(zip(texts, rows)), model.schema)
                     for rows in expected["provider_tables"]]
        preds = sf.predict(model, texts, providers=providers)
        assert [list(p.decided.bits) for p in preds] == expected["decided"]
        assert [list(p.scores.values) for p in preds] == expected["scores"]

    # The name dates from when the current format had no fixture; every
    # format up to the current one has one now.
    def test_a_fixture_for_every_earlier_format(self):
        versions = {json.loads(p.read_text(encoding="utf-8"))["format_version"]
                    for p in self.OLD_MODELS}
        assert versions == set(range(1, MODEL_FORMAT_VERSION + 1))

    def _assert_resaves_stable(self, path, tmp_path):
        """A file of an earlier format re-saves as the current format, its
        config and arrays bit for bit; that file predicts as the old one did
        and re-saves to the same bytes. Returns the first re-saved document."""
        expected = path.with_name(f"{path.stem}_expected.json")
        old = sf.load_model(path)
        sf.save_model(old, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
        assert doc["format_version"] == MODEL_FORMAT_VERSION == 4
        if json.loads(path.read_text(encoding="utf-8"))["format_version"] < 3:
            # No init seed: every non-zero row is stored over a zero start.
            assert old.encoder.init_seed is None
            nonzero = old.encoder.projection.view(np.uint64).any(axis=1)
            assert doc["encoder"]["rows"] == np.flatnonzero(nonzero).tolist()
        new = sf.load_model(tmp_path / "a.json")
        assert new.config == old.config
        for a, b in zip(_model_arrays(old), _model_arrays(new), strict=True):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        self._assert_decisions(new, expected)
        sf.save_model(new, tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == \
            (tmp_path / "a.json").read_bytes()
        return doc

    def test_v1_file_decisions(self):
        self._assert_decisions(sf.load_model(DATA / "model_v1.json"),
                               DATA / "model_v1_expected.json")

    def test_v2_file_decisions(self):
        self._assert_decisions(sf.load_model(DATA / "model_v2.json"),
                               DATA / "model_v2_expected.json")

    # The names of the two tests below date from when format 3 was the
    # current one; they check a re-save as the current format.
    def test_v1_file_resaves_as_stable_v3(self, tmp_path):
        self._assert_resaves_stable(DATA / "model_v1.json", tmp_path)

    def test_v2_file_resaves_as_stable_v3(self, tmp_path):
        doc = self._assert_resaves_stable(DATA / "model_v2.json", tmp_path)
        # The fixture's all-zero row is left out.
        assert 5 not in doc["encoder"]["rows"]

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_v2_file_stores_the_rows_a_resave_writes(self, negative_zero,
                                                     tmp_path):
        """A format 2 file loads as a zero start plus the projection's rows
        with a set bit, so the store holds exactly the rows `moved_rows`
        saves again; a row whose only set bit is a -0.0 sign is one."""
        doc = json.loads((DATA / "model_v2.json").read_text(encoding="utf-8"))
        if negative_zero:
            flat = _decode_array(doc["encoder"]["projection"], 2)
            flat.reshape(16, -1)[5, 1] = -0.0
            doc["encoder"]["projection"] = _encode_array(flat)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        encoder = sf.load_model(path).encoder
        stored, rows = encoder.stored_rows()
        moved, moved_values = encoder.moved_rows()
        assert encoder.init_seed is None
        assert stored.tolist() == moved.tolist()
        assert (5 in stored) is negative_zero
        assert rows.tobytes() == moved_values.tobytes()

    @pytest.mark.parametrize(
        "path", [p for p in OLD_MODELS if p.stem.startswith("model_v3")],
        ids=lambda p: p.stem)
    def test_old_format_file(self, path, tmp_path):
        """A format-3 file predicts its expected file exactly and re-saves
        stably as the current format."""
        self._assert_decisions(
            sf.load_model(path), path.with_name(f"{path.stem}_expected.json"))
        self._assert_resaves_stable(path, tmp_path)

    def test_current_format_file(self, tmp_path):
        """A format-4 file predicts its expected file exactly and re-saves
        to its own bytes."""
        path = DATA / "model_v4.json"
        model = sf.load_model(path)
        self._assert_decisions(model, DATA / "model_v4_expected.json")
        assert model.encoder.init_seed is not None
        sf.save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_old_frozen_file_cannot_fit(self, tmp_path):
        """A format-3 frozen-lookup file never recorded its embedding path:
        it predicts and evaluates through the classifier, and a fit from it
        fails with a DataError naming the fact, before any provider call,
        cache or run directory."""
        clf = sf.AutoFusionClassifier.from_model_file(
            DATA / "model_v3_frozen.json")
        assert clf.config.encoder == "<not recorded by model format 3>"
        expected = json.loads((DATA / "model_v3_frozen_expected.json")
                              .read_text(encoding="utf-8"))
        texts, [rows] = expected["texts"], expected["provider_tables"]
        table = dict(zip(texts, rows))
        schema = clf.config.schema
        preds = clf.predict(texts, providers=[sf.MockProvider(table, schema)])
        assert preds.decided.astype(int).tolist() == expected["decided"]
        ds = sf.make_dataset(schema, MC, texts,
                             [sf.LabelVector(d) for d in expected["decided"]])
        report = clf.evaluate(ds, runs_root=tmp_path / "runs",
                              providers=[sf.MockProvider(table, schema)])
        assert report.accuracy == 1.0
        provider = sf.MockProvider(table, schema)
        cached = replace(clf.config, cache_dir=str(tmp_path / "cache"))
        for fit in (lambda: clf.fit(ds, tmp_path / "fit-runs", [provider]),
                    lambda: sf.fit(ds, cached, tmp_path / "fit-runs",
                                   providers=[provider])):
            with pytest.raises(sf.DataError,
                               match="not recorded by model format 3"):
                fit()
        assert provider.calls == 0
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "fit-runs").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(sf.ModelFormatError, match="cannot read"):
            sf.load_model(tmp_path / "absent.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(sf.ModelFormatError, match="JSON"):
            sf.load_model(path)

    def test_wrong_version(self, toy_dataset, toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        path = tmp_path / "m.json"
        sf.save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["format_version"] = MODEL_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(sf.ModelFormatError, match="version"):
            sf.load_model(path)

    def test_bool_version_rejected(self, toy_dataset, toy_table, tmp_path):
        # true == 1, so a membership test alone reads it as format 1
        path = self._doctored(toy_dataset, toy_table, tmp_path,
                              lambda doc: doc.update(format_version=True))
        with pytest.raises(sf.ModelFormatError, match="version True"):
            sf.load_model(path)

    def test_unknown_provider_key_named(self, toy_dataset, toy_table,
                                        tmp_path):
        path = self._doctored(toy_dataset, toy_table, tmp_path,
                              lambda doc: doc["config"]["llm_providers"][0]
                              .update(stray=1))
        with pytest.raises(sf.ModelFormatError,
                           match=r"llm_providers\[0\]: unknown llm_providers "
                                 "key 'stray'"):
            sf.load_model(path)

    def _doctored(self, toy_dataset, toy_table, tmp_path, edit):
        """A saved toy model file after `edit(doc)`."""
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        path = tmp_path / "m.json"
        sf.save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_truncated_weights(self, toy_dataset, toy_table, tmp_path):
        def edit(doc):
            doc["fusion"]["layers"][0]["weight"] = _encode_array(
                np.array([0.0, 1.0]))
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match="expected"):
            sf.load_model(path)

    @staticmethod
    def _resize_first_bias(size):
        def edit(doc):
            doc["fusion"]["layers"][0]["bias"] = _encode_array(np.zeros(size))
        return edit

    @staticmethod
    def _shrink_last_fan_in(doc):
        layer = doc["fusion"]["layers"][-1]
        fan_in, fan_out = layer["shape"]
        layer["shape"] = [fan_in - 1, fan_out]
        layer["weight"] = _encode_array(np.zeros((fan_in - 1) * fan_out))

    @staticmethod
    def _claim_other_hidden_sizes(doc):
        doc["config"]["fusion"]["hidden_sizes"] = [99, 7]

    @pytest.mark.parametrize("edit, match", [
        (_resize_first_bias(1), r"shape \(16,\) has 1 values, expected 16"),
        (_resize_first_bias(2), r"shape \(16,\) has 2 values, expected 16"),
        (_shrink_last_fan_in, "layer 1 has fan-in 15, expected the previous "
                              "layer's fan-out 16"),
        (_claim_other_hidden_sizes,
         r"hidden_sizes \[99, 7\] != the layers' widths \[16\]"),
    ], ids=["bias_of_one", "short_bias", "fan_in_mismatch",
            "hidden_sizes_mismatch"])
    def test_layer_shapes_checked(self, toy_dataset, toy_table, tmp_path,
                                  edit, match):
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match=match):
            sf.load_model(path)

    @pytest.mark.parametrize("value, match", [
        ("AAAAAAAAAAA*", "base64"),
        ("AAAAAAAAAAA", "base64"),
        ("AAAAAAAAAAA=AAAA", "base64"),
        (_encode_array(np.zeros(2))[:-4] + "AAA=", "multiple of 8"),
        ([0.0] * 8, "base64 string, got list"),
    ], ids=["bad_char", "bad_padding", "data_after_padding", "bad_length",
            "list"])
    def test_bad_array_field(self, toy_dataset, toy_table, tmp_path, value,
                             match):
        def edit(doc):
            doc["encoder"]["projection_rows"] = value
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match=match):
            sf.load_model(path)

    def test_other_prompt_version_rejected(self, toy_dataset, toy_table,
                                           tmp_path):
        other = PROMPT_TEMPLATE_VERSION + 1
        def edit(doc):
            doc["prompt_template_version"] = other
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError,
                           match=f"version {other}.*version "
                                 f"{PROMPT_TEMPLATE_VERSION}"):
            sf.load_model(path)

    def test_failed_save_keeps_previous_file(self, toy_dataset, toy_table,
                                             tmp_path, monkeypatch):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        path = tmp_path / "m.json"
        sf.save_model(model, path)
        before = path.read_bytes()
        real_write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            real_write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(sf.DataError, match="cannot write"):
            sf.save_model(model, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    @pytest.mark.parametrize("where, value", [
        ("projection", np.nan), ("weight", np.inf), ("bias", -np.inf)])
    def test_non_finite_weight_rejected(self, toy_dataset, toy_table,
                                        tmp_path, where, value):
        def edit(doc):
            holder, key = (doc["encoder"], "projection_rows") \
                if where == "projection" else (doc["fusion"]["layers"][-1], where)
            flat = _decode_array(holder[key], MODEL_FORMAT_VERSION)
            flat[-1] = value
            holder[key] = _encode_array(flat)
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match="non-finite weight"):
            sf.load_model(path)

    def test_format3_stores_the_rows_training_moved(self, toy_dataset,
                                                    toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(model, tmp_path / "m.json")
        enc = json.loads((tmp_path / "m.json").read_text())["encoder"]
        cfg = model.encoder.cfg
        start = sign_init(model.encoder.init_seed, cfg.buckets, cfg.dim)
        moved = np.flatnonzero((model.encoder.projection != start).any(axis=1))
        assert enc["init_seed"] == model.encoder.init_seed
        assert 0 < len(enc["rows"]) < cfg.buckets
        assert enc["rows"] == moved.tolist()
        assert np.array_equal(
            _decode_array(enc["projection_rows"], MODEL_FORMAT_VERSION),
            model.encoder.projection[moved].ravel())
        assert "projection" not in enc

    def _assert_resave_stable(self, model, tmp_path):
        sf.save_model(model, tmp_path / "a.json")
        loaded = sf.load_model(tmp_path / "a.json")
        assert np.array_equal(loaded.encoder.projection.view(np.uint64),
                              model.encoder.projection.view(np.uint64))
        sf.save_model(loaded, tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == \
            (tmp_path / "a.json").read_bytes()
        return json.loads((tmp_path / "a.json").read_text())["encoder"]

    def test_negative_zero_survives(self, tmp_path):
        """Rows are compared as bits: over a zero start, a row whose only
        set bit is the sign of a -0.0 is stored and reads back as -0.0."""
        model = sf.load_model(DATA / "model_v2.json")
        assert not model.encoder.projection[5].any()
        row = np.zeros((1, model.encoder.dim))
        row[0, 1] = -0.0
        model.encoder.set_rows(np.array([5]), row)
        enc = self._assert_resave_stable(model, tmp_path)
        assert 5 in enc["rows"]

    def test_row_set_back_to_its_init_is_not_stored(self, toy_dataset,
                                                     toy_table, tmp_path):
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        cfg = model.encoder.cfg
        start = sign_init(model.encoder.init_seed, cfg.buckets, cfg.dim)
        [row, *_] = np.flatnonzero((model.encoder.projection != start)
                                   .any(axis=1))
        model.encoder.set_rows(np.array([row]), start[row][None])
        enc = self._assert_resave_stable(model, tmp_path)
        assert row not in enc["rows"]

    @staticmethod
    def _edit_rows(how):
        def edit(doc):
            rows = doc["encoder"]["rows"]
            if how == "unsorted":
                rows[0], rows[1] = rows[1], rows[0]
            elif how == "duplicate":
                rows[1] = rows[0]
            elif how == "negative":
                rows[0] = -1
            elif how == "past_buckets":
                rows[-1] = doc["config"]["encoder"]["buckets"]
            elif how == "float":
                rows[0] = float(rows[0])
            elif how == "bool":
                rows[0] = True
            elif how == "not_a_list":
                doc["encoder"]["rows"] = {"0": rows[0]}
        return edit

    @pytest.mark.parametrize("how, match", [
        ("unsorted", "strictly increasing"),
        ("duplicate", "strictly increasing"),
        ("negative", r"rows must lie in \[0, 1024\)"),
        ("past_buckets", r"rows must lie in \[0, 1024\)"),
        ("float", "list of integers"),
        ("bool", "list of integers"),
        ("not_a_list", "list of integers"),
    ])
    def test_bad_rows(self, toy_dataset, toy_table, tmp_path, how, match):
        path = self._doctored(toy_dataset, toy_table, tmp_path,
                              self._edit_rows(how))
        with pytest.raises(sf.ModelFormatError, match=match):
            sf.load_model(path)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 7.0, True, "7"],
                             ids=["negative", "2**64", "float", "bool", "str"])
    def test_init_seed_must_be_uint64(self, toy_dataset, toy_table, tmp_path,
                                      seed):
        def edit(doc):
            doc["encoder"]["init_seed"] = seed
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError,
                           match=r"seed must be an integer in \[0, 2\*\*64\)"):
            sf.load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("init_sha256", "0" * 64), ("init_sha256", None),
        ("init_seed", 2 ** 64 - 1)])
    def test_init_digest_checked(self, toy_dataset, toy_table, tmp_path,
                                 field, value):
        """A digest that does not match the init fails, as does
        a seed that is not the one the digest was taken of."""
        def edit(doc):
            doc["encoder"][field] = value
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match="init_sha256"):
            sf.load_model(path)

    def test_projection_rows_sized_by_rows(self, toy_dataset, toy_table,
                                           tmp_path):
        def edit(doc):
            doc["encoder"]["rows"].pop()
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError, match=r"shape \(\d+, 16\)"):
            sf.load_model(path)

    def test_default_encoder_file_stays_small(self, tmp_path):
        """The file grows with the fit vocabulary: a default 2^15 x 64
        encoder fit on 500 rows is far below the 16 MiB of its projection."""
        data = sf.make_complementary_data(n_rows=1000, k=4, seed=7)
        cfg = sf.AutoFusionConfig(
            label_columns=data.train.schema.labels,
            llm_providers=(sf.ProviderConfig(provider_id="mock"),),
            fusion=sf.FusionConfig(epochs=2), validation_fraction=0.0)
        provider = sf.MockProvider(data.mock_table, data.train.schema)
        model, _ = sf.fit(data.train, cfg, providers=[provider])
        assert len(data.train) == 500
        assert model.encoder.cfg == sf.EncoderConfig()
        sf.save_model(model, tmp_path / "m.json")
        assert (tmp_path / "m.json").stat().st_size < 2 * 2 ** 20

    def test_save_holds_no_second_projection(self, toy_dataset, toy_table,
                                             tmp_path):
        """numpy reports its buffers to tracemalloc: saving a default
        2^15 x 64 model compares its 16 MiB projection with the init one
        row block at a time, so the save peaks under 4 MiB above its
        start."""
        cfg = small_fusion_config(encoder=sf.EncoderConfig())
        model, _, _ = _fit_toy(toy_dataset, toy_table, cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sf.save_model(model, tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        loaded = sf.load_model(tmp_path / "m.json")
        assert np.array_equal(loaded.encoder.projection.view(np.uint64),
                              model.encoder.projection.view(np.uint64))

    def test_load_holds_no_projection(self, toy_dataset, toy_table,
                                      tmp_path):
        """numpy reports its buffers to tracemalloc: loading a default
        2^15 x 64 model stores only the file's rows beside the 128 KiB slot
        map, so the load peaks under 4 MiB above its start."""
        cfg = small_fusion_config(encoder=sf.EncoderConfig())
        model, _, _ = _fit_toy(toy_dataset, toy_table, cfg)
        sf.save_model(model, tmp_path / "m.json")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = sf.load_model(tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        ids, _ = loaded.encoder.stored_rows()
        assert ids.tolist() == json.loads(
            (tmp_path / "m.json").read_text())["encoder"]["rows"]

    def test_start_digest_is_made_once(self, toy_dataset, toy_table,
                                       tmp_path):
        """The start's digest depends only on (init_seed, buckets, dim): a
        load and two saves of a 2^15 x 64 model hash the words of its 32
        blocks of 1,024 rows once in the process, not once per call."""
        cfg = small_fusion_config(encoder=sf.EncoderConfig())
        model, _, _ = _fit_toy(toy_dataset, toy_table, cfg)
        sf.save_model(model, tmp_path / "m.json")
        hashed, sha256 = [], hashlib.sha256

        class CountingSha256:
            def __init__(self, *data):
                self._digest = sha256(*data)

            def update(self, data):
                hashed.append(len(data))
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        _init_sha256.cache_clear()
        with mock.patch("hashlib.sha256", CountingSha256):
            loaded = sf.load_model(tmp_path / "m.json")
            sf.save_model(loaded, tmp_path / "a.json")
            sf.save_model(loaded, tmp_path / "b.json")
        assert hashed == [1024 * 8] * 32
        for name in ("a.json", "b.json"):
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "m.json").read_bytes()

    def test_save_after_predict_is_unchanged(self, toy_dataset, toy_table,
                                             tmp_path):
        """Predicting stores the start of every row its texts touch; those
        rows did not move, so the saved bytes stay the same."""
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(model, tmp_path / "a.json")
        texts = ["texts the fit never saw", "zq xj vk", "ünïcödé wörds"]
        sf.predict(model, texts, providers=[sf.MockProvider(
            {t: (0.5, 0.5) for t in texts}, model.schema)])
        sf.save_model(model, tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == \
            (tmp_path / "a.json").read_bytes()

    def test_fit_after_predict_saves_a_fresh_fits_bytes(
            self, toy_dataset, toy_table, tmp_path, monkeypatch):
        """A fit whose encoder embedded other texts first saves the bytes
        of a fit from a fresh one: embedding stored no row."""
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(model, tmp_path / "fresh.json")
        import scorefusion.pipeline as pipeline_mod

        build = pipeline_mod._build_encoder

        def used_encoder(cfg):
            encoder = build(cfg)
            for text in ("zq xj vk", *TOY_TEXTS[::-3], "other words"):
                encoder.encode_batch([text])
            assert encoder.stored_rows()[0].size == 0
            return encoder

        monkeypatch.setattr(pipeline_mod, "_build_encoder", used_encoder)
        model, _, _ = _fit_toy(toy_dataset, toy_table)
        sf.save_model(model, tmp_path / "used.json")
        assert (tmp_path / "used.json").read_bytes() == \
            (tmp_path / "fresh.json").read_bytes()

    # 16 rows of 16 values per block: rows 0 and 15 open and close the
    # first block, 16 opens the second, and rows 32-39 are a short last
    # block.
    @pytest.mark.parametrize("seed", [None, 2 ** 63 + 5])
    def test_moved_rows_at_block_boundaries(self, seed, tmp_path):
        cfg = sf.EncoderConfig(dim=16, ngram_sizes=(3,), buckets=40)
        enc = HashedNgramEncoder(cfg, seed=seed)
        moved = [0, 15, 16, 31, 32, 39]
        values = enc.projection[moved]
        for i, row in enumerate(moved):
            # A lone -0.0 over a zero start, a sign flip over sign_init.
            values[i, row % 16] = -0.0 if seed is None \
                else -values[i, row % 16]
        # Rows stored at their start are not moved; the moved rows are
        # stored after them, so the store is out of bucket order.
        enc.set_rows(np.array([38, 1, 20]), enc.projection[[38, 1, 20]])
        enc.set_rows(np.array(moved), values)
        with mock.patch("scorefusion.encoder._INIT_BLOCK_VALUES", 256):
            ids, rows = enc.moved_rows()
            assert ids.tolist() == moved
            assert np.array_equal(rows.view(np.uint64),
                                  values.view(np.uint64))
            model = sf.FusionModel(
                small_fusion_config(encoder=cfg), enc,
                sf.init_fusion_params(16 + 2, (16,), 2, seed=0))
            sf.save_model(model, tmp_path / "m.json")
            loaded = sf.load_model(tmp_path / "m.json")
        enc_doc = json.loads((tmp_path / "m.json").read_text())["encoder"]
        assert enc_doc["rows"] == moved
        assert loaded.encoder.init_seed == seed
        assert np.array_equal(loaded.encoder.projection.view(np.uint64),
                              enc.projection.view(np.uint64))

    def test_moved_rows_unchanged_projection(self):
        cfg = sf.EncoderConfig(dim=3, ngram_sizes=(3,), buckets=2 ** 12)
        for seed in (None, 0):
            enc = HashedNgramEncoder(cfg, seed=seed)
            buckets = np.array([5, 70, 600])
            enc.set_rows(buckets, enc.projection[buckets])
            assert enc.stored_rows()[0].tolist() == buckets.tolist()
            assert enc.moved_rows()[0].tolist() == []

    @pytest.mark.parametrize("field, value", [
        ("ngram_sizes", [3, 2 ** 64]), ("buckets", 2 ** 70)])
    def test_size_numpy_cannot_hold_is_a_format_error(
            self, toy_dataset, toy_table, tmp_path, field, value):
        """A model file whose n-gram size or bucket count is 2^63 or more
        fails to load with a typed error naming the field, rather than
        loading and failing in predict."""
        def edit(doc):
            doc["config"]["encoder"][field] = value
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError,
                           match=rf"{field} must .*< 2\*\*63"):
            sf.load_model(path)

    def test_projection_too_large_to_load(self, toy_dataset, toy_table,
                                          tmp_path):
        """A config whose slot map cannot be allocated (2^50 int32 values
        exceed every 64-bit address space) is a model-format error."""
        def edit(doc):
            doc["config"]["encoder"]["buckets"] = 2 ** 50
        path = self._doctored(toy_dataset, toy_table, tmp_path, edit)
        with pytest.raises(sf.ModelFormatError,
                           match=r"buckets = 1125899906842624 int32 .* "
                                 r"cannot be allocated"):
            sf.load_model(path)

    def test_missing_section(self, toy_dataset, toy_table, tmp_path):
        path = self._doctored(toy_dataset, toy_table, tmp_path,
                              lambda doc: doc.pop("encoder"))
        with pytest.raises(sf.ModelFormatError, match="invalid"):
            sf.load_model(path)


# Every float64 bit pattern: signed zeros, infinities, NaNs with any
# payload and sign, subnormals.
_ANY_FLOAT64 = hnp.arrays(np.uint64, st.integers(0, 40)).map(
    lambda bits: bits.view(np.float64))


@given(_ANY_FLOAT64)
@example(np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-308]))
@example(np.array([0x7FF8000000000001, 0xFFF00000DEADBEEF],
                  dtype=np.uint64).view(np.float64))
@example(np.empty(0))
def test_array_codec_round_trips_every_bit(a):
    b = _decode_array(_encode_array(a), MODEL_FORMAT_VERSION)
    assert b.dtype == np.float64 and b.flags.writeable
    assert np.array_equal(b.view(np.uint64), a.view(np.uint64))


class TestFrozenEncoder:
    def _embeddings_file(self, tmp_path, texts, dim=4):
        rng = np.random.default_rng(0)
        path = tmp_path / "emb.tsv"
        lines = []
        vecs = {}
        for t in texts:
            v = rng.normal(size=dim)
            vecs[t] = v
            lines.append(t + "\t" + "\t".join(repr(float(x)) for x in v))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, vecs

    def test_fit_and_predict(self, toy_dataset, toy_table, tmp_path):
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS)
        cfg = small_fusion_config(encoder=str(path))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, record = sf.fit(toy_dataset, cfg, providers=[provider])
        assert isinstance(model.encoder, FrozenLookupEncoder)
        preds = sf.predict(model, list(TOY_TEXTS[:2]),
                           providers=[sf.MockProvider(toy_table,
                                                      model.schema)])
        assert len(preds) == 2

    def test_unknown_text_at_predict(self, toy_dataset, toy_table, tmp_path):
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS)
        cfg = small_fusion_config(encoder=str(path))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, _ = sf.fit(toy_dataset, cfg, providers=[provider])
        with pytest.raises(sf.UnknownTextError):
            sf.predict(model, ["never seen this"],
                       providers=[sf.MockProvider({}, model.schema)])

    def test_unknown_text_costs_no_provider_call(self, toy_dataset,
                                                 toy_table, tmp_path):
        """Texts are encoded before they are scored, so a text the table
        lacks fails fit and predict before any provider call, and fit
        leaves no cache or run behind."""
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS[1:])
        cfg = small_fusion_config(encoder=str(path),
                                  cache_dir=str(tmp_path / "cache"))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        with pytest.raises(sf.UnknownTextError, match="alpha bird sings"):
            sf.fit(toy_dataset, cfg, tmp_path / "runs", providers=[provider])
        assert provider.calls == 0
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "runs").exists()
        known = list(TOY_TEXTS[1:])
        model, _ = sf.fit(sf.make_dataset(
            toy_dataset.schema, toy_dataset.mode, known,
            [row.target for row in toy_dataset.rows[1:]]),
            replace(cfg, cache_dir=None), providers=[provider])
        provider = sf.MockProvider(toy_table, model.schema)
        with pytest.raises(sf.UnknownTextError, match="alpha bird sings"):
            sf.predict(model, known + [TOY_TEXTS[0]], providers=[provider])
        assert provider.calls == 0

    def test_save_load_keeps_table(self, toy_dataset, toy_table, tmp_path):
        path, vecs = self._embeddings_file(tmp_path, TOY_TEXTS)
        cfg = small_fusion_config(encoder=str(path))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, _ = sf.fit(toy_dataset, cfg, providers=[provider])
        out = tmp_path / "model.json"
        sf.save_model(model, out)
        loaded = sf.load_model(out)
        assert isinstance(loaded.encoder, FrozenLookupEncoder)
        for t, v in vecs.items():
            assert np.array_equal(loaded.encoder.encode(t), v)

    def test_classifier_from_model_file(self, toy_dataset, toy_table,
                                        tmp_path):
        """A frozen model loaded without its config carries its embedding
        path: its runs record the fitted config, and it fits again from the
        recorded file."""
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS, dim=3)
        cfg = small_fusion_config(encoder=str(path))
        providers = [sf.MockProvider(toy_table, toy_dataset.schema)]
        model, _ = sf.fit(toy_dataset, cfg, providers=providers)
        sf.save_model(model, tmp_path / "model.json")
        clf = sf.AutoFusionClassifier.from_model_file(tmp_path / "model.json")
        assert clf.config == clf.model.config == cfg
        clf.evaluate(toy_dataset, runs_root=tmp_path / "runs",
                     providers=providers)
        [run_dir] = (tmp_path / "runs").iterdir()
        config = load_run(tmp_path / "runs", run_dir.name).config
        assert sf.AutoFusionConfig.from_dict(config, "config") == cfg
        clf.fit(toy_dataset, providers=providers)
        assert isinstance(clf.model.encoder, FrozenLookupEncoder)
        assert clf.model.config == cfg

    def test_missing_file_fails_before_scoring(self, toy_dataset, toy_table,
                                               tmp_path):
        """The embedding file is read before any score is fetched, so a
        missing one costs no provider call and leaves no cache or run."""
        cfg = small_fusion_config(encoder=str(tmp_path / "absent.tsv"),
                                  cache_dir=str(tmp_path / "cache"))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        with pytest.raises(sf.DataError, match="cannot read .*absent.tsv"):
            sf.fit(toy_dataset, cfg, tmp_path / "runs", providers=[provider])
        assert provider.calls == 0
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "runs").exists()

    def test_non_finite_vector_rejected(self, toy_dataset, toy_table,
                                        tmp_path):
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS)
        cfg = small_fusion_config(encoder=str(path))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, _ = sf.fit(toy_dataset, cfg, providers=[provider])
        out = tmp_path / "model.json"
        sf.save_model(model, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["encoder"]["table"][TOY_TEXTS[3]] = _encode_array(
            np.array([0.0, np.nan, 1.0, 2.0]))
        out.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(sf.ModelFormatError, match="non-finite weight"):
            sf.load_model(out)


    def test_short_vector_rejected(self, toy_dataset, toy_table, tmp_path):
        path, _ = self._embeddings_file(tmp_path, TOY_TEXTS)
        cfg = small_fusion_config(encoder=str(path))
        provider = sf.MockProvider(toy_table, toy_dataset.schema)
        model, _ = sf.fit(toy_dataset, cfg, providers=[provider])
        out = tmp_path / "model.json"
        sf.save_model(model, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["encoder"]["table"][TOY_TEXTS[3]] = _encode_array(np.zeros(3))
        out.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(sf.ModelFormatError, match="has 3 values, expected 4"):
            sf.load_model(out)


class TestBaselines:
    def test_encoder_baseline_learns_toy(self, toy_dataset, tmp_path):
        cfg = small_fusion_config(cache_dir=str(tmp_path / "cache"))
        model, record = sf.fit_encoder_baseline(toy_dataset, cfg)
        assert isinstance(model, sf.FusionModel)
        assert model.config.llm_providers == ()
        assert model.fusion_params.input_dim == cfg.encoder.dim
        assert not (tmp_path / "cache").exists()  # no scores, no cache
        assert record.config["llm_providers"] == []
        preds = sf.predict_encoder_baseline(model, list(TOY_TEXTS))
        want = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(8)]
        assert [p.decided.bits for p in preds] == want

    def test_llm_only_argmax(self):
        scores = [np.array([[0.9, 0.1], [0.2, 0.8]])]
        preds = sf.llm_only_predict(scores, MC)
        assert [p.decided.bits for p in preds] == [(1, 0), (0, 1)]

    def test_llm_only_averages_providers(self):
        p0 = np.array([[0.9, 0.1]])
        p1 = np.array([[0.0, 1.0]])
        preds = sf.llm_only_predict([p0, p1], MC)
        # mean = (0.45, 0.55)
        assert preds[0].decided.bits == (0, 1)
        assert preds[0].scores.values == pytest.approx((0.45, 0.55))

    def test_llm_only_multilabel_threshold(self):
        scores = [np.array([[0.5, 0.49]])]
        preds = sf.llm_only_predict(scores, sf.TaskMode.MULTI_LABEL,
                                    threshold=0.5)
        assert preds[0].decided.bits == (1, 0)

    def test_llm_only_zero_texts(self):
        for mode in (MC, sf.TaskMode.MULTI_LABEL):
            for count in (1, 2):
                preds = sf.llm_only_predict([np.empty((0, 2))] * count, mode)
                assert len(preds) == 0 and list(preds) == []
                assert preds.decided.shape == (0, 2)

    def test_llm_only_empty_providers(self):
        with pytest.raises(ValueError):
            sf.llm_only_predict([], MC)


class TestAutoFusionClassifier:
    RECORDS = [{"text": t, "yes": (i + 1) % 2, "no": i % 2}
               for i, t in enumerate(TOY_TEXTS)]

    def _config_doc(self, **extra):
        doc = {
            "label_columns": ["yes", "no"],
            "llm_provider": "mock",
            "encoder": {"dim": 16, "buckets": 1024, "lr_small": 0.05},
            "fusion": {"hidden_sizes": [16], "epochs": 30, "lr_high": 0.5,
                       "train_batch_size": 8, "seed": 42},
            "validation_fraction": 0.0,
        }
        doc.update(extra)
        return doc

    def _providers(self, toy_table):
        schema = sf.LabelSchema(("yes", "no"))
        return [sf.MockProvider(toy_table, schema)]

    def test_fit_predict_from_records(self, toy_table):
        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(self.RECORDS, providers=self._providers(toy_table))
        preds = clf.predict(list(TOY_TEXTS),
                            providers=self._providers(toy_table))
        want = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(8)]
        assert [p.decided.bits for p in preds] == want
        assert clf.last_run is not None and clf.last_run.finalized

    def test_accepts_to_dict_duck(self, toy_table):
        class Framed:
            def __init__(self, records):
                self._records = records

            def to_dict(self, orient):
                assert orient == "records"
                return list(self._records)

        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(Framed(self.RECORDS), providers=self._providers(toy_table))
        assert clf.model is not None

    def test_evaluate_via_records(self, toy_table):
        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(self.RECORDS, providers=self._providers(toy_table))
        report = clf.evaluate(self.RECORDS,
                              providers=self._providers(toy_table))
        assert report.accuracy == 1.0

    def test_rejected_eval_data_leaves_no_run(self, toy_table, tmp_path):
        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(self.RECORDS, providers=self._providers(toy_table))
        with pytest.raises(sf.InvalidDatasetError, match="no rows"):
            clf.evaluate([], runs_root=tmp_path / "runs",
                         providers=self._providers(toy_table))
        assert not (tmp_path / "runs").exists()

    def test_predict_before_fit_rejected(self):
        clf = sf.AutoFusionClassifier(self._config_doc())
        with pytest.raises(sf.RunStateError, match="fit"):
            clf.predict(["x"])

    def test_bad_label_cell_named(self, toy_table):
        rows = [dict(r) for r in self.RECORDS]
        rows[3]["yes"] = "maybe"
        clf = sf.AutoFusionClassifier(self._config_doc())
        with pytest.raises(sf.DataError, match="record 3.*'yes'"):
            clf.fit(rows, providers=self._providers(toy_table))

    def test_missing_text_column_named(self, toy_table):
        rows = [{"body": "x", "yes": 1, "no": 0}]
        clf = sf.AutoFusionClassifier(self._config_doc())
        with pytest.raises(sf.DataError, match="'text'"):
            clf.fit(rows, providers=self._providers(toy_table))

    @pytest.mark.parametrize("one, zero", [
        (np.int64(1), np.int64(0)), (np.int32(1), np.uint8(0)),
        (np.bool_(True), np.bool_(False)),
        (np.float32(1.0), np.float64(0.0)),
    ], ids=lambda v: type(v).__name__)
    def test_numpy_label_cells(self, one, zero):
        ds = dataset_from_records([{"text": "x", "yes": one, "no": zero}],
                                  sf.LabelSchema(("yes", "no")), MC)
        assert ds.rows[0].target.bits == (1, 0)

    @pytest.mark.parametrize("cell", [2, 0.5, "yes", None, np.int64(2),
                                      np.float32(0.5), np.float64("nan")])
    def test_non_bit_label_cells_rejected(self, cell):
        with pytest.raises(sf.DataError, match="must be 0 or 1"):
            dataset_from_records([{"text": "x", "yes": cell, "no": 0}],
                                 sf.LabelSchema(("yes", "no")), MC)

    def test_missing_text_cell_reads_as_empty(self):
        ds = dataset_from_records([{"text": None, "yes": 1, "no": 0}],
                                  sf.LabelSchema(("yes", "no")), MC)
        assert ds.texts() == [""]

    def test_partial_label_columns_named(self, toy_table):
        rows = [{"text": "x", "yes": 1}]
        clf = sf.AutoFusionClassifier(self._config_doc())
        with pytest.raises(sf.DataError, match="no"):
            clf.fit(rows, providers=self._providers(toy_table))

    def test_from_encoder_only_model_file(self, toy_dataset, tmp_path):
        """An encoder-only model loaded without its config serves like
        load_model plus predict, records its own settings in runs, and fits
        another encoder-only model."""
        model, _ = sf.fit_encoder_baseline(toy_dataset, small_fusion_config())
        path = tmp_path / "model.json"
        sf.save_model(model, path)
        clf = sf.AutoFusionClassifier.from_model_file(path)
        want = sf.predict(sf.load_model(path), list(TOY_TEXTS))
        got = clf.predict(list(TOY_TEXTS))
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.decided, want.decided)
        report = clf.evaluate(toy_dataset, runs_root=tmp_path / "runs")
        assert report == sf.evaluate(sf.load_model(path), toy_dataset)
        [run_dir] = (tmp_path / "runs").iterdir()
        config = load_run(tmp_path / "runs", run_dir.name).config
        assert config == clf.model.config.to_dict()
        assert config["llm_providers"] == []
        loaded = clf.model
        clf.fit(toy_dataset, runs_root=tmp_path / "fit-runs")
        assert clf.model is not loaded and clf.model.config.llm_providers == ()
        assert clf.last_run.config["llm_providers"] == []

    @pytest.mark.parametrize("variant", ["hashed", "frozen", "encoder_only"])
    def test_from_model_file_keeps_the_fitted_config(
            self, variant, toy_dataset, toy_table, tmp_path):
        """Loaded without a config, a classifier has the config that fit
        the model, cache directory and frozen embedding path included."""
        overrides = {"cache_dir": str(tmp_path / "cache"),
                     "text_column": "body", "validation_fraction": 0.25}
        if variant == "frozen":
            path = tmp_path / "emb.tsv"
            sf.write_mock_table({t: (i / 8, 1 - i / 8)
                                 for i, t in enumerate(TOY_TEXTS)}, str(path))
            overrides["encoder"] = str(path)
        elif variant == "encoder_only":
            overrides["llm_providers"] = ()
        cfg = small_fusion_config(**overrides)
        providers = self._providers(toy_table) if cfg.llm_providers else None
        model, _ = sf.fit(toy_dataset, cfg, providers=providers)
        sf.save_model(model, tmp_path / "model.json")
        clf = sf.AutoFusionClassifier.from_model_file(tmp_path / "model.json")
        assert clf.config == cfg

    def test_save_and_reload(self, toy_table, tmp_path):
        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(self.RECORDS, providers=self._providers(toy_table))
        path = tmp_path / "clf.json"
        clf.save(path)
        again = sf.AutoFusionClassifier.from_model_file(path)
        p1 = clf.predict(list(TOY_TEXTS[:3]),
                         providers=self._providers(toy_table))
        p2 = again.predict(list(TOY_TEXTS[:3]),
                           providers=self._providers(toy_table))
        assert [p.decided.bits for p in p1] == [p.decided.bits for p in p2]

    def test_cache_dir_used_across_fit_and_predict(self, toy_table,
                                                   tmp_path):
        doc = self._config_doc(cache_dir=str(tmp_path / "cache"))
        clf = sf.AutoFusionClassifier(doc)
        clf.fit(self.RECORDS, providers=self._providers(toy_table))
        schema = sf.LabelSchema(("yes", "no"))
        empty = sf.MockProvider({}, schema)
        preds = clf.predict(list(TOY_TEXTS), providers=[empty])
        assert empty.calls == 0  # cache answered everything
        assert len(preds) == 8

    @pytest.mark.parametrize("config, kind", [(5, "int"), ("abc", "str"),
                                              (["label_columns"], "list")])
    def test_non_mapping_config_is_a_config_error(self, config, kind):
        with pytest.raises(sf.ConfigurationError,
                           match=f"^config must be a mapping, got {kind}$"):
            sf.AutoFusionClassifier(config)

    def test_any_mapping_config_accepted(self):
        clf = sf.AutoFusionClassifier(MappingProxyType(self._config_doc()))
        assert clf.config == build_config(self._config_doc())

    def test_dataset_passthrough(self, toy_dataset, toy_table):
        clf = sf.AutoFusionClassifier(self._config_doc())
        clf.fit(toy_dataset, providers=self._providers(toy_table))
        assert clf.model is not None
