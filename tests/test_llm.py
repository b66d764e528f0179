"""Prompting, score parsing, provider clients, retries, and batching."""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.cache import cache_key, cache_open
from scorefusion.core import read_vector_table, text_digest
from scorefusion.pipeline import build_config
from scorefusion.llm import (
    RETRY_AFTER_CAP_S,
    TEXT_BEGIN,
    TEXT_END,
    HttpChatProvider,
    LLMScore,
    build_prompt,
    extract_prompt_text,
    make_provider,
    prompt_template_digest,
    score_providers,
    score_text,
)

SCHEMA = sf.LabelSchema(("positive", "negative", "neutral"))
MC = sf.TaskMode.MULTI_CLASS
ML = sf.TaskMode.MULTI_LABEL
TEMPLATE = prompt_template_digest(SCHEMA, MC)


def _key(pcfg, text):
    """The key score_batch stores a multi-class score of `text` under."""
    return cache_key(pcfg.provider_id, pcfg.model_name, TEMPLATE,
                     text_digest(text))


class TestBuildPrompt:
    def test_contains_labels_text_and_delimiters(self):
        prompt = build_prompt("some input", SCHEMA, MC)
        for name in SCHEMA.labels:
            assert f"- {name}" in prompt
        assert TEXT_BEGIN in prompt and TEXT_END in prompt
        assert "some input" in prompt
        assert "JSON" in prompt

    def test_mode_sentences_differ(self):
        mc = build_prompt("x", SCHEMA, MC)
        ml = build_prompt("x", SCHEMA, ML)
        assert mc != ml
        assert "Exactly one label" in mc
        assert "independent" in ml

    def test_deterministic(self):
        assert build_prompt("x", SCHEMA, MC) == build_prompt("x", SCHEMA, MC)

    @given(st.text(max_size=200))
    def test_text_round_trips(self, text):
        prompt = build_prompt(text, SCHEMA, MC)
        assert extract_prompt_text(prompt) == text


class TestPromptTemplateDigest:
    def test_depends_on_labels_and_mode(self):
        d1 = prompt_template_digest(SCHEMA, MC)
        d2 = prompt_template_digest(SCHEMA, ML)
        d3 = prompt_template_digest(sf.LabelSchema(("a", "b")), MC)
        assert len(d1) == 64
        assert len({d1, d2, d3}) == 3
        assert d1 == prompt_template_digest(SCHEMA, MC)


class TestParseScores:
    def test_clean_json(self):
        body = '{"positive": 0.9, "negative": 0.05, "neutral": 0.05}'
        out = sf.parse_scores(body, SCHEMA)
        assert out.parse_ok
        assert out.scores == (0.9, 0.05, 0.05)

    def test_json_with_surrounding_prose(self):
        body = ('Sure! Here is the scoring you asked for:\n'
                '{"positive": 0.8, "negative": 0.1, "neutral": 0.1}\n'
                'Let me know if you need anything else.')
        out = sf.parse_scores(body, SCHEMA)
        assert out.parse_ok
        assert out.scores == (0.8, 0.1, 0.1)

    def test_first_qualifying_object_wins(self):
        body = ('{"note": "warmup"} {"positive": 0.7, "negative": 0.3, '
                '"neutral": 0.0} {"positive": 0.1, "negative": 0.1, '
                '"neutral": 0.1}')
        out = sf.parse_scores(body, SCHEMA)
        assert out.scores[0] == 0.7

    def test_missing_labels_score_zero(self):
        out = sf.parse_scores('{"positive": 1.0}', SCHEMA)
        assert out.parse_ok
        assert out.scores == (1.0, 0.0, 0.0)

    def test_out_of_range_clamped(self):
        out = sf.parse_scores(
            '{"positive": 1.7, "negative": -0.4, "neutral": 0.5}', SCHEMA)
        assert out.parse_ok
        assert out.scores == (1.0, 0.0, 0.5)

    def test_numeric_strings_accepted(self):
        out = sf.parse_scores(
            '{"positive": "0.75", "negative": "0", "neutral": "1"}',
            SCHEMA)
        assert out.parse_ok
        assert out.scores == (0.75, 0.0, 1.0)

    def test_boolean_values_rejected(self):
        out = sf.parse_scores(
            '{"positive": true, "negative": 0.1, "neutral": 0.1}', SCHEMA)
        assert not out.parse_ok

    def test_non_finite_rejected(self):
        out = sf.parse_scores(
            '{"positive": NaN, "negative": 0.1, "neutral": 0.1}', SCHEMA)
        assert not out.parse_ok
        out = sf.parse_scores(
            '{"positive": Infinity, "negative": 0.1, "neutral": 0.1}', SCHEMA)
        assert not out.parse_ok

    def test_garbage_falls_back_uniform(self):
        out = sf.parse_scores("no json here at all", SCHEMA)
        assert not out.parse_ok
        assert out.scores == (1 / 3, 1 / 3, 1 / 3)

    def test_json_array_is_not_a_mapping(self):
        out = sf.parse_scores('["positive", 0.9]', SCHEMA)
        assert not out.parse_ok

    def test_skips_object_without_labels_then_matches_later_one(self):
        body = '{"foo": 1} and then {"neutral": 0.4}'
        out = sf.parse_scores(body, SCHEMA)
        assert out.parse_ok
        assert out.scores == (0.0, 0.0, 0.4)

    @given(st.text(max_size=300))
    def test_total_on_arbitrary_text(self, body):
        out = sf.parse_scores(body, SCHEMA)
        assert len(out.scores) == SCHEMA.K
        assert all(0.0 <= s <= 1.0 for s in out.scores)

    @given(st.binary(max_size=200))
    def test_total_on_arbitrary_bytes(self, blob):
        out = sf.parse_scores(blob.decode("latin-1"), SCHEMA)
        assert all(0.0 <= s <= 1.0 for s in out.scores)


class TestLLMScore:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            LLMScore((1.2, 0.0), parse_ok=True)

    def test_fallback_is_uniform(self):
        fb = LLMScore.uniform_fallback(4)
        assert fb.scores == (0.25,) * 4
        assert not fb.parse_ok
        with pytest.raises(ValueError):
            LLMScore((0.9, 0.1), parse_ok=False)


_OPENAI = {"provider_id": "openai-compatible", "model_name": "gpt-4o-mini",
           "endpoint_url": "https://api.openai.com/v1/chat/completions",
           "api_key_env": "OPENAI_API_KEY"}
_GEMINI = {"provider_id": "gemini-compatible",
           "model_name": "gemini-2.0-flash",
           "endpoint_url": "https://generativelanguage.googleapis.com/v1beta/"
                           "models/{model}:generateContent",
           "api_key_env": "GEMINI_API_KEY"}
_DEEPSEEK = {"provider_id": "deepseek-compatible", "model_name": "deepseek-chat",
             "endpoint_url": "https://api.deepseek.com/chat/completions",
             "api_key_env": "DEEPSEEK_API_KEY"}
_MOCK = {"provider_id": "mock", "model_name": "mock", "endpoint_url": "",
         "api_key_env": ""}
_CALLING = {"temperature": 0.0, "max_retries": 3, "backoff_base_ms": 500,
            "llm_batch_size": 8, "timeout_ms": 30000, "mock_table_path": None}


class TestProviderConfig:
    def test_aliases_resolve(self):
        assert sf.ProviderConfig(provider_id="openai").provider_id \
            == "openai-compatible"
        assert sf.ProviderConfig(provider_id="gemini").provider_id \
            == "gemini-compatible"
        assert sf.ProviderConfig(provider_id="deepseek").provider_id \
            == "deepseek-compatible"
        assert sf.ProviderConfig(provider_id="mock").provider_id == "mock"

    def test_unknown_provider(self):
        with pytest.raises(sf.ConfigurationError, match="nonesuch"):
            sf.ProviderConfig(provider_id="nonesuch")

    # The values the YAML path (`llm_provider: <name>`) has always built.
    DEFAULTS = {"openai": _OPENAI, "openai-compatible": _OPENAI,
                "gemini": _GEMINI, "gemini-compatible": _GEMINI,
                "deepseek": _DEEPSEEK, "deepseek-compatible": _DEEPSEEK,
                "mock": _MOCK}

    @pytest.mark.parametrize("name", DEFAULTS)
    def test_provider_defaults(self, name):
        assert sf.ProviderConfig(provider_id=name).to_dict() \
            == {**self.DEFAULTS[name], **_CALLING}
        assert build_config({"label_columns": ["a", "b"],
                             "llm_provider": name}).llm_providers \
            == (sf.ProviderConfig(provider_id=name),)

    def test_given_fields_win_over_defaults(self):
        pcfg = sf.ProviderConfig(provider_id="openai", model_name="gpt-x",
                                 endpoint_url="")
        assert (pcfg.model_name, pcfg.endpoint_url, pcfg.api_key_env) \
            == ("gpt-x", "", "OPENAI_API_KEY")
        assert sf.ProviderConfig() == sf.ProviderConfig(**_MOCK)

    @pytest.mark.parametrize("name", ["openai", "gemini-compatible",
                                      "deepseek"])
    def test_mock_table_is_for_the_mock_provider(self, name):
        """A table on another provider would be ignored while every score
        is requested from it, so it is a config error naming the provider,
        in Python and in YAML."""
        pid = sf.ProviderConfig(provider_id=name).provider_id
        with pytest.raises(sf.ConfigurationError,
                           match=f"mock_table_path is for provider 'mock', "
                                 f"not '{pid}'"):
            sf.ProviderConfig(provider_id=name, mock_table_path="x.tsv")
        with pytest.raises(sf.ConfigurationError, match=f"not '{pid}'"):
            build_config({"label_columns": ["a", "b"], "llm_provider": name,
                          "mock_table": "scores.tsv"})
        # A list that mixes mock with another provider gives the table to
        # the mock entry alone.
        cfg = build_config({"label_columns": ["a", "b"], "llm_provider": [
            {"provider": "mock", "mock_table": "scores.tsv"}, name]})
        assert [p.mock_table_path for p in cfg.llm_providers] == \
            ["scores.tsv", None]

    def test_validation(self):
        with pytest.raises(sf.ConfigurationError):
            sf.ProviderConfig(provider_id="bogus")
        with pytest.raises(sf.ConfigurationError):
            sf.ProviderConfig(max_retries=-1)
        with pytest.raises(sf.ConfigurationError):
            sf.ProviderConfig(llm_batch_size=0)
        with pytest.raises(sf.ConfigurationError):
            sf.ProviderConfig(timeout_ms=0)


def _openai_body(payload: dict) -> str:
    return json.dumps(
        {"choices": [{"message": {"content": json.dumps(payload)}}]})


def _gemini_body(payload: dict) -> str:
    return json.dumps(
        {"candidates": [{"content": {"parts": [{"text": json.dumps(payload)}]}}]})


class TestHttpChatProvider:
    PAYLOAD = {"positive": 0.9, "negative": 0.1, "neutral": 0.0}

    def test_missing_key_env_rejected_at_construction(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        pcfg = sf.ProviderConfig(provider_id="openai")
        with pytest.raises(sf.ConfigurationError, match="OPENAI_API_KEY"):
            HttpChatProvider(pcfg)

    def test_openai_request_shape(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        seen = {}

        def transport(url, headers, body, timeout_s):
            seen.update(url=url, headers=headers, body=body,
                        timeout_s=timeout_s)
            return 200, _openai_body(self.PAYLOAD)

        pcfg = sf.ProviderConfig(provider_id="openai", temperature=0.25,
                                 timeout_ms=5000)
        provider = HttpChatProvider(pcfg, transport=transport)
        out = provider.complete("PROMPT")
        assert json.loads(out) == self.PAYLOAD
        assert seen["url"] == pcfg.endpoint_url
        assert seen["headers"]["Authorization"] == "Bearer sk-test"
        assert seen["body"]["model"] == pcfg.model_name
        assert seen["body"]["temperature"] == 0.25
        assert seen["body"]["messages"][0]["content"] == "PROMPT"
        assert seen["timeout_s"] == pytest.approx(5.0)
        assert provider.calls == 1

    def test_gemini_request_shape(self, monkeypatch):
        monkeypatch.setenv("GEMINI_API_KEY", "g-test")
        seen = {}

        def transport(url, headers, body, timeout_s):
            seen.update(url=url, headers=headers, body=body)
            return 200, _gemini_body(self.PAYLOAD)

        pcfg = sf.ProviderConfig(provider_id="gemini")
        provider = HttpChatProvider(pcfg, transport=transport)
        out = provider.complete("PROMPT")
        assert json.loads(out) == self.PAYLOAD
        assert pcfg.model_name in seen["url"]
        assert "{model}" not in seen["url"]
        assert seen["headers"]["x-goog-api-key"] == "g-test"
        assert seen["body"]["contents"][0]["parts"][0]["text"] == "PROMPT"


class TestScoreTextRetries:
    # random.Random(0).uniform(0, 0.1), then .uniform(0, 0.2): full jitter
    # over backoff_base_ms=100 doubled per retry, in seconds
    JITTERED = [0.08444218515250482, 0.1515908805880605]

    def _pcfg(self, **kw):
        fields = dict(max_retries=3, backoff_base_ms=100)
        fields.update(kw)
        return sf.ProviderConfig(provider_id="openai", **fields)

    def test_retries_then_succeeds_with_backoff(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        attempts = []

        def transport(url, headers, body, timeout_s):
            attempts.append(1)
            if len(attempts) < 3:
                return 500, "server error"
            return 200, _openai_body(
                {"positive": 1.0, "negative": 0.0, "neutral": 0.0})

        sleeps = []
        provider = HttpChatProvider(self._pcfg(), transport=transport)
        out = score_text("x", SCHEMA, MC, self._pcfg(), provider=provider,
                         _sleep=sleeps.append,
                         _uniform=random.Random(0).uniform)
        assert out.parse_ok and out.scores[0] == 1.0
        assert len(attempts) == 3
        # uniform in [0, backoff_base_ms * 2^attempt], in seconds
        assert sleeps == self.JITTERED

    def test_exhaustion_raises_with_last_status(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            return 503, "down"

        pcfg = self._pcfg(max_retries=2)
        provider = HttpChatProvider(pcfg, transport=transport)
        sleeps = []
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                       _sleep=sleeps.append,
                       _uniform=random.Random(0).uniform)
        assert info.value.last_status == 503
        assert provider.calls == 3  # initial + 2 retries
        assert sleeps == self.JITTERED

    def _sleeps_on(self, monkeypatch, status, retry_after):
        """The waits of two retries of a reply with this Retry-After."""
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            return status, "later", retry_after

        pcfg = self._pcfg(max_retries=2)
        provider = HttpChatProvider(pcfg, transport=transport)
        sleeps = []
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                       _sleep=sleeps.append,
                       _uniform=random.Random(0).uniform)
        assert info.value.last_status == status
        return sleeps

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize("header", ["7", " 7 ", "0"])
    def test_retry_after_seconds_honored(self, monkeypatch, status, header):
        want = float(header)
        assert self._sleeps_on(monkeypatch, status, header) == [want, want]

    def test_retry_after_capped(self, monkeypatch):
        sleeps = self._sleeps_on(monkeypatch, 429, "86400")
        assert sleeps == [RETRY_AFTER_CAP_S] * 2

    @pytest.mark.parametrize("header", [
        "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-5", "1.5", "", "\u0667",
        None])
    def test_unusable_retry_after_falls_back_to_backoff(self, monkeypatch,
                                                        header):
        assert self._sleeps_on(monkeypatch, 503, header) == self.JITTERED

    @pytest.mark.parametrize("status", [408, 500, 502])
    def test_retry_after_only_on_429_and_503(self, monkeypatch, status):
        assert self._sleeps_on(monkeypatch, status, "7") == self.JITTERED

    @pytest.mark.parametrize("status", [401, 404])
    def test_permanent_status_fails_without_retry(self, monkeypatch, status):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            return status, "no"

        pcfg = self._pcfg()
        provider = HttpChatProvider(pcfg, transport=transport)
        sleeps = []
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                          _sleep=sleeps.append)
        assert info.value.last_status == status
        assert provider.calls == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_uses_every_retry(self, monkeypatch, status):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            return status, "later"

        pcfg = self._pcfg()
        provider = HttpChatProvider(pcfg, transport=transport)
        sleeps = []
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                          _sleep=sleeps.append)
        assert info.value.last_status == status
        assert provider.calls == pcfg.max_retries + 1
        assert len(sleeps) == pcfg.max_retries

    def test_transport_exception_counts_as_transient(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            raise OSError("connection refused")

        pcfg = self._pcfg(max_retries=0)
        provider = HttpChatProvider(pcfg, transport=transport)
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                          _sleep=lambda s: None)
        assert info.value.last_status is None

    def test_malformed_envelope_is_transient(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def transport(url, headers, body, timeout_s):
            return 200, '{"unexpected": "shape"}'

        pcfg = self._pcfg(max_retries=0)
        provider = HttpChatProvider(pcfg, transport=transport)
        with pytest.raises(sf.ProviderUnavailableError):
            score_text("x", SCHEMA, MC, pcfg, provider=provider,
                          _sleep=lambda s: None)


class TestMockProvider:
    def test_round_trips_exact_scores(self):
        table = {"good text": (0.875, 0.0625, 0.0625)}
        provider = sf.MockProvider(table, SCHEMA)
        pcfg = sf.ProviderConfig(provider_id="mock")
        out = score_text("good text", SCHEMA, MC, pcfg, provider=provider)
        assert out.parse_ok
        assert out.scores == (0.875, 0.0625, 0.0625)
        assert provider.calls == 1

    def test_absent_text_scores_uniform(self):
        provider = sf.MockProvider({}, SCHEMA)
        pcfg = sf.ProviderConfig(provider_id="mock")
        out = score_text("anything", SCHEMA, MC, pcfg, provider=provider)
        assert out.scores == (1 / 3, 1 / 3, 1 / 3)
        assert out.parse_ok  # uniform JSON parses fine

    def test_width_checked_against_schema(self):
        with pytest.raises(sf.ConfigurationError):
            sf.MockProvider({"x": (0.5, 0.5)}, SCHEMA)


def _read_table(path) -> dict:
    return {text: tuple(v) for text, v in read_vector_table(str(path)).items()}


class TestMockTableIO:
    def test_write_then_load_round_trip(self, tmp_path):
        table = {"first text": (0.25, 0.5, 0.25), "second": (1.0, 0.0, 0.0),
                 "carriage\rreturn\r": (0.5, 0.5, 0.0)}
        path = tmp_path / "table.tsv"
        sf.write_mock_table(table, str(path))
        assert _read_table(path) == table

    def test_load_rejects_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0.5\t0.5\nb\t0.5\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="bad.tsv:2: .*differs"):
            read_vector_table(str(path))

    def test_load_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tx\n", encoding="utf-8")
        with pytest.raises(sf.DataError, match="non-numeric"):
            read_vector_table(str(path))

    def test_load_rejects_non_finite_score(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0.5\tnan\n", encoding="utf-8")
        pcfg = sf.ProviderConfig(provider_id="mock",
                                 mock_table_path=str(path))
        with pytest.raises(sf.DataError, match="bad.tsv:1: non-finite"):
            make_provider(pcfg, sf.LabelSchema(("a", "b")))

    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        rows = ["a\t0.25\t0.75", "", "b\rc\t1.0\t0.0", "a\t0.5\t0.5"]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join(rows).encode() + b"\n")
        crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
        assert _read_table(crlf) == _read_table(lf) == {
            "a": (0.5, 0.5), "b\rc": (1.0, 0.0)}

    @pytest.mark.parametrize("make", [
        lambda p: None,
        lambda p: p.mkdir(),
        lambda p: p.write_bytes(b"\xff\xfe\t0.5\n"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_file_is_a_data_error(self, tmp_path, make):
        path = tmp_path / "table.tsv"
        make(path)
        with pytest.raises(sf.DataError, match="table.tsv"):
            read_vector_table(str(path))

    def test_write_rejects_tabs_in_text(self, tmp_path):
        with pytest.raises(sf.ConfigurationError):
            sf.write_mock_table({"a\tb": (0.5,)}, str(tmp_path / "t.tsv"))

    @pytest.mark.parametrize("table, match", [
        ({"a": (0.1, 0.9), "b\tc": (0.5, 0.5)}, "tab or newline"),
        ({"a": (0.1, 0.9), "b\nc": (0.5, 0.5)}, "tab or newline"),
        ({"a": (0.1, 0.9), "b": ()}, "needs finite scores"),
        ({"a": (0.1, 0.9), "b": (0.5, float("inf"))}, "needs finite scores"),
        ({"a": (0.1, 0.9), "b": (0.5, "x")}, "not numbers"),
        ({"a": (0.1, 0.9), "b": (0.5, 0.25, 0.25)},
         "has 3 scores, earlier rows 2"),
        ({"\ufeffa": (0.1, 0.9), "b": (0.5, 0.5)}, "starts with a BOM"),
    ], ids=["tab", "newline", "no-scores", "non-finite", "non-numeric",
            "ragged", "first-text-bom"])
    def test_write_checks_every_row_before_writing(self, tmp_path, table,
                                                   match):
        """A table read_vector_table would refuse or misread leaves the
        file as it was: absent, or an earlier table whole."""
        path = tmp_path / "t.tsv"
        with pytest.raises(sf.ConfigurationError, match=match):
            sf.write_mock_table(table, str(path))
        assert not path.exists()
        path.write_bytes(b"old\t0.5\n")
        with pytest.raises(sf.ConfigurationError, match=match):
            sf.write_mock_table(table, str(path))
        assert os.listdir(tmp_path) == ["t.tsv"]
        assert path.read_bytes() == b"old\t0.5\n"

    def test_unwritable_path_is_a_data_error(self, tmp_path):
        with pytest.raises(sf.DataError, match="cannot write mock table"):
            sf.write_mock_table({"a": (0.5,)},
                                str(tmp_path / "missing" / "t.tsv"))

    def test_leading_bom_is_not_part_of_the_first_text(self, tmp_path):
        """A BOM-prefixed table keys its first text without the BOM, so
        that text gets its scores, not the uniform fallback."""
        path = tmp_path / "table.tsv"
        path.write_bytes("\ufeffhello\t0.2\t0.8\nworld\t0.6\t0.4\n"
                         .encode("utf-8"))
        assert _read_table(path) == {"hello": (0.2, 0.8),
                                     "world": (0.6, 0.4)}
        provider = make_provider(
            sf.ProviderConfig(provider_id="mock", mock_table_path=str(path)),
            sf.LabelSchema(("a", "b")))
        assert provider.table["hello"] == (0.2, 0.8)

    def test_make_provider_loads_table(self, tmp_path):
        path = tmp_path / "table.tsv"
        sf.write_mock_table({"t": (0.0, 1.0, 0.0)}, str(path))
        pcfg = sf.ProviderConfig(provider_id="mock",
                                 mock_table_path=str(path))
        provider = make_provider(pcfg, SCHEMA)
        assert provider.table == {"t": (0.0, 1.0, 0.0)}


class _FlakyProvider:
    """Fails the first `fail_first` completions with status 500 and every
    completion of a text in `fail_texts` with `status`; otherwise delegates
    to a mock."""

    def __init__(self, table, schema, fail_first=0, fail_texts=(),
                 status=503):
        self._inner = sf.MockProvider(table, schema)
        self.fail_first = fail_first
        self.fail_texts = set(fail_texts)
        self.status = status
        self.calls = 0

    def complete(self, prompt: str) -> str:
        from scorefusion.llm import TransientProviderError
        self.calls += 1
        if self.fail_first > 0:
            self.fail_first -= 1
            raise TransientProviderError(500, "flaky")
        text = extract_prompt_text(prompt)
        if text in self.fail_texts:
            raise TransientProviderError(self.status,
                                         f"always fails: {text}")
        return self._inner.complete(prompt)


class TestScoreBatch:
    TEXTS = ["t0", "t1", "t2", "t3"]
    TABLE = {f"t{i}": tuple(1.0 if j == i % 3 else 0.0 for j in range(3))
             for i in range(4)}

    def _pcfg(self, **kw):
        return sf.ProviderConfig(provider_id="mock", **kw)

    def _rows(self, texts):
        return np.array([self.TABLE[t] for t in texts])

    def test_order_preserved(self):
        provider = sf.MockProvider(self.TABLE, SCHEMA)
        out = sf.score_batch(self.TEXTS, SCHEMA, MC, self._pcfg(),
                             provider=provider)
        assert np.array_equal(out, self._rows(self.TEXTS))

    @pytest.mark.parametrize("mode", [MC, ML])
    def test_matrix_rows_equal_score_text(self, mode):
        table = {"a": (0.9, 0.05, 0.05), "b": (0.2, 0.7, 0.6)}
        texts = ["b", "a", "unlisted", "b", "a", "b"]
        out = sf.score_batch(texts, SCHEMA, mode, self._pcfg(),
                             provider=sf.MockProvider(table, SCHEMA))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (len(texts), 3)
        provider = sf.MockProvider(table, SCHEMA)
        for row, text in zip(out, texts):
            want = score_text(text, SCHEMA, mode, self._pcfg(), provider)
            assert tuple(row) == want.scores
        for i, j in ((0, 3), (0, 5), (1, 4)):  # repeated texts
            assert np.array_equal(out[i], out[j])

    def test_sequential_when_batch_size_one(self):
        provider = sf.MockProvider(self.TABLE, SCHEMA)
        out = sf.score_batch(self.TEXTS, SCHEMA, MC,
                             self._pcfg(llm_batch_size=1), provider=provider)
        assert provider.calls == 4
        assert np.array_equal(out, self._rows(self.TEXTS))

    def test_cache_first_and_write_back(self, tmp_path):
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfg = self._pcfg()
        p1 = sf.MockProvider(self.TABLE, SCHEMA)
        out1 = sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, cache=cache,
                              provider=p1)
        assert p1.calls == 4
        p2 = sf.MockProvider(self.TABLE, SCHEMA)
        out2 = sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, cache=cache,
                              provider=p2)
        assert p2.calls == 0
        assert np.array_equal(out1, out2)

    def test_template_digest_hashed_once_per_call(self, tmp_path,
                                                  monkeypatch):
        import scorefusion.llm as llm_mod
        real, calls = llm_mod.prompt_template_digest, []

        def counting(schema, mode):
            calls.append((schema, mode))
            return real(schema, mode)

        monkeypatch.setattr(llm_mod, "prompt_template_digest", counting)
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfg = self._pcfg()
        for _ in range(2):  # a cold call that puts, then a warm one that gets
            sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, cache=cache,
                           provider=sf.MockProvider(self.TABLE, SCHEMA))
        assert len(calls) == 2
        monkeypatch.undo()
        for text in self.TEXTS:  # stored under cache_key keys
            assert cache.get(_key(pcfg, text)) == self.TABLE[text]

    def test_whole_batch_failure_lists_indices(self):
        provider = _FlakyProvider(self.TABLE, SCHEMA,
                                  fail_texts={"t1", "t3"})
        pcfg = self._pcfg(max_retries=0, llm_batch_size=1)
        with pytest.raises(sf.ProviderUnavailableError) as info:
            sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, provider=provider,
                           _sleep=lambda s: None)
        assert info.value.failed_indices == [1, 3]

    def test_partial_failure_keeps_fetched_scores(self, tmp_path):
        texts = [f"t{i}" for i in range(6)]
        table = {t: (0.2, 0.3, 0.5) for t in texts}
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfg = self._pcfg(max_retries=0)
        flaky = _FlakyProvider(table, SCHEMA, fail_texts={"t4"})
        with pytest.raises(sf.ProviderUnavailableError) as info:
            sf.score_batch(texts, SCHEMA, MC, pcfg, cache=cache,
                           provider=flaky, _sleep=lambda s: None)
        assert info.value.failed_indices == [4]
        assert info.value.last_status == 503
        healthy = sf.MockProvider(table, SCHEMA)
        out = sf.score_batch(texts, SCHEMA, MC, pcfg, cache=cache,
                             provider=healthy)
        assert healthy.calls == 1  # only the text that failed
        assert np.array_equal(out, [table[t] for t in texts])

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_repeated_text_fetched_once(self, batch_size):
        provider = sf.MockProvider(self.TABLE, SCHEMA)
        texts = ["t0", "t1", "t0", "t0"]
        out = sf.score_batch(texts, SCHEMA, MC,
                             self._pcfg(llm_batch_size=batch_size),
                             provider=provider)
        assert provider.calls == 2
        assert np.array_equal(out, self._rows(texts))

    def test_repeated_failing_text_reported_at_each_position(self):
        provider = _FlakyProvider(self.TABLE, SCHEMA, fail_texts={"t1"})
        texts = ["t1", "t0", "t1", "t2", "t1"]
        with pytest.raises(sf.ProviderUnavailableError) as info:
            sf.score_batch(texts, SCHEMA, MC, self._pcfg(max_retries=0),
                           provider=provider, _sleep=lambda s: None)
        assert info.value.failed_indices == [0, 2, 4]
        assert provider.calls == 3

    def test_scores_cached_as_they_arrive(self, tmp_path):
        class BreaksOnThirdCall:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def complete(self, prompt):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("not a provider error")
                return self.inner.complete(prompt)

        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfg = self._pcfg(llm_batch_size=1)
        provider = BreaksOnThirdCall(sf.MockProvider(self.TABLE, SCHEMA))
        with pytest.raises(RuntimeError):
            sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, cache=cache,
                           provider=provider)
        for text in self.TEXTS[:2]:
            assert cache.get(_key(pcfg, text)) == self.TABLE[text]
        assert cache.get(_key(pcfg, "t2")) is None

    def test_fallback_is_not_cached(self, tmp_path):
        class GarbageFirst:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def complete(self, prompt):
                self.calls += 1
                if self.calls == 1:
                    return "no scores in this reply"
                return self.inner.complete(prompt)

        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfg = self._pcfg()
        provider = GarbageFirst(sf.MockProvider(self.TABLE, SCHEMA))
        [first] = sf.score_batch(["t1"], SCHEMA, MC, pcfg, cache=cache,
                                 provider=provider)
        assert tuple(first) == LLMScore.uniform_fallback(3).scores
        assert list((tmp_path / "c").glob("log-*")) == []
        [second] = sf.score_batch(["t1"], SCHEMA, MC, pcfg, cache=cache,
                                  provider=provider)
        assert provider.calls == 2
        assert tuple(second) == self.TABLE["t1"]
        [third] = sf.score_batch(["t1"], SCHEMA, MC, pcfg, cache=cache,
                                 provider=provider)
        assert provider.calls == 2
        assert tuple(third) == self.TABLE["t1"]

    def test_cached_fallback_reads_as_miss(self, tmp_path):
        # caches written before fallbacks stopped being cached hold some
        root = tmp_path / "c"
        cache_open(root, "f" * 64)
        pcfg = self._pcfg()
        key = _key(pcfg, "t1")
        head = key.encode() + b"\t" + json.dumps({
            "created_at": "2026-01-01T00:00:00+00:00",
            "dataset_fingerprint": "f" * 64, "format_version": 1,
            "key": key, "parse_ok": False, "scores": [1 / 3] * 3},
            sort_keys=True).encode()
        (root / "log-1-00000000.jsonl").write_bytes(
            b"%s\t%08x\n" % (head, zlib.crc32(head)))
        cache = cache_open(root, "f" * 64)
        assert cache.get(key) is None
        provider = sf.MockProvider(self.TABLE, SCHEMA)
        [out] = sf.score_batch(["t1"], SCHEMA, MC, pcfg, cache=cache,
                               provider=provider)
        assert provider.calls == 1
        assert tuple(out) == self.TABLE["t1"]
        assert cache_open(root, "f" * 64).get(key) == self.TABLE["t1"]

    def test_retry_recovers_inside_batch(self):
        provider = _FlakyProvider(self.TABLE, SCHEMA, fail_first=2)
        pcfg = self._pcfg(max_retries=2, llm_batch_size=1)
        out = sf.score_batch(self.TEXTS, SCHEMA, MC, pcfg, provider=provider,
                             _sleep=lambda s: None)
        assert np.array_equal(out, self._rows(self.TEXTS))

    def test_concurrent_path_matches_sequential(self):
        p_seq = sf.MockProvider(self.TABLE, SCHEMA)
        p_par = sf.MockProvider(self.TABLE, SCHEMA)
        seq = sf.score_batch(self.TEXTS, SCHEMA, MC,
                             self._pcfg(llm_batch_size=1), provider=p_seq)
        par = sf.score_batch(self.TEXTS, SCHEMA, MC,
                             self._pcfg(llm_batch_size=4), provider=p_par)
        assert np.array_equal(seq, par)

    def test_empty_input(self):
        provider = sf.MockProvider({}, SCHEMA)
        out = sf.score_batch([], SCHEMA, MC, self._pcfg(), provider=provider)
        assert out.shape == (0, 3) and out.dtype == np.float64
        assert provider.calls == 0


class _InFlight:
    """Delegates to a mock and records, under a lock, the most calls it had
    in flight at once. With a barrier, calls wait for each other in groups
    of the barrier's size, which proves that many ran at the same time."""

    def __init__(self, table, schema, barrier=None):
        self._inner = sf.MockProvider(table, schema)
        self.barrier = barrier
        self.now = self.most = 0
        self._lock = threading.Lock()

    @property
    def calls(self):
        return self._inner.calls

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.now += 1
            self.most = max(self.most, self.now)
        try:
            if self.barrier is not None:
                self.barrier.wait(timeout=10)
            time.sleep(0.001)  # widen the window for a cap breach
            return self._inner.complete(prompt)
        finally:
            with self._lock:
                self.now -= 1


class TestScoreProviders:
    """One scoring pass over several providers."""

    TEXTS = [f"t{i}" for i in range(12)]
    TABLES = ({t: (0.2, 0.3, 0.5) for t in TEXTS},
              {t: (0.6, 0.1, 0.3) for t in TEXTS})

    def _pcfgs(self, *batch_sizes, **kw):
        return tuple(sf.ProviderConfig(provider_id="mock", model_name=f"m{j}",
                                       llm_batch_size=b, **kw)
                     for j, b in enumerate(batch_sizes))

    def _block(self, texts):
        return np.array([self.TABLES[0][t] + self.TABLES[1][t]
                         for t in texts])

    def test_block_equals_score_batch_per_provider(self, tmp_path):
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfgs = self._pcfgs(2, 3)
        texts = ["t3", "t1", "t3", "t0", "t7", "t1"]
        # a warm entry for one provider only
        sf.score_batch(["t1"], SCHEMA, MC, pcfgs[1], cache=cache,
                       provider=sf.MockProvider(self.TABLES[1], SCHEMA))
        providers = [sf.MockProvider(t, SCHEMA) for t in self.TABLES]
        out = score_providers(texts, SCHEMA, MC, pcfgs, cache, providers)
        assert out.shape == (6, 6) and out.dtype == np.float64
        assert np.array_equal(out, self._block(texts))
        assert [p.calls for p in providers] == [4, 3]
        singles = [sf.score_batch(texts, SCHEMA, MC, pcfg, cache=cache,
                                  provider=sf.MockProvider({}, SCHEMA))
                   for pcfg in pcfgs]
        assert np.array_equal(out, np.hstack(singles))

    def test_keys_are_cache_key_strings(self, tmp_path):
        """The pass builds each provider's key prefix once; its keys equal
        cache_key's byte for byte, non-ASCII model names included: the
        puts land under them and a second pass reads every score back."""
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfgs = (sf.ProviderConfig(provider_id="mock", model_name="mödel-β"),
                 sf.ProviderConfig(provider_id="mock", model_name="模型"))
        texts = ["t0", "t1", "ünïcode text", "t0"]
        tables = [{t: (0.2, 0.3, 0.5) for t in texts},
                  {t: (0.6, 0.1, 0.3) for t in texts}]
        first = score_providers(texts, SCHEMA, MC, pcfgs, cache,
                                [sf.MockProvider(t, SCHEMA) for t in tables])
        keys = {line.split(b"\t")[0].decode("utf-8")
                for segment in (tmp_path / "c").glob("log-*.jsonl")
                for line in segment.read_bytes().splitlines()}
        assert keys == {cache_key(pcfg.provider_id, pcfg.model_name,
                                  TEMPLATE, text_digest(text))
                        for pcfg in pcfgs for text in texts}
        providers = [sf.MockProvider({}, SCHEMA) for _ in pcfgs]
        again = score_providers(texts, SCHEMA, MC, pcfgs, cache, providers)
        assert [p.calls for p in providers] == [0, 0]
        assert np.array_equal(again, first)

    @pytest.mark.parametrize("n_configs, n_injected", [(2, 1), (1, 2)])
    def test_injected_providers_match_configs(self, n_configs, n_injected):
        """Each configured provider needs its own injected client: another
        count fails naming both counts, before any call."""
        providers = [sf.MockProvider(self.TABLES[0], SCHEMA)
                     for _ in range(n_injected)]
        with pytest.raises(sf.ConfigurationError,
                           match=f"{n_injected} injected providers for "
                                 f"{n_configs} configured providers"):
            score_providers(self.TEXTS, SCHEMA, MC,
                            self._pcfgs(*[2] * n_configs), None, providers)
        assert [p.calls for p in providers] == [0] * n_injected

    def test_bare_string_is_a_data_error(self):
        """A str is not a list of texts: scoring it would pay for one
        call per character."""
        provider = sf.MockProvider(self.TABLES[0], SCHEMA)
        with pytest.raises(sf.DataError, match="not one str"):
            sf.score_batch("hello", SCHEMA, MC, self._pcfgs(2)[0],
                           provider=provider)
        with pytest.raises(sf.DataError, match="not one str"):
            score_providers("hello", SCHEMA, MC, self._pcfgs(2), None,
                            [provider])
        assert provider.calls == 0

    def test_no_providers_is_an_empty_block(self):
        out = score_providers(["a", "b"], SCHEMA, MC, ())
        assert out.shape == (2, 0) and out.dtype == np.float64

    def test_providers_are_queried_at_the_same_time(self):
        b_called = threading.Event()
        waited = []

        class WaitsForB(sf.MockProvider):
            def complete(self, prompt):
                if not waited:  # one worker: only the first call waits
                    waited.append(b_called.wait(timeout=10))
                return super().complete(prompt)

        class SetsEvent(sf.MockProvider):
            def complete(self, prompt):
                b_called.set()
                return super().complete(prompt)

        providers = [WaitsForB(self.TABLES[0], SCHEMA),
                     SetsEvent(self.TABLES[1], SCHEMA)]
        out = score_providers(self.TEXTS, SCHEMA, MC, self._pcfgs(1, 1),
                              None, providers)
        assert waited == [True]  # A's call was in flight when B's began
        assert np.array_equal(out, self._block(self.TEXTS))

    def test_each_provider_keeps_its_own_cap(self):
        providers = [_InFlight(self.TABLES[0], SCHEMA),
                     _InFlight(self.TABLES[1], SCHEMA,
                               barrier=threading.Barrier(3))]
        out = score_providers(self.TEXTS, SCHEMA, MC, self._pcfgs(1, 3),
                              None, providers)
        assert [p.most for p in providers] == [1, 3]
        assert [p.calls for p in providers] == [12, 12]
        assert np.array_equal(out, self._block(self.TEXTS))

    def test_failure_on_one_provider_keeps_the_others(self, tmp_path):
        cache = cache_open(tmp_path / "c", "f" * 64)
        pcfgs = self._pcfgs(2, 2, max_retries=0)
        texts = self.TEXTS[:6]
        providers = [_FlakyProvider(self.TABLES[0], SCHEMA,
                                    fail_texts={"t1", "t4"}),
                     sf.MockProvider(self.TABLES[1], SCHEMA)]
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_providers(texts, SCHEMA, MC, pcfgs, cache, providers,
                            _sleep=lambda s: None)
        assert info.value.failed_indices == [1, 4]
        assert "failed on mock/m0 (" in str(info.value)
        assert "mock/m1" not in str(info.value)
        assert providers[1].calls == 6
        for text in texts:
            assert cache.get(_key(pcfgs[1], text)) == self.TABLES[1][text]
            want = None if text in ("t1", "t4") else self.TABLES[0][text]
            assert cache.get(_key(pcfgs[0], text)) == want
        retry = [sf.MockProvider(table, SCHEMA) for table in self.TABLES]
        out = score_providers(texts, SCHEMA, MC, pcfgs, cache, retry)
        assert [p.calls for p in retry] == [2, 0]  # only what failed
        assert np.array_equal(out, self._block(texts))

    @pytest.mark.parametrize("batch", [False, True])
    def test_retry_waits_use_the_given_random_source(self, batch):
        pcfg = self._pcfgs(1, max_retries=2, backoff_base_ms=100)[0]
        provider = _FlakyProvider(self.TABLES[0], SCHEMA, fail_first=2)
        sleeps = []
        waits = dict(_sleep=sleeps.append, _uniform=random.Random(0).uniform)
        if batch:
            out = sf.score_batch(["t0"], SCHEMA, MC, pcfg, None, provider,
                                 **waits)
        else:
            out = score_providers(["t0"], SCHEMA, MC, (pcfg,), None,
                                  (provider,), **waits)
        assert out.tolist() == [list(self.TABLES[0]["t0"])]
        assert provider.calls == 3
        assert sleeps == TestScoreTextRetries.JITTERED

    def test_stress_every_miss_fetched_once(self, tmp_path):
        # 16 workers on 4 providers share deques, the failure list and the
        # score block; a lost or doubled pop would change a count
        texts = [f"s{i % 150}" for i in range(200)]
        table = {t: (0.1, 0.2, 0.7) for t in texts}
        failing = {f"s{i}" for i in range(0, 150, 7)}
        pcfgs = self._pcfgs(4, 4, 4, 4, max_retries=0)
        providers = [sf.MockProvider(table, SCHEMA) for _ in range(3)]
        providers.append(_FlakyProvider(table, SCHEMA, fail_texts=failing))
        cache = cache_open(tmp_path / "c", "f" * 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(sf.ProviderUnavailableError) as info:
                score_providers(texts, SCHEMA, MC, pcfgs, cache, providers,
                                _sleep=lambda s: None)
        finally:
            sys.setswitchinterval(interval)
        assert [p.calls for p in providers[:3]] == [150] * 3
        assert providers[3]._inner.calls == 150 - 22  # its locked count
        assert info.value.failed_indices == [i for i, t in enumerate(texts)
                                             if t in failing]
        assert sum(cache.get(_key(pcfg, t)) is not None
                   for pcfg in pcfgs for t in set(texts)) == 4 * 150 - 22

    @pytest.mark.parametrize("fail0, fail1, status, indices", [
        ({"t3"}, {"t1"}, 502, [1, 3]),        # lowest row first
        ({"t1"}, {"t1", "t2"}, 501, [1, 2]),  # same row: first provider
    ])
    def test_first_failure_is_chosen_by_row_then_provider(
            self, fail0, fail1, status, indices):
        providers = [_FlakyProvider(self.TABLES[0], SCHEMA, fail_texts=fail0,
                                    status=501),
                     _FlakyProvider(self.TABLES[1], SCHEMA, fail_texts=fail1,
                                    status=502)]
        with pytest.raises(sf.ProviderUnavailableError) as info:
            score_providers(self.TEXTS[:4], SCHEMA, MC,
                            self._pcfgs(2, 2, max_retries=0),
                            None, providers, _sleep=lambda s: None)
        assert info.value.failed_indices == indices
        assert info.value.last_status == status
        assert "failed on mock/m0, mock/m1 (" in str(info.value)


class TestMockProviderCalls:
    def test_exact_count_across_threads(self):
        provider = sf.MockProvider({"x": (0.2, 0.3, 0.5)}, SCHEMA)
        prompt = build_prompt("x", SCHEMA, MC)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                provider.complete(prompt)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert provider.calls == n_threads * per_thread


class TestMakeCacheKey:
    """The key score_batch makes for each text with `cache_key`."""

    def test_key_parts(self, tmp_path):
        # score_batch stores each text under the documented key string
        pcfg = sf.ProviderConfig(provider_id="mock", model_name="m")
        cache = cache_open(tmp_path / "c", "f" * 64)
        sf.score_batch(["hello"], SCHEMA, MC, pcfg, cache=cache,
                       provider=sf.MockProvider({}, SCHEMA))
        [segment] = (tmp_path / "c").glob("log-*.jsonl")
        key = segment.read_bytes().split(b"\t")[0].decode()
        assert key == _key(pcfg, "hello")
        assert key.split(".") == [b"mock".hex(), b"m".hex(), TEMPLATE,
                                  text_digest("hello")]
        assert len(text_digest("hello")) == 64

    def test_distinct_texts_distinct_keys(self):
        pcfg = sf.ProviderConfig(provider_id="mock")
        assert _key(pcfg, "a") != _key(pcfg, "b")
