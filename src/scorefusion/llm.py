"""LLM scoring: structured prompts, provider clients with retry and
backoff, per-class score parsing, and batched scoring with cache reuse.

The wire protocol is a single internal OpenAI-style chat-completions shape;
per-provider adapters translate requests and responses as needed. A
deterministic mock provider (a text -> scores lookup) makes every path
testable offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cache import ScoreCache, cache_key_prefix
from .core import (
    DictCodec,
    LabelSchema,
    NonEmptyStr,
    TaskMode,
    atomic_write_text,
    check_texts,
    read_vector_table,
    text_digest,
)
from .errors import (CacheWriteError, ConfigurationError, DataError,
                     ProviderUnavailableError)

import logging

logger = logging.getLogger(__name__)

# Every provider id, with its ProviderConfig defaults (all overridable).
_PROVIDER_DEFAULTS = {
    "openai-compatible": {
        "model_name": "gpt-4o-mini",
        "endpoint_url": "https://api.openai.com/v1/chat/completions",
        "api_key_env": "OPENAI_API_KEY",
    },
    "gemini-compatible": {
        "model_name": "gemini-2.0-flash",
        "endpoint_url": "https://generativelanguage.googleapis.com/v1beta/models/{model}:generateContent",
        "api_key_env": "GEMINI_API_KEY",
    },
    "deepseek-compatible": {
        "model_name": "deepseek-chat",
        "endpoint_url": "https://api.deepseek.com/chat/completions",
        "api_key_env": "DEEPSEEK_API_KEY",
    },
    "mock": {"model_name": "mock", "endpoint_url": "", "api_key_env": ""},
}

_PROVIDER_ALIASES = {
    "openai": "openai-compatible",
    "gemini": "gemini-compatible",
    "deepseek": "deepseek-compatible",
}


# The unset value of a provider-default field: None and "" are values a
# config may give, and model_name rejects them.
_UNSET: Any = object()


@dataclass(frozen=True)
class ProviderConfig(DictCodec):
    """One LLM provider endpoint and its calling discipline.

    `provider_id` may be a short alias ("openai"); it is stored as its
    canonical id. `model_name`, `endpoint_url` and `api_key_env` left unset
    take that provider's defaults."""

    provider_id: str = "mock"
    model_name: NonEmptyStr = _UNSET
    endpoint_url: str = _UNSET
    api_key_env: str = _UNSET
    temperature: float = 0.0
    max_retries: int = 3
    backoff_base_ms: int = 500
    llm_batch_size: int = 8
    timeout_ms: int = 30_000
    mock_table_path: Optional[str] = None

    def __post_init__(self):
        pid = _PROVIDER_ALIASES.get(self.provider_id, self.provider_id) \
            if isinstance(self.provider_id, str) else None
        if pid not in _PROVIDER_DEFAULTS:
            raise ConfigurationError(
                f"unknown provider_id {self.provider_id!r}; "
                f"expected one of {', '.join(_PROVIDER_DEFAULTS)}"
            )
        object.__setattr__(self, "provider_id", pid)
        if self.mock_table_path is not None and pid != "mock":
            raise ConfigurationError(
                f"mock_table_path is for provider 'mock', not {pid!r}: "
                "its table would be ignored and every score requested")
        for name, value in _PROVIDER_DEFAULTS[pid].items():
            if getattr(self, name) is _UNSET:
                object.__setattr__(self, name, value)
        super().__post_init__()
        for name, least in (("max_retries", 0), ("backoff_base_ms", 0),
                            ("llm_batch_size", 1), ("timeout_ms", 1),
                            ("temperature", 0)):
            if getattr(self, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}")


class LLMScore(NamedTuple):
    """Per-class scores in [0, 1] from one provider for one text, as
    `parse_scores` makes them.

    parse_ok is False exactly when no label -> number mapping could be
    extracted, in which case the scores are the uniform fallback 1/K.
    """

    scores: tuple[float, ...]
    parse_ok: bool


# Bump when the prompt wording changes; part of every cache key, so stale
# prompts can never serve cached scores.
PROMPT_TEMPLATE_VERSION = 1

TEXT_BEGIN = "<<<TEXT>>>"
TEXT_END = "<<<END>>>"


def build_prompt(text: str, schema: LabelSchema, mode: TaskMode) -> str:
    """Deterministic scoring prompt.

    Lists all label names verbatim in schema order, asks for a JSON object
    mapping each label to a score in [0, 1], states the mode's decision
    semantics, and embeds the input text verbatim between delimiters.
    """
    lines = [
        "You are a precise text classification scorer.",
        f"Score how well each label applies to the text between the {TEXT_BEGIN} "
        f"and {TEXT_END} markers.",
        "Labels:",
    ]
    lines.extend(f"- {name}" for name in schema.labels)
    if mode is TaskMode.MULTI_CLASS:
        lines.append(
            "Exactly one label is correct: give the single best label a clearly "
            "higher score than the rest."
        )
    else:
        lines.append(
            "Labels are independent: score each label on its own; any number of "
            "labels may apply."
        )
    lines.append(
        "Reply with only a JSON object mapping every label name, written exactly "
        "as listed, to a number between 0 and 1."
    )
    lines.append(TEXT_BEGIN)
    lines.append(text)
    lines.append(TEXT_END)
    return "\n".join(lines)


def extract_prompt_text(prompt: str) -> str:
    """Recover the verbatim input text from a build_prompt output."""
    begin = prompt.index("\n" + TEXT_BEGIN + "\n") + len(TEXT_BEGIN) + 2
    end = prompt.rindex("\n" + TEXT_END)
    return prompt[begin:end]


def prompt_template_digest(schema: LabelSchema, mode: TaskMode) -> str:
    """Digest of the prompt template version, label set, and mode.

    Any change to the wording version, the labels, or the mode changes the
    digest and thereby invalidates cache entries.
    """
    h = hashlib.sha256()
    h.update(str(PROMPT_TEMPLATE_VERSION).encode("ascii"))
    for name in schema.labels:
        data = name.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    h.update(mode.value.encode("ascii"))
    return h.hexdigest()


def _as_score(value) -> float | None:
    """Interpret a JSON value as a finite numeric score, or None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        num = float(value)
    elif isinstance(value, str):
        try:
            num = float(value)
        except ValueError:
            return None
    else:
        return None
    return num if math.isfinite(num) else None


def parse_scores(response_text: str, schema: LabelSchema) -> LLMScore:
    """Extract the first well-formed label -> number mapping in a response.

    A candidate JSON object is well-formed when at least one key equals a
    label name and every matched label's value is numeric; matched values
    are clamped into [0, 1] and missing labels score 0.0. When no candidate
    qualifies the result is the uniform 1/K fallback with parse_ok=False.
    Total: never raises, whatever the input bytes decode to.
    """
    decoder = json.JSONDecoder()
    labels = set(schema.labels)
    pos = response_text.find("{")
    while pos != -1:
        try:
            candidate, _ = decoder.raw_decode(response_text, pos)
        except ValueError:
            candidate = None
        if isinstance(candidate, dict):
            matched = {k: _as_score(v) for k, v in candidate.items() if k in labels}
            if matched and all(v is not None for v in matched.values()):
                clamped = {k: min(1.0, max(0.0, v)) for k, v in matched.items()}
                scores = tuple(clamped.get(name, 0.0) for name in schema.labels)
                return LLMScore(scores, parse_ok=True)
        pos = response_text.find("{", pos + 1)
    return LLMScore((1.0 / schema.K,) * schema.K, parse_ok=False)


class TransientProviderError(Exception):
    """Internal: a single attempt failed (a transport error with status
    None, a non-2xx status, or a malformed response envelope); `score_text`
    decides whether it is retried. `retry_after_s` is the delay a 429 or
    503 reply asked for, if any."""

    def __init__(self, status: int | None, detail: str,
                 retry_after_s: float | None = None):
        super().__init__(detail)
        self.status = status
        self.retry_after_s = retry_after_s


# The longest Retry-After a retry waits for; a longer one waits this long.
RETRY_AFTER_CAP_S = 60.0


def _rejected(status: int | None) -> bool:
    """Whether a failed attempt will fail the same way on retry: any status
    but 2xx (a malformed envelope), 408, 429 and 5xx, and not a transport
    error (None)."""
    return status is not None and not (
        200 <= status < 300 or status in (408, 429) or status >= 500)


def _retry_after_s(status: int, header: str | None) -> float | None:
    """The seconds a 429 or 503 reply's Retry-After asks to wait, when given
    as delta-seconds; None for an HTTP-date, anything unparseable, or
    another status."""
    if status not in (429, 503) or header is None:
        return None
    value = header.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return float(value)


def _requests_transport(url: str, headers: dict, body: dict,
                        timeout_s: float) -> tuple[int, str, str | None]:
    import requests  # deferred: it costs about a third of the CLI import

    resp = requests.post(url, headers=headers, json=body, timeout=timeout_s)
    return resp.status_code, resp.text, resp.headers.get("Retry-After")


class HttpChatProvider:
    """Chat-completions client for the OpenAI/DeepSeek/Gemini families.

    The transport is injectable for tests: a callable
    (url, headers, json_body, timeout_s) -> (status_code, body_text) or
    (status_code, body_text, retry_after), where retry_after is the reply's
    Retry-After header or None.
    """

    def __init__(self, pcfg: ProviderConfig,
                 transport: Callable[..., tuple] | None = None):
        if not pcfg.api_key_env:
            raise ConfigurationError(
                f"provider {pcfg.provider_id} needs api_key_env set"
            )
        api_key = os.environ.get(pcfg.api_key_env, "")
        if not api_key:
            raise ConfigurationError(
                f"environment variable {pcfg.api_key_env} is not set"
            )
        self.pcfg = pcfg
        self.api_key = api_key
        self.transport = transport or _requests_transport
        self.calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        url, headers, body = self._build_request(prompt)
        with self._calls_lock:  # score_providers calls from worker threads
            self.calls += 1
        try:
            status, text, *header = self.transport(
                url, headers, body, self.pcfg.timeout_ms / 1000.0)
        except Exception as exc:
            raise TransientProviderError(None, f"transport error: {exc}") from exc
        if not 200 <= status < 300:
            raise TransientProviderError(
                status, f"status {status}: {text[:200]}",
                _retry_after_s(status, header[0] if header else None))
        try:
            return self._extract_message(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransientProviderError(status,
                                         f"malformed response envelope: {exc}") from exc

    def _build_request(self, prompt: str) -> tuple[str, dict, dict]:
        pcfg = self.pcfg
        if pcfg.provider_id == "gemini-compatible":
            url = pcfg.endpoint_url.format(model=pcfg.model_name)
            headers = {"x-goog-api-key": self.api_key,
                       "Content-Type": "application/json"}
            body = {
                "contents": [{"parts": [{"text": prompt}]}],
                "generationConfig": {"temperature": pcfg.temperature},
            }
        else:
            url = pcfg.endpoint_url
            headers = {"Authorization": f"Bearer {self.api_key}",
                       "Content-Type": "application/json"}
            body = {
                "model": pcfg.model_name,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": pcfg.temperature,
            }
        return url, headers, body

    def _extract_message(self, body_text: str) -> str:
        parsed = json.loads(body_text)
        if self.pcfg.provider_id == "gemini-compatible":
            return parsed["candidates"][0]["content"]["parts"][0]["text"]
        return parsed["choices"][0]["message"]["content"]


class MockProvider:
    """Deterministic offline provider: a text -> scores lookup table.

    Texts absent from the table score uniform 1/K. Responses go through the
    same prompt/parse path as real providers. `calls` counts completions,
    which is how tests observe cache economy.
    """

    def __init__(self, table: dict[str, Sequence[float]], schema: LabelSchema):
        for text, scores in table.items():
            if len(scores) != schema.K:
                raise ConfigurationError(
                    f"mock table row for {text!r} has {len(scores)} scores, "
                    f"schema has {schema.K} labels"
                )
        self.table = {t: tuple(float(s) for s in scores)
                      for t, scores in table.items()}
        self.schema = schema
        self.calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._calls_lock:  # score_providers calls from worker threads
            self.calls += 1
        text = extract_prompt_text(prompt)
        scores = self.table.get(text)
        if scores is None:
            scores = (1.0 / self.schema.K,) * self.schema.K
        return json.dumps({name: score
                           for name, score in zip(self.schema.labels, scores)})


def write_mock_table(table: dict[str, Sequence[float]], path: str) -> None:
    """Write a mock lookup table in the read_vector_table format, whole
    (see `atomic_write_text`).

    A table that format cannot hold is a ConfigurationError, raised before
    any byte is written: a text with a tab or newline, a first text that
    starts with a BOM (which a reader drops), a row with no scores, a
    non-finite or non-numeric score, or rows of unequal widths.
    A file that cannot be written is a DataError.
    """
    lines, width = [], None
    for text, scores in table.items():
        if "\t" in text or "\n" in text:
            raise ConfigurationError(
                f"mock table text contains a tab or newline: {text!r}"
            )
        if not lines and text.startswith("\ufeff"):
            raise ConfigurationError(
                f"mock table's first text starts with a BOM: {text!r}")
        try:
            values = [float(s) for s in scores]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"mock table scores of {text!r} are not numbers: {exc}"
            ) from None
        if not values or not all(map(math.isfinite, values)):
            raise ConfigurationError(
                f"mock table row {text!r} needs finite scores, got {values}")
        width = width or len(values)
        if len(values) != width:
            raise ConfigurationError(
                f"mock table row {text!r} has {len(values)} scores, "
                f"earlier rows {width}")
        lines.append(text + "\t" + "\t".join(map(repr, values)) + "\n")
    try:
        atomic_write_text(Path(path), "".join(lines))
    except OSError as exc:
        raise DataError(f"cannot write mock table {path}: {exc}") from None


def make_provider(pcfg: ProviderConfig, schema: LabelSchema):
    """Instantiate the provider client described by a ProviderConfig."""
    if pcfg.provider_id == "mock":
        table = read_vector_table(pcfg.mock_table_path) if pcfg.mock_table_path else {}
        return MockProvider(table, schema)
    return HttpChatProvider(pcfg)


def score_text(text: str, schema: LabelSchema, mode: TaskMode,
               pcfg: ProviderConfig, provider,
               _sleep: Callable[[float], None] = time.sleep,
               _uniform: Callable[[float, float], float] = random.uniform,
               ) -> LLMScore:
    """Score one text with retries.

    Sends the build_prompt output to the provider at the configured
    temperature and returns parse_scores of the reply. A failed attempt
    `_rejected` names raises ProviderUnavailableError at once; any other
    is retried up to max_retries times, then raises it. Before retry n
    (from 0) it waits what a 429 or 503 reply's delta-seconds Retry-After
    asks, at most RETRY_AFTER_CAP_S, or else a uniform random time in
    [0, backoff_base_ms * 2^n] (exponential backoff with full jitter).
    """
    prompt = build_prompt(text, schema, mode)
    for attempt in range(pcfg.max_retries + 1):
        try:
            return parse_scores(provider.complete(prompt), schema)
        except TransientProviderError as exc:
            if _rejected(exc.status):
                raise ProviderUnavailableError(
                    f"provider {pcfg.provider_id} rejected the request "
                    f"(not retried): {exc}", last_status=exc.status) from exc
            if attempt == pcfg.max_retries:
                raise ProviderUnavailableError(
                    f"provider {pcfg.provider_id} unavailable after "
                    f"{pcfg.max_retries + 1} attempts: {exc}",
                    last_status=exc.status) from exc
            if exc.retry_after_s is not None:
                _sleep(min(exc.retry_after_s, RETRY_AFTER_CAP_S))
            else:
                _sleep(_uniform(0.0, pcfg.backoff_base_ms * 2 ** attempt
                                / 1000.0))


def score_batch(texts: Sequence[str], schema: LabelSchema, mode: TaskMode,
                pcfg: ProviderConfig, cache: ScoreCache | None = None,
                provider=None,
                _sleep: Callable[[float], None] = time.sleep,
                _uniform: Callable[[float, float], float] = random.uniform,
                ) -> np.ndarray:
    """Score many texts with one provider, cache-first: the (len(texts), K)
    float64 score matrix whose row i is for texts[i]; no texts give (0, K).

    The one-provider call of `score_providers`, which documents the cache,
    concurrency and failure rules.
    """
    return score_providers(texts, schema, mode, (pcfg,), cache,
                           None if provider is None else (provider,), _sleep,
                           _uniform)


def score_providers(texts: Sequence[str], schema: LabelSchema,
                    mode: TaskMode, pcfgs: Sequence[ProviderConfig],
                    cache: ScoreCache | None = None,
                    providers: Sequence | None = None,
                    _sleep: Callable[[float], None] = time.sleep,
                    _uniform: Callable[[float, float], float] = random.uniform,
                    ) -> np.ndarray:
    """One scoring pass over every provider: the (len(texts), P*K) float64
    block whose row i is for texts[i], provider j in columns j*K:(j+1)*K.

    Every (provider, distinct text) pair is looked up in the cache first,
    one `get_many` per provider, and each miss is fetched once; its score
    fills every row of its text.
    All providers' misses are fetched at the same time from one thread
    pool, where provider j's min(llm_batch_size, misses) workers drain its
    own list: llm_batch_size caps one provider's requests in flight, and a
    cold batch waits for the slowest provider. Each fetched score is
    cached as it arrives, so neither an interrupt nor a failure elsewhere
    loses the scores already paid for. A reply that does not parse is never
    cached, and a cached entry with parse_ok False (older caches hold some)
    reads as a miss: the uniform fallback fills this call's rows, and the
    next call asks the provider again. A cached entry without K scores is
    corrupt: a miss with a warning, healed by the refetched score's put.
    `providers` optionally injects one client per config (testing hook);
    another count of clients is a ConfigurationError, and a bare str is a
    DataError, both raised before any call.

    Each provider's `found` mask marks the distinct texts it has a score
    for: its cache hits, then each fetched score or parse fallback. If a
    text still fails after retries, on any provider, the pass raises
    ProviderUnavailableError once every provider is done: it names the
    providers whose mask is not full, failed_indices holds the sorted
    rows a mask leaves unscored (the message shows 10), and its cause is
    the failure of the lowest such row (first provider first). A failure
    `_rejected` names (a 401 for a bad key, say) stops its provider: its
    deque is cleared, so only its requests in flight finish, and the
    message gives the number of texts it never tried and the status. An
    interrupt, or a worker raising anything else, stops every provider so
    and is re-raised.
    """
    check_texts(texts)
    if providers is not None and len(providers) != len(pcfgs):
        raise ConfigurationError(
            f"{len(providers)} injected providers for {len(pcfgs)} "
            "configured providers; give one per configured provider")
    template = prompt_template_digest(schema, mode)
    k = schema.K
    # The distinct texts in order of first use; row i is for
    # distinct[inverse[i]].
    first: dict[str, int] = {}
    inverse = np.fromiter((first.setdefault(t, len(first)) for t in texts),
                          dtype=np.intp, count=len(texts))
    distinct = list(first)

    # Per provider, the cache key of a text is its prefix + text digest.
    prefixes = [cache_key_prefix(pcfg.provider_id, pcfg.model_name, template)
                for pcfg in pcfgs]
    blocks: list[np.ndarray] = []  # per provider, row d for distinct[d]
    founds: list[np.ndarray] = []  # per provider, whether row d is scored
    misses: list[deque[int]] = []  # per provider, the d still to fetch
    for prefix in prefixes:
        if cache is None:
            block = np.empty((len(distinct), k))
            found = np.zeros(len(distinct), dtype=bool)
        else:
            block, found = cache.get_many(
                (prefix + text_digest(text) for text in distinct), k)
        blocks.append(block)
        founds.append(found)
        misses.append(deque(np.flatnonzero(~found).tolist()))

    if providers is None:
        providers = [make_provider(pcfg, schema) if missing else None
                     for pcfg, missing in zip(pcfgs, misses)]
    # Each text a provider was asked for and failed on, as (d, j, error),
    # and per provider a rejection stopped, its status.
    failures: list[tuple[int, int, ProviderUnavailableError]] = []
    stops: dict[int, int] = {}

    def drain(j: int) -> None:
        pcfg, provider, missing = pcfgs[j], providers[j], misses[j]
        while True:
            try:
                d = missing.popleft()
            except IndexError:
                return
            try:
                score = score_text(distinct[d], schema, mode, pcfg, provider,
                                   _sleep=_sleep, _uniform=_uniform)
            except ProviderUnavailableError as exc:
                failures.append((d, j, exc))
                if _rejected(exc.last_status):
                    stops.setdefault(j, exc.last_status)
                    missing.clear()
                continue
            blocks[j][d] = score.scores
            founds[j][d] = True
            if cache is None or not score.parse_ok:
                continue
            try:
                cache.put(prefixes[j] + text_digest(distinct[d]),
                          score.scores)
            except CacheWriteError as exc:
                logger.warning("cache write failed, continuing uncached: %s",
                               exc)

    workers = [j for j, (pcfg, missing) in enumerate(zip(pcfgs, misses))
               for _ in range(min(pcfg.llm_batch_size, len(missing)))]
    if workers:
        with ThreadPoolExecutor(max_workers=len(workers)) as pool:
            try:
                for future in as_completed([pool.submit(drain, j)
                                            for j in workers]):
                    future.result()
            except BaseException:
                for missing in misses:
                    missing.clear()
                raise

    if failures:
        names = [f"{pcfg.provider_id}/{pcfg.model_name}" for pcfg in pcfgs]
        indices = np.flatnonzero(
            ~np.logical_and.reduce(founds)[inverse]).tolist()
        shown = ", ".join(map(str, indices[:10])) \
            + (", ..." if len(indices) > 10 else "")
        tried = [j for _, j, _ in failures]
        not_tried = "".join(
            f"; {np.count_nonzero(~founds[j]) - tried.count(j)} texts not "
            f"attempted on {names[j]} after status {status}"
            for j, status in sorted(stops.items()))
        cause = min(failures, key=lambda failure: failure[:2])[2]
        raise ProviderUnavailableError(
            f"{len(indices)} of {len(texts)} texts failed on "
            f"{', '.join(n for n, f in zip(names, founds) if not f.all())} "
            f"(indices [{shown}]){not_tried}: {cause}",
            last_status=cause.last_status,
            failed_indices=indices,
        )

    scores = np.empty((len(texts), len(pcfgs) * k))
    for j, block in enumerate(blocks):
        scores[:, j * k:(j + 1) * k] = block[inverse]
    return scores
