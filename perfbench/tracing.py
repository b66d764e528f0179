"""Span tracing for the traced benchmark run.

Each scorefusion layer is traced by wrapping its public functions where the
caller looks them up (for example the `forward` that `pipeline` imported,
or `ScoreCache.get` on the class). A wrapper records one span per call:
name, start, end, parent span and thread. Spans stay in memory and are
written out when the run ends; per-layer busy time and counts are derived
from them afterwards. Nothing under src/ changes, and every wrapper is
removed when `installed` exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    thread: int


class Tracer:
    """In-memory span and counter store shared by every wrapper.

    A span opened on a thread with no open span of its own (a worker of
    `score_batch`'s thread pool) takes the innermost open span of the
    thread that created the tracer as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: set = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack: list[tuple[int, str]] = []
        self._main_thread = threading.get_ident()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.get_ident() == self._main_thread
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _fallback_parent(self) -> int:
        try:
            return self._main_stack[-1][0]
        except IndexError:
            return 0

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[counter] += amount

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (e.g. an import)."""
        with self._lock:
            sid = next(self._ids)
            self.spans.append(Span(sid, name, start, end, 0,
                                   threading.get_ident()))

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                # A re-entrant call of the same layer, e.g. a provider
                # subclass calling super().complete: one span, one count.
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else tracer._fallback_parent()
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(Span(sid, name, start, end, parent,
                                             threading.get_ident()))
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def to_doc(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
                "distinct": len(self.distinct)}


# --- counting hooks: (tracer, args, kwargs, result) -> None --------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_ngrams(tracer, args, kwargs, result) -> None:
    text, cfg = _arg(args, kwargs, 0, "text"), _arg(args, kwargs, 1, "cfg")
    n_chars = len(text.lower())
    tracer.add("ngrams", sum(max(0, n_chars - n + 1) for n in cfg.ngram_sizes))


def _count_sparse_rows(tracer, args, kwargs, result) -> None:
    tracer.add("sparse_rows", len(_arg(args, kwargs, 1, "feats_batch")))


def _count_cache_hit(tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.add("cache_hits")


def _count_parse_failure(tracer, args, kwargs, result) -> None:
    if not result.parse_ok:
        tracer.add("parse_failures")


def _count_distinct_texts(tracer, args, kwargs, result) -> None:
    texts = _arg(args, kwargs, 0, "texts")
    pcfg = _arg(args, kwargs, 3, "pcfg")
    with tracer._lock:
        tracer.distinct.update((pcfg.provider_id, pcfg.model_name, t)
                               for t in texts)


def _count_model_bytes(tracer, args, kwargs, result) -> None:
    size = os.path.getsize(_arg(args, kwargs, 1, "path"))
    with tracer._lock:
        tracer.counts["model_bytes"] = size


# Span name -> ("module:attribute.path" targets, counting hook). A target
# names the binding a caller looks up, so `scorefusion.pipeline:forward` is
# the `forward` that pipeline imported from fusion.
LAYERS: tuple[tuple[str, tuple[str, ...], Optional[Callable]], ...] = (
    ("core.fingerprint", ("scorefusion.pipeline:dataset_fingerprint",
                          "scorefusion.cli:dataset_fingerprint"), None),
    ("core.validate", ("scorefusion.pipeline:validate_dataset",), None),
    ("encoder.featurize", ("scorefusion.encoder:featurize",), _count_ngrams),
    ("encoder.embed", ("scorefusion.encoder:HashedNgramEncoder.embed_features",
                       "scorefusion.encoder:encode"), None),
    ("encoder.sparse_update",
     ("scorefusion.encoder:HashedNgramEncoder.apply_sparse_gradients",),
     _count_sparse_rows),
    ("fusion.assemble", ("scorefusion.pipeline:assemble_input",), None),
    ("fusion.forward", ("scorefusion.pipeline:forward",), None),
    ("fusion.backward", ("scorefusion.pipeline:backward",), None),
    ("fusion.loss", ("scorefusion.pipeline:batch_loss_and_dlogits",), None),
    ("fusion.step", ("scorefusion.pipeline:fusion_step",), None),
    ("fusion.decide", ("scorefusion.pipeline:decide",), None),
    ("llm.score_batch", ("scorefusion.pipeline:score_batch",),
     _count_distinct_texts),
    ("llm.score_text", ("scorefusion.llm:score_text",), None),
    ("llm.provider", ("scorefusion.llm:MockProvider.complete",
                      "scorefusion.llm:HttpChatProvider.complete",
                      "perfbench.workloads:LatencyProvider.complete"), None),
    ("llm.parse", ("scorefusion.llm:parse_scores",), _count_parse_failure),
    ("cache.get", ("scorefusion.cache:ScoreCache.get",), _count_cache_hit),
    ("cache.put", ("scorefusion.cache:ScoreCache.put",), None),
    ("metrics.compute", ("scorefusion.pipeline:compute_metrics",), None),
    ("results.run_io", ("scorefusion.pipeline:run_create",
                        "scorefusion.cli:run_create",
                        "scorefusion.results:RunHandle.log_epoch",
                        "scorefusion.results:RunHandle.store_predictions",
                        "scorefusion.results:RunHandle.finalize",
                        "scorefusion.cli:prediction_rows",
                        "scorefusion.cli:write_predictions_csv"), None),
    ("pipeline.fit", ("scorefusion.pipeline:fit", "scorefusion.cli:fit"), None),
    ("pipeline.predict", ("scorefusion.pipeline:predict",
                          "scorefusion.cli:pipeline_predict"), None),
    ("pipeline.evaluate", ("scorefusion.pipeline:evaluate",
                           "scorefusion.cli:evaluate"), None),
    ("pipeline.save_model", ("scorefusion.pipeline:save_model",
                             "scorefusion.cli:save_model"), _count_model_bytes),
    ("pipeline.load_model", ("scorefusion.pipeline:load_model",
                             "scorefusion.cli:load_model"), None),
    ("cli.load_csv", ("scorefusion.cli:load_csv_dataset",
                      "scorefusion.cli:_read_texts_csv"), None),
    ("cli.main", ("scorefusion.cli:main",), None),
)


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Wrap only what the owner defines itself: an inherited method is
    # traced where it is defined.
    namespace = vars(owner)
    if attr not in namespace or not callable(namespace[attr]):
        return None
    return owner, attr, namespace[attr]


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS) -> Iterator[list[str]]:
    """Install a wrapper on every target that exists; yield the names of
    layers none of whose targets exist (reported absent, not failed)."""
    restore = []
    absent = []
    try:
        for name, targets, on_return in layers:
            found = False
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr, original = resolved
                setattr(owner, attr, tracer.wrap(name, original, on_return))
                restore.append((owner, attr, original))
                found = True
            if not found:
                absent.append(name)
        yield absent
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# --- analysis ------------------------------------------------------------

def attribute_self_time(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id, over one process's timeline.

    At each instant the time goes to the open spans with no open child
    (the leaves), split evenly when several are open at once on different
    threads. For spans that nest without overlapping this is a span's
    duration minus the part of it its children cover; with concurrent
    children the self times still sum to the time covered by any span, so
    they never exceed the traced wall time.
    """
    spans = list(spans)
    parent = {s.id: s.parent for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, -s.id))  # ends first; children end first
    events.sort()
    self_time = {s.id: 0.0 for s in spans}
    open_children: dict[int, int] = {}
    leaf_since: dict[int, float] = {}
    acc = 0.0  # integral of dt / number of leaves
    t_prev = None
    for t, is_start, key in events:
        if leaf_since and t_prev is not None:
            acc += (t - t_prev) / len(leaf_since)
        t_prev = t
        sid = key if is_start else -key
        p = parent[sid]
        if is_start:
            if p in open_children:
                if open_children[p] == 0:
                    self_time[p] += acc - leaf_since.pop(p)
                open_children[p] += 1
            open_children[sid] = 0
            leaf_since[sid] = acc
        else:
            if open_children.pop(sid) == 0:
                self_time[sid] += acc - leaf_since.pop(sid)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaf_since[p] = acc
    return self_time


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class LayerTotals:
    """Per span name: summed self time, summed duration, covered time and
    call count, accumulated over one or more process timelines."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.union_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def add_timeline(self, spans: list[Span]) -> None:
        self_time = attribute_self_time(spans)
        intervals: dict[str, list] = defaultdict(list)
        for s in spans:
            self.self_s[s.name] += self_time[s.id]
            self.wall_s[s.name] += s.end - s.start
            self.calls[s.name] += 1
            intervals[s.name].append((s.start, s.end))
        for name, ivs in intervals.items():
            self.union_s[name] += _union_length(ivs)

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric name -> unit, in report order. Times and counts are per
# workload operation (one fit-eval cycle, one served batch, or one CLI
# process).
PER_LAYER_UNITS = {
    "core.fingerprint_s": "s/op",
    "core.validate_s": "s/op",
    "encoder.featurize_s": "s/op",
    "encoder.ngrams_per_s": "1/s",
    "encoder.embed_s": "s/op",
    "encoder.embed_calls": "count/op",
    "encoder.sparse_update_s": "s/op",
    "encoder.sparse_update_rows_per_s": "1/s",
    "fusion.assemble_s": "s/op",
    "fusion.forward_s": "s/op",
    "fusion.backward_s": "s/op",
    "fusion.loss_s": "s/op",
    "fusion.step_s": "s/op",
    "fusion.decide_s": "s/op",
    "fusion.decide_calls": "count/op",
    "llm.score_batch_s": "s/op",
    "llm.provider_calls": "count/op",
    "llm.provider_wait_s": "s/op",
    "llm.provider_inflight_mean": "calls",
    "llm.parse_s": "s/op",
    "llm.parse_failures": "count/op",
    "llm.retries": "count/op",
    "llm.calls_per_distinct_text": "calls/text",
    "cache.get_s": "s/op",
    "cache.gets": "count/op",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s/op",
    "cache.puts": "count/op",
    "metrics.compute_s": "s/op",
    "results.run_io_s": "s/op",
    "pipeline.fit_self_s": "s/op",
    "pipeline.predict_self_s": "s/op",
    "pipeline.save_model_s": "s/op",
    "pipeline.load_model_s": "s/op",
    "pipeline.model_bytes": "bytes",
    "cli.import_s": "s/op",
    "cli.load_csv_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "trace.covered_ratio": "ratio",
}


def layer_metrics(totals: LayerTotals, counts: dict[str, float],
                  distinct: int, n_ops: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from span totals and hook counts.

    `distinct` is the number of distinct (provider, model, text) triples
    that `score_batch` was asked to score.
    """
    s, calls = totals.self_s, totals.calls

    def per_op(value: float) -> float:
        return value / n_ops

    provider_calls = calls["llm.provider"]
    values = {
        "core.fingerprint_s": per_op(s["core.fingerprint"]),
        "core.validate_s": per_op(s["core.validate"]),
        "encoder.featurize_s": per_op(s["encoder.featurize"]),
        "encoder.ngrams_per_s": _ratio(counts.get("ngrams", 0.0),
                                       s["encoder.featurize"]),
        "encoder.embed_s": per_op(s["encoder.embed"]),
        "encoder.embed_calls": per_op(calls["encoder.embed"]),
        "encoder.sparse_update_s": per_op(s["encoder.sparse_update"]),
        "encoder.sparse_update_rows_per_s": _ratio(
            counts.get("sparse_rows", 0.0), s["encoder.sparse_update"]),
        "fusion.assemble_s": per_op(s["fusion.assemble"]),
        "fusion.forward_s": per_op(s["fusion.forward"]),
        "fusion.backward_s": per_op(s["fusion.backward"]),
        "fusion.loss_s": per_op(s["fusion.loss"]),
        "fusion.step_s": per_op(s["fusion.step"]),
        "fusion.decide_s": per_op(s["fusion.decide"]),
        "fusion.decide_calls": per_op(calls["fusion.decide"]),
        "llm.score_batch_s": per_op(s["llm.score_batch"]),
        "llm.provider_calls": per_op(provider_calls),
        "llm.provider_wait_s": per_op(totals.wall_s["llm.provider"]),
        "llm.provider_inflight_mean": _ratio(totals.wall_s["llm.provider"],
                                             totals.union_s["llm.provider"]),
        "llm.parse_s": per_op(s["llm.parse"]),
        "llm.parse_failures": per_op(counts.get("parse_failures", 0.0)),
        "llm.retries": per_op(max(0, provider_calls
                                  - calls["llm.score_text"])),
        "llm.calls_per_distinct_text": _ratio(provider_calls, distinct),
        "cache.get_s": per_op(s["cache.get"]),
        "cache.gets": per_op(calls["cache.get"]),
        "cache.hit_ratio": _ratio(counts.get("cache_hits", 0.0),
                                  calls["cache.get"]),
        "cache.put_s": per_op(s["cache.put"]),
        "cache.puts": per_op(calls["cache.put"]),
        "metrics.compute_s": per_op(s["metrics.compute"]),
        "results.run_io_s": per_op(s["results.run_io"]),
        "pipeline.fit_self_s": per_op(s["pipeline.fit"]),
        "pipeline.predict_self_s": per_op(s["pipeline.predict"]),
        "pipeline.save_model_s": per_op(s["pipeline.save_model"]),
        "pipeline.load_model_s": per_op(s["pipeline.load_model"]),
        "pipeline.model_bytes": counts.get("model_bytes", 0.0),
        "cli.import_s": per_op(s["cli.import"]),
        "cli.load_csv_s": per_op(s["cli.load_csv"]),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
        "trace.covered_ratio": _ratio(totals.total_self_s, traced_wall_s),
    }
    return values
