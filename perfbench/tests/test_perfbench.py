"""Tests for the benchmark's own helpers.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

import scorefusion.pipeline
from perfbench.run import E2E_UNITS, WORKLOAD_NAMES
from perfbench.stats import tail_percentile
from perfbench.tracing import (
    PER_LAYER_UNITS,
    LayerTotals,
    Span,
    Tracer,
    attribute_self_time,
    installed,
    layer_metrics,
)
from perfbench.workloads import (
    SERVE_LABELS,
    LatencyProvider,
    ServeStream,
    serve_training_set,
)
from scorefusion.core import LabelSchema

ROOT = Path(__file__).resolve().parents[2]


# --- tail percentile rule ------------------------------------------------

@pytest.mark.parametrize("n, expected_p", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    samples = [float(i) for i in range(1, n + 1)]
    result = tail_percentile(list(reversed(samples)))
    if expected_p is None:
        assert result is None
        return
    p, value = result
    assert p == expected_p
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_is_nearest_rank():
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)


# --- self time from spans ------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, "a", 0.0, 10.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 1, 1),
        Span(3, "d", 3.0, 4.0, 2, 1),
        Span(4, "c", 6.0, 8.0, 1, 1),
    ]
    self_time = attribute_self_time(spans)
    assert self_time == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0})


def test_self_time_splits_concurrent_children_within_wall():
    # Two worker-thread children of one parent overlap on [2, 6].
    spans = [
        Span(1, "batch", 0.0, 10.0, 0, 1),
        Span(2, "provider", 1.0, 6.0, 1, 2),
        Span(3, "provider", 2.0, 7.0, 1, 3),
    ]
    self_time = attribute_self_time(spans)
    assert self_time == pytest.approx({1: 4.0, 2: 3.0, 3: 3.0})
    assert sum(self_time.values()) == pytest.approx(10.0)


def test_self_times_never_exceed_covered_time():
    spans = [Span(i + 1, "p", 0.1 * i, 0.1 * i + 1.0, 0, i) for i in range(8)]
    totals = LayerTotals()
    totals.add_timeline(spans)
    assert totals.total_self_s == pytest.approx(1.7)
    assert totals.wall_s["p"] == pytest.approx(8.0)
    assert totals.union_s["p"] == pytest.approx(1.7)


# --- wrappers ------------------------------------------------------------

def test_installed_restores_originals_and_reports_absent_layers():
    original = scorefusion.pipeline.forward
    layers = (("fusion.forward", ("scorefusion.pipeline:forward",), None),
              ("gone.layer", ("scorefusion.pipeline:no_such_function",
                              "no_such_module:f"), None))
    tracer = Tracer()
    with installed(tracer, layers) as absent:
        assert absent == ["gone.layer"]
        assert scorefusion.pipeline.forward is not original
    assert scorefusion.pipeline.forward is original


def test_reentrant_provider_call_is_one_span():
    schema = LabelSchema(("yes", "no"))
    provider = LatencyProvider({"hi": (0.9, 0.1)}, schema)
    tracer = Tracer()
    with installed(tracer):
        provider.complete("x\n<<<TEXT>>>\nhi\n<<<END>>>")
    assert [s.name for s in tracer.spans] == ["llm.provider"]


def test_worker_thread_span_takes_main_thread_parent():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: None)

    def parent():
        worker = threading.Thread(target=child)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("parent", parent)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["child"].parent == by_name["parent"].id
    assert by_name["child"].thread != by_name["parent"].thread


def test_layer_metrics_report_every_per_layer_metric():
    values = layer_metrics(LayerTotals(), {}, 0, 1, 1.0, 1.0)
    assert list(values) == list(PER_LAYER_UNITS)


# --- latency provider ----------------------------------------------------

def test_latency_provider_counts_every_call_under_contention():
    schema = LabelSchema(("yes", "no"))
    provider = LatencyProvider({}, schema)
    n_threads, per_thread = 16, 300
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [provider.complete("\n<<<TEXT>>>\nt\n<<<END>>>")
                            for _ in range(per_thread)])
            for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert provider.call_count == n_threads * per_thread


# --- deterministic inputs ------------------------------------------------

def _batches(seed: int, n: int = 20) -> list[list[str]]:
    stream = ServeStream(seed, batch_size=16, repeat_share=0.25, window=64)
    return [stream.next_batch() for _ in range(n)]


def test_serve_inputs_are_a_function_of_the_seed():
    assert _batches(3) == _batches(3)
    assert _batches(3) != _batches(4)
    train_a, tables_a = serve_training_set(3, 50)
    train_b, tables_b = serve_training_set(3, 50)
    assert train_a == train_b and tables_a == tables_b
    assert train_a.schema.labels == SERVE_LABELS


def test_serve_stream_repeats_within_and_across_batches():
    batches = _batches(5, n=50)
    served = [t for b in batches for t in b]
    assert 0.15 < 1 - len(set(served)) / len(served) < 0.35
    assert any(len(set(b)) < len(b) for b in batches)
    training = {row.text for row in serve_training_set(5, 600)[0].rows}
    assert not training & set(served)


# --- BENCHMARK.json ------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
