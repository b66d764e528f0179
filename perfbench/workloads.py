"""The benchmark's workloads and the inputs they generate from a seed.

fit-eval    The headline complementarity experiment: a timed `fit` and an
            `evaluate` on the held-out split, with every LLM score already
            in the cache. Loads encoder, fusion, pipeline; llm does
            almost nothing.
serve-cold  One closed-loop client predicting small multi-label batches
            through two mock providers with injected latency and a cache
            that starts empty. Loads llm fan-out, parse_scores, cache.
cli-cold    Fresh `python3 -m scorefusion.cli` processes (train, evaluate,
            predict) with the default encoder and a warm cache. Loads
            import, model save/load, CSV and run-directory I/O.

scorefusion only ever sees the generated inputs.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from scorefusion import pipeline as sfp
from scorefusion.cache import cache_open, cache_open_adopt
from scorefusion.cli import load_csv_dataset
from scorefusion.core import (
    Dataset,
    LabelSchema,
    LabelVector,
    TaskMode,
    TextExample,
    dataset_fingerprint,
)
from scorefusion.encoder import EncoderConfig
from scorefusion.fusion import FusionConfig
from scorefusion.llm import MockProvider, ProviderConfig, score_batch, write_mock_table
from scorefusion.metrics import compute_metrics
from scorefusion.synthetic import make_complementary_data

from .stats import describe

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))


class LatencyProvider(MockProvider):
    """A mock provider that sleeps `latency_s` per `complete` call, standing
    in for network latency, and counts calls under a lock.

    `MockProvider.calls` is incremented without a lock from
    `score_batch`'s worker threads, so the benchmark reads `call_count`.
    """

    def __init__(self, table, schema: LabelSchema, latency_s: float = 0.0):
        super().__init__(table, schema)
        self.latency_s = latency_s
        self.call_count = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.call_count += 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        return super().complete(prompt)


class Workload:
    """Set-up, one timed operation, correctness checks and metrics.

    Every operation and every correctness check counts as attempted; a
    raised exception or a failed check counts as failed.
    """

    name = ""
    in_process = True
    min_ops = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def timed_op(self) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.op()
        except Exception:
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=4))
        return time.perf_counter() - start

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def begin_pass(self, work: Path) -> None:
        """Reset per-pass state; the traced run measures two passes."""

    def op(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Correctness checks over what the pass produced."""

    def e2e(self) -> dict[str, float]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def facts(self) -> dict:
        return {}

    def report(self) -> list[str]:
        return []


def _median(samples: list[float]) -> float:
    return statistics.median(samples)


def _rate(work_per_op: float, walls: list[float]) -> float:
    """Work per second over every operation of a pass: total work over
    total time. On the shared host, timings switch between a fast and a slow
    mode every few seconds, which moves a median by a fifth from run to run
    while the total averages over both."""
    return work_per_op * len(walls) / sum(walls)


def _small_encoder() -> EncoderConfig:
    # 2^13 x 32 float64 = 2 MiB: the projection fits one core's L2.
    return EncoderConfig(dim=32, buckets=2 ** 13, lr_small=0.02)


# --------------------------------------------------------------------------
# fit-eval

class FitEval(Workload):
    name = "fit-eval"
    ROWS = 2000  # 1000 train, 1000 held out
    EPOCHS = 40
    # evaluate takes a tenth of fit's time; five per cycle give its rate
    # enough measured time to average out the host's timing noise.
    EVALUATES_PER_CYCLE = 5
    MIN_ACCURACY = 0.90  # the acceptance gate's fusion bound

    def __init__(self, seed: int):
        super().__init__(seed)
        self.prefill_calls = 0  # over every set-up filling the one cache

    def setup(self, work: Path) -> None:
        data = make_complementary_data(n_rows=self.ROWS, k=4, seed=self.seed)
        schema = data.train.schema
        # The head and rates of scripts/run_complementarity.py.
        self.cfg = sfp.AutoFusionConfig(
            label_columns=schema.labels,
            llm_providers=(ProviderConfig(provider_id="mock"),),
            encoder=_small_encoder(),
            fusion=FusionConfig(hidden_sizes=(32,), epochs=self.EPOCHS,
                                lr_high=0.15, train_batch_size=32, seed=42),
            validation_fraction=0.0,
        )
        self.data = data
        self.cache = cache_open(work / "cache", dataset_fingerprint(data.train))
        provider = LatencyProvider(data.mock_table, schema)
        texts = data.train.texts() + data.eval.texts()
        score_batch(texts, schema, data.train.mode, self.cfg.llm_providers[0],
                    cache=self.cache, provider=provider)
        self.distinct = len(set(texts))
        self.prefill_calls += provider.call_count

    def begin_pass(self, work: Path) -> None:
        self.provider = LatencyProvider(self.data.mock_table,
                                        self.data.train.schema)
        self.fit_walls: list[float] = []
        self.eval_walls: list[float] = []
        self.accuracies: list[float] = []

    def op(self) -> None:
        start = time.perf_counter()
        model, _ = sfp.fit(self.data.train, self.cfg, cache=self.cache,
                           providers=[self.provider])
        self.fit_walls.append(time.perf_counter() - start)
        for _ in range(self.EVALUATES_PER_CYCLE):
            start = time.perf_counter()
            report = sfp.evaluate(model, self.data.eval, cache=self.cache,
                                  providers=[self.provider])
            self.eval_walls.append(time.perf_counter() - start)
            self.accuracies.append(report.accuracy)
            self.check(report.accuracy >= self.MIN_ACCURACY,
                       f"fit-eval accuracy {report.accuracy} < "
                       f"{self.MIN_ACCURACY}")

    def finish(self) -> None:
        calls = self.provider.call_count
        self.check(calls == 0,
                   f"fit-eval made {calls} provider calls on a warm cache")

    def e2e(self) -> dict[str, float]:
        n_train, n_eval = len(self.data.train), len(self.data.eval)
        return {
            "eval_accuracy": _median(self.accuracies),
            "fit_rows_per_s": _rate(n_train * self.EPOCHS, self.fit_walls),
            "predict_texts_per_s": _rate(n_eval, self.eval_walls),
            "provider_calls_per_distinct_text":
                (self.prefill_calls + self.provider.call_count) / self.distinct,
        }

    def facts(self) -> dict:
        return {"corpus_rows": self.ROWS, "train_rows": len(self.data.train),
                "eval_rows": len(self.data.eval), "classes": 4,
                "mode": "multi_class", "epochs": self.EPOCHS,
                "evaluates_per_cycle": self.EVALUATES_PER_CYCLE,
                "train_batch_size": 32, "encoder": "2^13 x 32",
                "fusion_hidden": [32], "cache": "pre-filled (hit ratio 1.0)"}

    def report(self) -> list[str]:
        return [f"fit_s: {describe(self.fit_walls, 's')}",
                f"evaluate_s: {describe(self.eval_walls, 's')}"]


# --------------------------------------------------------------------------
# serve-cold inputs: multi-label texts from per-label signature words plus
# noise, each with two providers' score rows.

SERVE_LABELS = ("red", "green", "blue", "gold")
_SERVE_SIGNATURES = (
    ("ruby", "garnet", "cherry"),
    ("fern", "jade", "olive"),
    ("cobalt", "indigo", "navy"),
    ("saffron", "honey", "brass"),
)
_SERVE_NOISE = ("memo", "ticket", "thread", "notice", "query", "reply",
                "status", "digest", "packet", "record", "summary", "item")


def _draw_serve_row(rng: np.random.Generator, prefix: str, used: set[str]):
    """(text, target bits, provider-a scores, provider-b scores)."""
    k = len(SERVE_LABELS)
    while True:
        n_true = 1 if rng.random() < 0.6 else 2
        true = set(int(c) for c in rng.choice(k, size=n_true, replace=False))
        words = [_SERVE_SIGNATURES[c][int(rng.integers(3))] for c in sorted(true)]
        words += [_SERVE_NOISE[int(i)]
                  for i in rng.integers(len(_SERVE_NOISE), size=5 - n_true)]
        order = rng.permutation(len(words))
        text = " ".join(words[i] for i in order) + \
            f" {prefix}{int(rng.integers(1_000_000)):06d}"
        if text not in used:
            used.add(text)
            break
    bits = tuple(1 if c in true else 0 for c in range(k))
    score_a = tuple(round(float(rng.uniform(0.65, 0.95) if b
                                else rng.uniform(0.02, 0.30)), 3) for b in bits)
    score_b = tuple(round(float(rng.uniform(0.50, 0.90) if b
                                else rng.uniform(0.05, 0.45)), 3) for b in bits)
    return text, bits, score_a, score_b


def serve_training_set(seed: int, n_rows: int):
    """Multi-label training rows plus both providers' score tables."""
    rng = np.random.default_rng([seed, 0])
    used: set[str] = set()
    rows, table_a, table_b = [], {}, {}
    for _ in range(n_rows):
        text, bits, a, b = _draw_serve_row(rng, "t", used)
        rows.append(TextExample(text, LabelVector(bits)))
        table_a[text], table_b[text] = a, b
    ds = Dataset(LabelSchema(SERVE_LABELS), TaskMode.MULTI_LABEL, rows)
    return ds, (table_a, table_b)


class ServeStream:
    """Deterministic stream of serve-cold batches for one seed.

    Each slot of a batch repeats, with probability `repeat_share`, a text
    among the last `window` served (so repeats fall both inside a batch and
    across batches); otherwise it draws a text never served before. Texts
    are generated on demand, so the stream never runs dry; the k-th batch
    depends only on the seed.
    """

    def __init__(self, seed: int, batch_size: int, repeat_share: float,
                 window: int):
        self.batch_size = batch_size
        self.repeat_share = repeat_share
        self.window = window
        self.tables: tuple[dict, dict] = ({}, {})
        self.targets: dict[str, LabelVector] = {}
        self._rng = np.random.default_rng([seed, 1])
        self._used: set[str] = set()
        self._served: list[str] = []

    def next_batch(self) -> list[str]:
        batch = []
        for _ in range(self.batch_size):
            if self._served and self._rng.random() < self.repeat_share:
                back = int(self._rng.integers(min(self.window,
                                                  len(self._served))))
                text = self._served[-1 - back]
            else:
                text, bits, a, b = _draw_serve_row(self._rng, "s", self._used)
                self.tables[0][text], self.tables[1][text] = a, b
                self.targets[text] = LabelVector(bits)
            self._served.append(text)
            batch.append(text)
        return batch


class ServeCold(Workload):
    name = "serve-cold"
    min_ops = 30
    BATCH = 16
    REPEAT_SHARE = 0.25
    WINDOW = 64
    LATENCY_S = 0.010
    # The set-up fits give serve-cold's fit_rows_per_s: five 2 s fits
    # average over the host's few-second fast and slow modes.
    TRAIN_ROWS = 1500
    EPOCHS = 16
    LR_HIGH = 0.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.setup_fit_walls: list[float] = []

    def _provider_configs(self) -> tuple[ProviderConfig, ...]:
        # In-flight calls per score_batch are capped at nproc.
        return tuple(ProviderConfig(provider_id="mock", model_name=name,
                                    llm_batch_size=NPROC)
                     for name in ("mock-a", "mock-b"))

    def setup(self, work: Path) -> None:
        train, tables = serve_training_set(self.seed, self.TRAIN_ROWS)
        cfg = sfp.AutoFusionConfig(
            label_columns=SERVE_LABELS, multi_label=True,
            llm_providers=self._provider_configs(), encoder=_small_encoder(),
            fusion=FusionConfig(hidden_sizes=(32,), epochs=self.EPOCHS,
                                lr_high=self.LR_HIGH, seed=42),
            validation_fraction=0.0,
        )
        providers = [LatencyProvider(t, train.schema) for t in tables]
        start = time.perf_counter()
        self.model, _ = sfp.fit(train, cfg, providers=providers)
        self.setup_fit_walls.append(time.perf_counter() - start)
        self.fingerprint = dataset_fingerprint(train)

    def begin_pass(self, work: Path) -> None:
        self.cache = cache_open(work / "serve-cache", self.fingerprint)
        self.stream = ServeStream(self.seed, self.BATCH, self.REPEAT_SHARE,
                                  self.WINDOW)
        self.providers = []
        for table in self.stream.tables:
            provider = LatencyProvider({}, self.model.schema, self.LATENCY_S)
            provider.table = table  # live: the stream adds texts as it goes
            self.providers.append(provider)
        self.batch_walls: list[float] = []
        self.served: list[str] = []
        self.served_preds = []

    def op(self) -> None:
        texts = self.stream.next_batch()
        start = time.perf_counter()
        preds = sfp.predict(self.model, texts, cache=self.cache,
                            providers=self.providers)
        self.batch_walls.append(time.perf_counter() - start)
        self.served.extend(texts)
        self.served_preds.extend(preds)

    def _calls(self) -> int:
        return sum(p.call_count for p in self.providers)

    def finish(self) -> None:
        self.calls = self._calls()
        distinct = list(dict.fromkeys(self.served))
        self.distinct = len(distinct)
        targets = [self.stream.targets[t] for t in self.served]
        self.accuracy = compute_metrics(
            [p.decided for p in self.served_preds], targets,
            TaskMode.MULTI_LABEL, SERVE_LABELS).accuracy

        reference_providers = [LatencyProvider(t, self.model.schema)
                               for t in self.stream.tables]
        reference = dict(zip(distinct, sfp.predict(
            self.model, distinct, providers=reference_providers)))
        mismatched = sum(
            1 for text, pred in zip(self.served, self.served_preds)
            if not _same_prediction(pred, reference[text]))
        self.check(mismatched == 0,
                   f"serve-cold: {mismatched} served predictions differ from "
                   "an uncached predict over the same texts")

        sfp.predict(self.model, distinct, cache=self.cache,
                    providers=self.providers)
        extra = self._calls() - self.calls
        self.check(extra == 0,
                   f"serve-cold: second pass over a warm cache made {extra} "
                   "provider calls")

    def e2e(self) -> dict[str, float]:
        return {
            "eval_accuracy": self.accuracy,
            "fit_rows_per_s": _rate(self.TRAIN_ROWS * self.EPOCHS,
                                    self.setup_fit_walls),
            "predict_texts_per_s": len(self.served) / sum(self.batch_walls),
            "provider_calls_per_distinct_text":
                self.calls / (len(self.providers) * self.distinct),
        }

    def facts(self) -> dict:
        return {"mode": "multi_label", "classes": len(SERVE_LABELS),
                "providers": 2, "score_slice": f"2*{len(SERVE_LABELS)}",
                "loop": "closed, 1 client", "batch_size": self.BATCH,
                "repeat_share": self.REPEAT_SHARE,
                "repeat_window": self.WINDOW,
                "injected_latency_s": self.LATENCY_S,
                "llm_batch_size": NPROC, "train_rows": self.TRAIN_ROWS,
                "epochs": self.EPOCHS, "lr_high": self.LR_HIGH,
                "encoder": "2^13 x 32",
                "cache": "empty at the start of each pass"}

    def report(self) -> list[str]:
        return [f"predict_batch_ms: {describe(self.batch_walls, 'ms', 1000.0)}",
                f"setup_fit_s: {describe(self.setup_fit_walls, 's')}",
                f"served_texts: {len(self.served)}, distinct: "
                f"{self.distinct}, provider_calls: {self.calls}"]


def _same_prediction(a, b) -> bool:
    if a.decided.bits != b.decided.bits:
        return False
    return all(abs(x - y) <= 1e-9
               for x, y in zip(a.scores.values, b.scores.values))


# --------------------------------------------------------------------------
# cli-cold

class CliCold(Workload):
    """One operation is one CLI process; operations cycle through the
    commands of a round (see `_commands`)."""

    name = "cli-cold"
    in_process = False
    min_ops = 4  # one whole round
    ROWS = 1000  # 500 train, 500 evaluated and predicted
    EPOCHS = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.traced = False
        self.trace_docs: list[dict] = []
        self.prefill_calls = 0  # over every set-up filling the one cache

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        data = make_complementary_data(n_rows=self.ROWS, k=4, seed=self.seed)
        schema = data.train.schema
        self.work = work
        self.paths = {name: work / name for name in (
            "train.csv", "eval.csv", "input.csv", "scores.tsv", "config.yaml",
            "model.json", "predictions.csv", "runs", "cache")}
        p = self.paths
        for path, ds in ((p["train.csv"], data.train), (p["eval.csv"], data.eval)):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["text", *schema.labels])
                for row in ds.rows:
                    writer.writerow([row.text, *row.target.bits])
        self.input_texts = data.eval.texts()
        with open(p["input.csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text"])
            writer.writerows([t] for t in self.input_texts)
        write_mock_table(data.mock_table, str(p["scores.tsv"]))
        # The default EncoderConfig (2^15 x 64): its projection spills L2.
        config = {
            "label_columns": list(schema.labels),
            "train_csv": str(p["train.csv"]),
            "model_out": str(p["model.json"]),
            "runs_dir": str(p["runs"]),
            "llm_provider": "mock",
            "mock_table": str(p["scores.tsv"]),
            "cache_dir": str(p["cache"]),
            "validation_fraction": 0.0,
            "seed": 42,
            "fusion": {"hidden_sizes": [32], "epochs": self.EPOCHS,
                       "lr_high": 0.15},
        }
        # JSON is a subset of YAML.
        p["config.yaml"].write_text(json.dumps(config, indent=2),
                                    encoding="utf-8")

        train = load_csv_dataset(str(p["train.csv"]), schema,
                                 TaskMode.MULTI_CLASS)
        cache = cache_open(p["cache"], dataset_fingerprint(train))
        provider = LatencyProvider(data.mock_table, schema)
        texts = data.train.texts() + data.eval.texts()
        score_batch(texts, schema, TaskMode.MULTI_CLASS, ProviderConfig(),
                    cache=cache, provider=provider)
        self.train_rows = len(train)
        self.distinct = len(set(texts))
        self.prefill_calls += provider.call_count
        self.entries_after_prefill = self._cache_entries()

    def _cache_entries(self) -> int:
        return sum(1 for _ in self.paths["cache"].glob("*/*.json"))

    def begin_pass(self, work: Path) -> None:
        self.walls: dict[str, list[float]] = {"train": [], "evaluate": [],
                                              "predict": []}
        self.accuracies: list[float] = []
        self.ops_done = 0

    def _commands(self) -> list[tuple[str, list[str]]]:
        """One round. predict, the command users run most, runs twice per
        round: its 2 s process walls need the samples on a noisy host."""
        p = self.paths
        cache = ["--cache-dir", str(p["cache"])]
        predict = ["predict", "--model", str(p["model.json"]),
                   "--input", str(p["input.csv"]),
                   "--output", str(p["predictions.csv"]), *cache]
        return [
            ("train", ["train", str(p["config.yaml"])]),
            ("predict", predict),
            ("evaluate", ["evaluate", "--model", str(p["model.json"]),
                          "--eval-csv", str(p["eval.csv"]),
                          "--runs-dir", str(p["runs"]), *cache]),
            ("predict", predict),
        ]

    def _run(self, step: str, cli_args: list[str]) -> str:
        env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if self.traced:
            paths.append(str(ROOT))
            spans = self.work / f"spans-{len(self.trace_docs)}.json"
            argv = [sys.executable, "-m", "perfbench.cli_runner", str(spans),
                    *cli_args]
        else:
            argv = [sys.executable, "-m", "scorefusion.cli", *cli_args]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=self.work, text=True,
                              capture_output=True, timeout=150)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cli {step} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        self.walls[step].append(wall)
        if self.traced:
            self.trace_docs.append(json.loads(spans.read_text("utf-8")))
        return proc.stdout

    def op(self) -> None:
        commands = self._commands()
        step, cli_args = commands[self.ops_done % len(commands)]
        self.ops_done += 1
        out = self._run(step, cli_args)
        if step == "evaluate":
            line = next(l for l in out.splitlines()
                        if l.startswith("accuracy="))
            self.accuracies.append(float(line.partition("=")[2]))

    def finish(self) -> None:
        new_entries = self._cache_entries() - self.entries_after_prefill
        self.calls = self.prefill_calls + new_entries
        self.check(new_entries == 0,
                   f"cli-cold: CLI runs fetched {new_entries} scores on a "
                   "warm cache")

        model = sfp.load_model(self.paths["model.json"])
        provider = LatencyProvider({}, model.schema)
        expected = sfp.predict(model, self.input_texts,
                               cache=cache_open_adopt(self.paths["cache"]),
                               providers=[provider])
        with open(self.paths["predictions.csv"], newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        labels = model.schema.labels
        mismatched = abs(len(rows) - len(expected))
        for row, pred in zip(rows, expected):
            scores = [float(row[f"score_{name}"]) for name in labels]
            bits = "".join(str(b) for b in pred.decided.bits)
            if row["decided"] != bits or any(
                    abs(x - y) > 1e-12
                    for x, y in zip(scores, pred.scores.values)):
                mismatched += 1
        self.check(mismatched == 0 and provider.call_count == 0,
                   f"cli-cold: {mismatched} CLI predictions differ from the "
                   f"loaded model's in-process predictions "
                   f"({provider.call_count} provider calls)")
        self.model_bytes = self.paths["model.json"].stat().st_size

    def e2e(self) -> dict[str, float]:
        w = self.walls
        return {
            "eval_accuracy": _median(self.accuracies),
            "fit_rows_per_s": _rate(self.train_rows * self.EPOCHS, w["train"]),
            "predict_texts_per_s": _rate(len(self.input_texts), w["predict"]),
            "provider_calls_per_distinct_text": self.calls / self.distinct,
        }

    def peak_rss_mb(self) -> float:
        # The largest CLI process: what a CLI user's machine must hold.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def facts(self) -> dict:
        return {"corpus_rows": self.ROWS, "train_rows": self.train_rows,
                "predict_rows": len(self.input_texts), "classes": 4,
                "mode": "multi_class", "epochs": self.EPOCHS,
                "encoder": "default EncoderConfig (2^15 x 64)",
                "fusion_hidden": [32], "cache": "warm (pre-filled)",
                "commands_per_round": [step for step, _ in self._commands()]}

    def report(self) -> list[str]:
        lines = [f"cli_{step}_s: {describe(walls, 's')}"
                 for step, walls in self.walls.items()]
        lines.append(f"model_file_mb: {self.model_bytes / 1e6:.6g} MB")
        return lines


WORKLOADS = {w.name: w for w in (FitEval, ServeCold, CliCold)}
