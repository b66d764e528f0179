"""Experiment tracking: run records persisted under a runs directory.

Layout:

    <runs_root>/<run_id>/config.json        config snapshot + fingerprint,
                                            written at creation
    <runs_root>/<run_id>/epochs.jsonl       one JSON object per epoch
    <runs_root>/<run_id>/predictions.csv    row, per-class scores, decided
                                            bits, target bits
    <runs_root>/<run_id>/metrics.json       written by finalize; its
                                            presence marks the run finalized

Floats are serialized with repr (17 significant digits), so every field
round-trips losslessly. config.json, predictions.csv and metrics.json are
written whole or not at all (temp file and rename), and a run file that
cannot be written is a DataError. A handle created without a root
directory keeps the same record purely in memory (used when callers do
not track runs).
"""

from __future__ import annotations

import csv
import io
import json
import secrets
from contextlib import suppress
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from .core import LabelVector, atomic_write_text
from .errors import ConfigurationError, DataError, RunStateError
from .fusion import Predictions
from .metrics import MetricsReport

RUN_FORMAT_VERSION = 1


def _write_json(path: Path, doc: dict) -> None:
    """Write a run's JSON file atomically; a failure is a DataError."""
    try:
        atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2))
    except OSError as exc:
        raise DataError(f"cannot write run file {path}: {exc}") from None


def _new_run_id() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{secrets.token_hex(3)}"


@dataclass
class PredictionRow:
    """One persisted prediction: scores plus decided/target bit strings."""

    row: int
    scores: tuple[float, ...]
    decided: str
    target: str  # empty string when the row had no target

    def to_csv_row(self) -> list:
        return [self.row, *[repr(s) for s in self.scores], self.decided,
                self.target]


@dataclass
class RunRecord:
    """The persisted unit of experiment tracking."""

    run_id: str
    created_at: str
    config: dict
    dataset_fingerprint: str
    version: str = __version__
    epoch_logs: list[dict] = field(default_factory=list)
    predictions: list[PredictionRow] = field(default_factory=list)
    metrics: Optional[MetricsReport] = None
    finalized: bool = False


class RunHandle:
    """Single-writer handle for one run. Disk writes happen eagerly when a
    root directory is set; otherwise the record stays in memory."""

    def __init__(self, record: RunRecord, run_dir: Optional[Path],
                 label_names: Sequence[str]):
        self.record = record
        self.run_dir = run_dir
        self.label_names = list(label_names)

    @property
    def run_id(self) -> str:
        return self.record.run_id

    def log_epoch(self, epoch: int, train_loss: float, **extra) -> None:
        if self.record.finalized:
            raise RunStateError(f"run {self.run_id} is already finalized")
        entry = {"epoch": epoch, "train_loss": train_loss, **extra}
        self.record.epoch_logs.append(entry)
        if self.run_dir is not None:
            path = self.run_dir / "epochs.jsonl"
            try:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
            except OSError as exc:
                raise DataError(f"cannot write run file {path}: {exc}") \
                    from None

    def store_predictions(self, predictions: Predictions,
                          targets: Sequence[Optional[LabelVector]] | None = None) -> None:
        if self.record.finalized:
            raise RunStateError(f"run {self.run_id} is already finalized")
        self.record.predictions = prediction_rows(predictions, targets)

    def finalize(self, metrics: Optional[MetricsReport]) -> RunRecord:
        """Write predictions and metrics, then freeze the record. metrics.json
        marks the run finalized, so it is written last."""
        if self.record.finalized:
            raise RunStateError(f"run {self.run_id} is already finalized")
        self.record.metrics = metrics
        if self.run_dir is not None:
            write_predictions_csv(self.run_dir / "predictions.csv",
                                  self.record.predictions, self.label_names)
            _write_json(self.run_dir / "metrics.json", {
                "format_version": RUN_FORMAT_VERSION,
                "metrics": metrics.to_dict() if metrics is not None else None,
            })
        self.record.finalized = True
        return self.record


def prediction_rows(predictions: Predictions,
                    targets: Sequence[Optional[LabelVector]] | None = None,
                    ) -> list[PredictionRow]:
    """Flatten predictions (plus optional targets, one per row) into CSV
    rows."""
    scores = predictions.scores.tolist()
    decided = np.where(predictions.decided, "1", "0").tolist()
    targets = [None] * len(scores) if targets is None else targets
    return [PredictionRow(i, tuple(s), "".join(d),
                          "".join(map(str, t.bits)) if t else "")
            for i, (s, d, t) in enumerate(zip(scores, decided, targets,
                                              strict=True))]


def write_predictions_csv(path: Path | str, rows: Sequence[PredictionRow],
                          label_names: Sequence[str]) -> None:
    """Write the predictions CSV whole (see `atomic_write_text`); a
    failure to write it is a DataError."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", *[f"score_{name}" for name in label_names],
                     "decided", "target"])
    writer.writerows(row.to_csv_row() for row in rows)
    try:
        atomic_write_text(Path(path), buf.getvalue())
    except OSError as exc:
        raise DataError(f"cannot write predictions CSV {path}: {exc}") \
            from None


def run_create(root_dir: str | Path | None, config: dict,
               fingerprint: str, label_names: Sequence[str]) -> RunHandle:
    """Start a run: allocate an id and snapshot the config.

    root_dir None keeps the run in memory only. A run directory or config
    snapshot that cannot be written is a DataError, and leaves no run
    directory.
    """
    record = RunRecord(
        run_id=_new_run_id(),
        created_at=datetime.now(timezone.utc).isoformat(),
        config=config,
        dataset_fingerprint=fingerprint,
    )
    run_dir: Optional[Path] = None
    if root_dir is not None:
        run_dir = Path(root_dir) / record.run_id
        try:
            run_dir.mkdir(parents=True, exist_ok=False)
        except OSError as exc:
            raise DataError(f"cannot create run directory {run_dir}: {exc}") \
                from None
        try:
            _write_json(run_dir / "config.json", {
                "format_version": RUN_FORMAT_VERSION,
                "run_id": record.run_id,
                "created_at": record.created_at,
                "version": record.version,
                "dataset_fingerprint": fingerprint,
                "label_names": list(label_names),
                "config": config,
            })
        except DataError:
            # A run directory without config.json is no run; leave none.
            with suppress(OSError):
                run_dir.rmdir()
            raise
    return RunHandle(record, run_dir, label_names)


def load_run(root_dir: str | Path, run_id: str) -> RunRecord:
    """Reload a persisted run; fields round-trip losslessly. An unknown run
    id, or a run file that cannot be read or parsed, is a DataError."""
    run_dir = Path(root_dir) / run_id
    if not (run_dir / "config.json").exists():
        raise DataError(f"unknown run id {run_id!r} under {root_dir}")
    try:
        return _read_run(run_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError, csv.Error, ConfigurationError) as exc:
        raise DataError(f"run {run_id!r} under {root_dir} has a malformed "
                        f"run file: {exc}") from None


def _read_run(run_dir: Path) -> RunRecord:
    snapshot = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    record = RunRecord(
        run_id=snapshot["run_id"],
        created_at=snapshot["created_at"],
        config=snapshot["config"],
        dataset_fingerprint=snapshot["dataset_fingerprint"],
        version=snapshot["version"],
    )
    epochs_path = run_dir / "epochs.jsonl"
    if epochs_path.exists():
        with open(epochs_path, encoding="utf-8") as fh:
            record.epoch_logs = [json.loads(line) for line in fh if line.strip()]
    predictions_path = run_dir / "predictions.csv"
    if predictions_path.exists():
        with open(predictions_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            n_scores = len(header) - 3 if header else 0
            for cells in reader:
                record.predictions.append(PredictionRow(
                    row=int(cells[0]),
                    scores=tuple(float(v) for v in cells[1:1 + n_scores]),
                    decided=cells[1 + n_scores],
                    target=cells[2 + n_scores],
                ))
    metrics_path = run_dir / "metrics.json"
    if metrics_path.exists():
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        if doc.get("metrics") is not None:
            record.metrics = MetricsReport.from_dict(doc["metrics"],
                                                     "metrics")
        record.finalized = True
    return record


# Config fields surfaced by run_compare. The seed is deliberately absent so
# that runs differing only in seed compare as configuration-identical.
_COMPARE_FIELDS = ("multi_label", "label_columns", "providers", "epochs",
                   "lr_high", "lr_small", "hidden_sizes")


def run_compare(root_dir: str | Path, run_ids: Sequence[str]) -> list[dict]:
    """One row per requested run: run_id, key config fields, headline
    metrics. All runs must exist and be finalized."""
    rows = []
    for run_id in run_ids:
        record = load_run(root_dir, run_id)
        if not record.finalized:
            raise RunStateError(f"run {run_id!r} is not finalized")
        row = {"run_id": run_id}
        for key in _COMPARE_FIELDS:
            row[key] = _provider_summary(record.config.get("llm_providers")) \
                if key == "providers" else _dig(record.config, key)
        row["accuracy"] = record.metrics.accuracy if record.metrics else None
        row["macro_f1"] = record.metrics.f1 if record.metrics else None
        rows.append(row)
    return rows


def _dig(config: dict, key: str):
    """Find a key at the top level or one level down (encoder/fusion)."""
    if key in config:
        return config[key]
    for sub in ("fusion", "encoder"):
        nested = config.get(sub)
        if isinstance(nested, dict) and key in nested:
            return nested[key]
    return None


def _provider_summary(value):
    """Compact provider-config mappings to 'id' / 'id:model' strings so the
    comparison table stays one line per run."""
    if not isinstance(value, (list, tuple)):
        return value
    out = []
    for item in value:
        if isinstance(item, dict):
            pid = str(item.get("provider_id", "?"))
            model = item.get("model_name")
            if model and model != pid:
                out.append(f"{pid}:{model}")
            else:
                out.append(pid)
        else:
            out.append(item)
    return out
