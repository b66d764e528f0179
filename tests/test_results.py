"""Run tracking: creation, epoch logs, prediction persistence, comparison."""

from __future__ import annotations

import errno
import json
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import scorefusion as sf
from scorefusion.fusion import Predictions
from scorefusion.results import (
    PredictionRow,
    load_run,
    prediction_rows,
    run_compare,
    run_create,
    write_predictions_csv,
)

FP = "c" * 64
CONFIG = {"label_columns": ["a", "b"], "multi_label": False,
          "fusion": {"epochs": 3, "lr_high": 0.1, "hidden_sizes": [8]},
          "encoder": {"lr_small": 0.01}}


def _preds():
    return Predictions(np.array([[0.9, 0.1], [0.2, 0.8]]),
                       np.array([[True, False], [False, True]]))


def _targets():
    return [sf.LabelVector((1, 0)), sf.LabelVector((1, 0))]


class TestRunCreate:
    def test_writes_config_snapshot(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        snap = json.loads(
            (tmp_path / run.run_id / "config.json").read_text(encoding="utf-8"))
        assert snap["run_id"] == run.run_id
        assert snap["dataset_fingerprint"] == FP
        assert snap["config"] == CONFIG
        assert snap["label_names"] == ["a", "b"]
        assert "created_at" in snap and "version" in snap

    def test_distinct_ids(self, tmp_path):
        ids = {run_create(tmp_path, {}, FP, ("a",)).run_id for _ in range(5)}
        assert len(ids) == 5

    def test_in_memory_when_no_root(self):
        run = run_create(None, CONFIG, FP, ("a", "b"))
        run.log_epoch(0, 1.0)
        run.store_predictions(_preds(), _targets())
        record = run.finalize(None)
        assert record.finalized
        assert len(record.predictions) == 2
        assert record.epoch_logs == [{"epoch": 0, "train_loss": 1.0}]


class TestEpochLogs:
    def test_jsonl_lines_with_repr_floats(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        loss = 0.1 + 0.2  # 0.30000000000000004: repr must survive
        run.log_epoch(0, loss, val_accuracy=0.5)
        run.log_epoch(1, 0.25)
        lines = (tmp_path / run.run_id / "epochs.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"epoch": 0, "train_loss": loss, "val_accuracy": 0.5}
        assert first["train_loss"] == loss  # bit-exact through JSON

    def test_log_after_finalize_rejected(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.finalize(None)
        with pytest.raises(sf.RunStateError):
            run.log_epoch(0, 1.0)
        with pytest.raises(sf.RunStateError):
            run.store_predictions(_preds())


class TestFinalize:
    def test_writes_predictions_and_metrics(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.store_predictions(_preds(), _targets())
        metrics = sf.compute_metrics([p.decided for p in _preds()],
                                     _targets(), sf.TaskMode.MULTI_CLASS,
                                     ("a", "b"))
        run.finalize(metrics)
        run_dir = tmp_path / run.run_id
        pred_lines = (run_dir / "predictions.csv").read_text(
            encoding="utf-8").splitlines()
        assert pred_lines[0] == "row,score_a,score_b,decided,target"
        assert pred_lines[1] == "0,0.9,0.1,10,10"
        assert pred_lines[2] == "1,0.2,0.8,01,10"
        doc = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert doc["metrics"]["accuracy"] == 0.5

    def test_double_finalize_rejected(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.finalize(None)
        with pytest.raises(sf.RunStateError, match="finalized"):
            run.finalize(None)

    def test_rows_without_targets(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.store_predictions(_preds())  # no targets
        run.finalize(None)
        lines = (tmp_path / run.run_id / "predictions.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[1].endswith(",10,")  # empty target cell


class TestRunFileWrites:
    """A run file that cannot be written is a DataError, and config.json,
    metrics.json and a predictions CSV are written whole or not at all."""

    def test_torn_metrics_write_leaves_the_run_unfinalized(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.store_predictions(_preds(), _targets())
        write_text = Path.write_text

        def torn(path, text, *args, **kwargs):
            if "metrics.json" in path.name:
                write_text(path, text[:len(text) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, text, *args, **kwargs)

        with mock.patch.object(Path, "write_text", torn):
            with pytest.raises(sf.DataError, match="cannot write run file"):
                run.finalize(None)
        assert not load_run(tmp_path, run.run_id).finalized
        assert sorted(os.listdir(tmp_path / run.run_id)) == \
            ["config.json", "predictions.csv"]

    def test_unwritable_config_snapshot(self, tmp_path):
        with mock.patch.object(Path, "write_text",
                               side_effect=OSError(errno.EFBIG, "too large")):
            with pytest.raises(sf.DataError, match="cannot write run file "
                               r".*config\.json"):
                run_create(tmp_path, CONFIG, FP, ("a", "b"))

    def test_unwritable_epoch_log(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        (tmp_path / run.run_id / "epochs.jsonl").mkdir()
        with pytest.raises(sf.DataError, match="cannot write run file "
                           r".*epochs\.jsonl"):
            run.log_epoch(0, 1.0)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    def test_failed_csv_write_after_open(self):
        """The file opens, and its rows fail to write (ENOSPC)."""
        with pytest.raises(sf.DataError, match="cannot write predictions CSV"):
            write_predictions_csv("/dev/full", prediction_rows(_preds()),
                                  ("a", "b"))

    def test_failed_config_snapshot_leaves_no_run_directory(self, tmp_path):
        with mock.patch.object(Path, "write_text",
                               side_effect=OSError(errno.EFBIG, "too large")):
            with pytest.raises(sf.DataError, match="cannot write run file"):
                run_create(tmp_path, CONFIG, FP, ("a", "b"))
        assert os.listdir(tmp_path) == []

    def test_failed_csv_rewrite_keeps_the_old_file(self, tmp_path):
        """A torn write leaves the earlier CSV whole and no temp file."""
        path = tmp_path / "preds.csv"
        path.write_bytes(b"old,csv\r\n")
        write_text = Path.write_text

        def torn(self, text, *args, **kwargs):
            write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.EFBIG, "File too large")

        with mock.patch.object(Path, "write_text", torn):
            with pytest.raises(sf.DataError,
                               match="cannot write predictions CSV"):
                write_predictions_csv(path, prediction_rows(_preds()),
                                      ("a", "b"))
        assert os.listdir(tmp_path) == ["preds.csv"]
        assert path.read_bytes() == b"old,csv\r\n"

    def test_symlink_stays_and_its_file_is_replaced(self, tmp_path):
        (tmp_path / "real.csv").write_bytes(b"old,csv\r\n")
        (tmp_path / "link.csv").symlink_to("real.csv")
        write_predictions_csv(tmp_path / "link.csv", [], ("a",))
        assert os.readlink(tmp_path / "link.csv") == "real.csv"
        assert (tmp_path / "real.csv").read_bytes() == \
            b"row,score_a,decided,target\r\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_fifo_is_written_in_place(self, tmp_path):
        """A FIFO streams the CSV and is still a FIFO afterwards, where a
        temp file renamed over it would replace it."""
        rows = prediction_rows(_preds(), _targets())
        write_predictions_csv(tmp_path / "regular.csv", rows, ("a", "b"))
        fifo = tmp_path / "preds.fifo"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open at once; the CSV fits
        # in the pipe's buffer.
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_predictions_csv(fifo, rows, ("a", "b"))
            got = os.read(fd, 2 ** 16)
        finally:
            os.close(fd)
        assert got == (tmp_path / "regular.csv").read_bytes()
        assert got.startswith(b"row,score_a,score_b,decided,target\r\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["preds.fifo", "regular.csv"]


class TestLoadRun:
    def test_lossless_round_trip(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        losses = [1 / 3, 0.1 + 0.2, 1e-17]
        for i, loss in enumerate(losses):
            run.log_epoch(i, loss)
        run.store_predictions(_preds(), _targets())
        metrics = sf.compute_metrics([p.decided for p in _preds()],
                                     _targets(), sf.TaskMode.MULTI_CLASS)
        record = run.finalize(metrics)

        loaded = load_run(tmp_path, run.run_id)
        assert loaded.run_id == record.run_id
        assert loaded.config == CONFIG
        assert loaded.dataset_fingerprint == FP
        assert [e["train_loss"] for e in loaded.epoch_logs] == losses
        assert loaded.predictions == record.predictions
        assert loaded.metrics == metrics
        assert loaded.finalized

    def test_scores_bit_exact(self, tmp_path):
        odd = (np.nextafter(0.5, 1.0), 1 / 3)
        preds = Predictions(np.array([odd]), np.array([[True, False]]))
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.store_predictions(preds)
        run.finalize(None)
        loaded = load_run(tmp_path, run.run_id)
        assert loaded.predictions[0].scores == odd

    def test_unfinalized_run_loads_as_such(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.log_epoch(0, 0.5)
        loaded = load_run(tmp_path, run.run_id)
        assert not loaded.finalized
        assert loaded.metrics is None

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m.update(stray=1), "unknown metrics key 'stray'"),
        (lambda m: m.pop("micro_f1"), "micro_f1"),
        (lambda m: m["per_label"][0].update(stray=1),
         "unknown per_label key 'stray'"),
    ], ids=["extra", "missing", "extra_per_label"])
    def test_bad_metrics_keys_are_data_errors(self, tmp_path, edit, match):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.store_predictions(_preds(), _targets())
        run.finalize(sf.compute_metrics(_preds().decided, _targets(),
                                        sf.TaskMode.MULTI_CLASS))
        path = tmp_path / run.run_id / "metrics.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["metrics"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(sf.DataError, match=match):
            load_run(tmp_path, run.run_id)

    def test_unknown_run_id(self, tmp_path):
        with pytest.raises(sf.DataError, match="nope"):
            load_run(tmp_path, "nope")


class TestRunCompare:
    def _finalized_run(self, tmp_path, config, accuracy_rows):
        run = run_create(tmp_path, config, FP, ("a", "b"))
        decided, targets = accuracy_rows
        run.store_predictions(
            Predictions(np.full((len(decided), 2), 0.5),
                        np.array([d.bits for d in decided], dtype=bool)),
            targets)
        metrics = sf.compute_metrics(decided, targets,
                                     sf.TaskMode.MULTI_CLASS, ("a", "b"))
        run.finalize(metrics)
        return run.run_id

    def test_rows_align_with_runs(self, tmp_path):
        perfect = ([sf.LabelVector((1, 0))], [sf.LabelVector((1, 0))])
        wrong = ([sf.LabelVector((1, 0))], [sf.LabelVector((0, 1))])
        id1 = self._finalized_run(tmp_path, CONFIG, perfect)
        cfg2 = dict(CONFIG, fusion=dict(CONFIG["fusion"], epochs=9))
        id2 = self._finalized_run(tmp_path, cfg2, wrong)
        rows = run_compare(tmp_path, [id1, id2])
        assert [r["run_id"] for r in rows] == [id1, id2]
        assert rows[0]["accuracy"] == 1.0 and rows[1]["accuracy"] == 0.0
        assert rows[0]["epochs"] == 3 and rows[1]["epochs"] == 9
        assert rows[0]["lr_high"] == rows[1]["lr_high"] == 0.1
        assert rows[0]["lr_small"] == 0.01

    def test_identical_configs_differ_only_in_id_and_metrics(self, tmp_path):
        perfect = ([sf.LabelVector((1, 0))], [sf.LabelVector((1, 0))])
        id1 = self._finalized_run(tmp_path, CONFIG, perfect)
        id2 = self._finalized_run(tmp_path, CONFIG, perfect)
        r1, r2 = run_compare(tmp_path, [id1, id2])
        varying = {"run_id"}
        differing = {k for k in r1 if r1[k] != r2[k]}
        assert differing <= varying | {"accuracy", "macro_f1"}
        assert r1["run_id"] != r2["run_id"]

    def test_unfinalized_rejected(self, tmp_path):
        run = run_create(tmp_path, CONFIG, FP, ("a", "b"))
        run.log_epoch(0, 1.0)
        with pytest.raises(sf.RunStateError, match="finalized"):
            run_compare(tmp_path, [run.run_id])

    def test_providers_column_from_real_config_snapshot(self, tmp_path):
        # fit() snapshots AutoFusionConfig.to_dict(), which spells the key
        # "llm_providers" and stores full mappings; the table must still
        # show a compact provider list, not None.
        cfg = sf.AutoFusionConfig(
            label_columns=("a", "b"),
            llm_providers=(
                sf.ProviderConfig(provider_id="mock"),
                sf.ProviderConfig(provider_id="openai-compatible",
                                  model_name="gpt-test"),
            ),
        )
        perfect = ([sf.LabelVector((1, 0))], [sf.LabelVector((1, 0))])
        run_id = self._finalized_run(tmp_path, cfg.to_dict(), perfect)
        (row,) = run_compare(tmp_path, [run_id])
        assert row["providers"] == ["mock", "openai-compatible:gpt-test"]


class TestPredictionRows:
    def test_shapes_and_strings(self):
        rows = prediction_rows(_preds(), _targets())
        assert rows[0] == PredictionRow(0, (0.9, 0.1), "10", "10")
        assert rows[1] == PredictionRow(1, (0.2, 0.8), "01", "10")

    def test_none_targets_give_empty_strings(self):
        rows = prediction_rows(_preds(), None)
        assert all(r.target == "" for r in rows)
        rows = prediction_rows(_preds(), [None, sf.LabelVector((0, 1))])
        assert rows[0].target == "" and rows[1].target == "01"

    def test_target_count_must_match_rows(self):
        with pytest.raises(ValueError):
            prediction_rows(_preds(), [sf.LabelVector((1, 0))])
