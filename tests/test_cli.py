"""The command-line interface, driven in-process through main(argv)."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np
import pytest
import yaml

import scorefusion as sf
from scorefusion.cli import main
from scorefusion.model import MODEL_FORMAT_VERSION, _decode_array, _encode_array
from scorefusion.results import load_run

from conftest import TOY_TEXTS

LABELS = ("yes", "no")
DATA = Path(__file__).parent / "data"


def _write_train_csv(path, texts=TOY_TEXTS):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", *LABELS])
        for i, text in enumerate(texts):
            writer.writerow([text, (i + 1) % 2, i % 2])


def _write_config(path, table_path, **extra):
    doc = {
        "label_columns": list(LABELS),
        "llm_provider": "mock",
        "mock_table": str(table_path),
        "encoder": {"dim": 16, "buckets": 1024, "lr_small": 0.05},
        "fusion": {"hidden_sizes": [16], "epochs": 150, "lr_high": 0.5,
                   "train_batch_size": 8, "seed": 42},
        "validation_fraction": 0.0,
    }
    doc.update(extra)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path):
    """Config + data + mock table, ready for `train`."""
    table = {t: (0.5, 0.5) for t in TOY_TEXTS}
    table_path = tmp_path / "table.tsv"
    sf.write_mock_table(table, str(table_path))
    train_csv = tmp_path / "train.csv"
    _write_train_csv(train_csv)
    config = tmp_path / "config.yaml"
    _write_config(config, table_path,
                  train_csv=str(train_csv),
                  model_out=str(tmp_path / "model.json"),
                  runs_dir=str(tmp_path / "runs"))
    return tmp_path


def _train(workdir, capsys, *extra_args):
    code = main(["train", str(workdir / "config.yaml"), *extra_args])
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


class TestTrain:
    def test_happy_path(self, workdir, capsys):
        code, run_id, err = _train(workdir, capsys)
        assert code == 0
        assert err == ""
        assert run_id  # bare run id on stdout
        assert (workdir / "model.json").is_file()
        assert (workdir / "runs" / run_id / "config.json").is_file()
        record = load_run(workdir / "runs", run_id)
        assert record.finalized
        assert len(record.epoch_logs) == 150

    def test_misspelled_key_exit_1_naming_key(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["lable_columns"] = doc.pop("label_columns")
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        code, _, err = _train(workdir, capsys)
        assert code == 1
        assert err.startswith("error[config]:")
        assert "lable_columns" in err

    @pytest.mark.parametrize("changes, named", [
        ({"label_columns": "spam"}, "label_columns"),
        ({"encoder": {"precomputed_path": None}}, "encoder.precomputed_path"),
        ({"encoder": {"precomputed_path": 5}}, "encoder.precomputed_path"),
    ])
    def test_misread_value_exit_1_naming_key(self, workdir, capsys, changes,
                                             named):
        """A string label_columns is not split into one-letter labels, and
        a non-string precomputed_path is not read as a file named 'None'."""
        _set_config(workdir, **changes)
        code, _, err = _train(workdir, capsys)
        assert code == 1
        assert err.startswith("error[config]:")
        assert named in err

    def test_missing_train_csv_key(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        del doc["train_csv"]
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        code, _, err = _train(workdir, capsys)
        assert code == 1
        assert "train_csv" in err

    def test_unreadable_train_csv_exit_2(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["train_csv"] = str(workdir / "nope.csv")
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        code, _, err = _train(workdir, capsys)
        assert code == 2
        assert err.startswith("error[data]:")

    def test_bad_label_cell_exit_2(self, workdir, capsys):
        with open(workdir / "train.csv", "a", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerow(["odd row", "2", "0"])
        code, _, err = _train(workdir, capsys)
        assert code == 2
        assert "'yes'" in err and "2" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "absent.yaml")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[config]:")

    def test_set_override_applies(self, workdir, capsys):
        code, run_id, _ = _train(workdir, capsys,
                                 "--set", "fusion.epochs=3")
        assert code == 0
        record = load_run(workdir / "runs", run_id)
        assert len(record.epoch_logs) == 3

    def test_bad_override_spec(self, workdir, capsys):
        code, _, err = _train(workdir, capsys, "--set", "no-equals-sign")
        assert code == 1
        assert "KEY=VALUE" in err

    def test_no_providers_trains_the_encoder_only_baseline(self, workdir,
                                                           capsys):
        """`llm_provider: []` trains a model with no providers, which
        predict and evaluate then serve with no cache and no score table."""
        _set_config(workdir, llm_provider=[], mock_table=None)
        code, run_id, err = _train(workdir, capsys)
        assert code == 0, err
        model = workdir / "model.json"
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert doc["config"]["llm_providers"] == []
        assert load_run(workdir / "runs", run_id).config["llm_providers"] == []
        (workdir / "table.tsv").unlink()
        assert main(["predict", "--model", str(model),
                     "--text", TOY_TEXTS[0], "--text", TOY_TEXTS[1]]) == 0
        assert capsys.readouterr().out.splitlines() == ["yes", "no"]
        assert main(["evaluate", "--model", str(model),
                     "--eval-csv", str(workdir / "train.csv"),
                     "--runs-dir", str(workdir / "eval-runs")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "accuracy=1.0", "macro_f1=1.0"]

    def test_diverging_fit_exit_1(self, workdir, capsys):
        code, _, err = _train(workdir, capsys,
                              "--set", "fusion.lr_high=1000000.0")
        assert code == 1
        assert err.startswith("error[config]:")
        assert err.count("\n") == 1
        assert "lr_high=1e+06" in err

    def test_projection_too_large_exit_1(self, workdir, capsys):
        """A slot map of 2^50 int32 values exceeds every 64-bit address
        space: one typed line naming the size, and no cache, run or
        model."""
        code, _, err = _train(workdir, capsys,
                              "--set", f"encoder.buckets={2 ** 50}",
                              "--set", f"cache_dir={workdir / 'cache'}")
        assert code == 1
        assert err.startswith("error[config]:") and err.count("\n") == 1
        assert ("slot map, buckets = 1125899906842624 int32 values "
                "(4503599627370496 bytes), cannot be allocated") in err
        assert not (workdir / "cache").exists()
        assert not (workdir / "runs").exists()
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize("override, named", [
        ("encoder.ngram_sizes=[3, 18446744073709551616]", "ngram_sizes"),
        ("encoder.ngram_sizes=[9223372036854775808]", "ngram_sizes"),
        ("encoder.buckets=1180591620717411303424", "buckets"),
        ("encoder.buckets=9223372036854775808", "buckets"),
    ])
    def test_size_numpy_cannot_hold_exit_1(self, workdir, capsys, override,
                                           named):
        """An n-gram size or bucket count of 2^63 or more is no int64: one
        typed line naming the field, not an OverflowError or numpy's
        dimension error."""
        code, _, err = _train(workdir, capsys, "--set", override)
        assert code == 1
        assert err.startswith("error[config]:") and err.count("\n") == 1
        assert f"{named} must" in err and "< 2**63" in err
        assert not (workdir / "model.json").exists()

    def test_seed_flag_changes_model(self, workdir, capsys):
        _train(workdir, capsys, "--seed", "1")
        first = (workdir / "model.json").read_bytes()
        _train(workdir, capsys, "--seed", "1")
        assert (workdir / "model.json").read_bytes() == first
        _train(workdir, capsys, "--seed", "2")
        assert (workdir / "model.json").read_bytes() != first


class TestConfigTypes:
    """Every key the CLI or the library reads has its type checked up
    front: a wrong one is one typed line naming the key, never a traceback
    and never a silent default."""

    @pytest.mark.parametrize("override, named", [
        ("cache_dir=5", "cache_dir"),
        ("llm_provider={provider: openai, api_key_env: 5}", "api_key_env"),
        ("llm_provider={provider: mock, endpoint_url: 5}", "endpoint_url"),
        ('label_columns={"yes": 1, "no": 2}', "label_columns"),
        ("train_csv=0", "train_csv"),
        ("train_csv=", "train_csv"),
        ("model_out=5", "model_out"),
        ("runs_dir=5", "runs_dir"),
    ])
    def test_wrong_type_exit_1_naming_key(self, workdir, capsys, override,
                                          named):
        code, _, err = _train(workdir, capsys, "--set", override)
        assert code == 1
        assert err.startswith("error[config]:") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("override, named", [
        ("model_name=m\udcff", "model_name"),
        ("text_column=t\udcff", "text_column"),
    ])
    def test_name_not_utf8_exit_1_naming_key(self, workdir, capsys,
                                             override, named):
        """A command-line byte that is not UTF-8 reaches a name field as a
        lone surrogate; it is a config error, not a traceback."""
        code, _, err = _train(workdir, capsys, "--set", override, "--set",
                              f"cache_dir={workdir / 'cache'}")
        assert code == 1
        assert err.startswith("error[config]:") and err.count("\n") == 1
        assert f"{named} must be valid UTF-8" in err

    def test_eval_csv_in_train_config_exit_1(self, workdir, capsys):
        """train reads no evaluation CSV, so the key is unknown."""
        _set_config(workdir, eval_csv="nothing-here.csv")
        code, _, err = _train(workdir, capsys)
        assert code == 1
        assert err.startswith("error[config]:")
        assert "unknown config key 'eval_csv'" in err

    def test_set_below_a_non_mapping_exit_1(self, workdir, capsys):
        """--set A.B=V fills in a missing or null A but does not replace
        a value that is not a mapping."""
        _set_config(workdir, encoder="emb.tsv")
        code, _, err = _train(workdir, capsys, "--set", "encoder.dim=8")
        assert code == 1
        assert err.startswith("error[config]:")
        assert "encoder.dim: encoder is 'emb.tsv', not a mapping" in err
        _set_config(workdir, encoder={"dim": 16})
        code, run_id, _ = _train(workdir, capsys, "--set", "fusion=null",
                                 "--set", "fusion.epochs=3")
        assert code == 0
        assert len(load_run(workdir / "runs", run_id).epoch_logs) == 3


class TestPredict:
    @pytest.fixture
    def trained(self, workdir, capsys):
        assert _train(workdir, capsys)[0] == 0
        return workdir / "model.json"

    def test_inline_texts(self, trained, capsys):
        code = main(["predict", "--model", str(trained),
                     "--text", TOY_TEXTS[0], "--text", TOY_TEXTS[1]])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["yes", "no"]

    def test_csv_round_trip(self, trained, workdir, capsys):
        inp = workdir / "texts.csv"
        with open(inp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text"])
            for t in TOY_TEXTS[:4]:
                writer.writerow([t])
        outp = workdir / "preds.csv"
        code = main(["predict", "--model", str(trained),
                     "--input", str(inp), "--output", str(outp)])
        assert code == 0
        lines = outp.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,score_yes,score_no,decided,target"
        assert len(lines) == 5
        decided = [line.split(",")[3] for line in lines[1:]]
        assert decided == ["10", "01", "10", "01"]

    def test_bom_prefixed_input(self, trained, workdir, capsys):
        """A CSV saved with a UTF-8 BOM names its first column without
        it."""
        inp = workdir / "texts.csv"
        inp.write_text("\ufefftext\n" + "\n".join(TOY_TEXTS[:2]) + "\n",
                       encoding="utf-8")
        outp = workdir / "preds.csv"
        code = main(["predict", "--model", str(trained),
                     "--input", str(inp), "--output", str(outp)])
        assert code == 0, capsys.readouterr().err
        lines = outp.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["10", "01"]

    def test_empty_input_gives_header_only(self, trained, workdir, capsys):
        inp = workdir / "empty.csv"
        inp.write_text("text\n", encoding="utf-8")
        outp = workdir / "preds.csv"
        code = main(["predict", "--model", str(trained),
                     "--input", str(inp), "--output", str(outp)])
        assert code == 0
        assert outp.read_text(encoding="utf-8").splitlines() == \
            ["row,score_yes,score_no,decided,target"]

    def test_input_and_text_mutually_exclusive(self, trained, workdir,
                                               capsys):
        code = main(["predict", "--model", str(trained),
                     "--input", "x.csv", "--text", "hello"])
        err = capsys.readouterr().err
        assert code == 1
        assert "not both" in err

    def test_neither_input_nor_text(self, trained, capsys):
        code = main(["predict", "--model", str(trained)])
        assert code == 1

    def test_text_with_output(self, trained, workdir, capsys):
        """--output with --text is one config error, not a file silently
        left unwritten."""
        out = workdir / "preds.csv"
        code = main(["predict", "--model", str(trained), "--text", "hello",
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error[config]: --output is only for --input; --text predictions "
            "are printed"]
        assert not out.exists()

    def test_input_without_output(self, trained, workdir, capsys):
        inp = workdir / "texts.csv"
        inp.write_text("text\nhello\n", encoding="utf-8")
        code = main(["predict", "--model", str(trained),
                     "--input", str(inp)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--output" in err

    def test_text_not_utf8_exit_2_naming_row(self, trained, capsys):
        """Python decodes an undecodable argv byte to a lone surrogate."""
        code = main(["predict", "--model", str(trained),
                     "--text", TOY_TEXTS[0], "--text", "bad \udcff text"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[data]: row 1: text is not valid UTF-8")
        assert err.count("\n") == 1

    def test_corrupted_model_exit_1(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        code = main(["predict", "--model", str(bad), "--text", "x"])
        err = capsys.readouterr().err
        assert code == 1
        assert "model format error" in err

    def test_missing_model_file_exit_1(self, workdir, capsys):
        code = main(["predict", "--model", str(workdir / "no.json"),
                     "--text", "x"])
        assert code == 1


class TestEvaluate:
    def test_perfect_run(self, workdir, capsys):
        assert _train(workdir, capsys)[0] == 0
        code = main(["evaluate", "--model", str(workdir / "model.json"),
                     "--eval-csv", str(workdir / "train.csv"),
                     "--runs-dir", str(workdir / "eval-runs")])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        run_id, acc_line, f1_line = out
        assert acc_line == "accuracy=1.0"
        assert f1_line == "macro_f1=1.0"
        record = load_run(workdir / "eval-runs", run_id)
        assert record.finalized
        assert record.metrics.accuracy == 1.0
        assert record.config["command"] == "evaluate"

    @pytest.mark.skipif(resource is None, reason="needs RLIMIT_FSIZE")
    def test_run_file_write_failure_exit_2(self, workdir, capsys):
        """In a process that may write no file byte (RLIMIT_FSIZE 0, set in
        that child only), evaluate fails on its run files with one typed
        line and no traceback."""
        assert _train(workdir, capsys)[0] == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(sf.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "scorefusion.cli", "evaluate",
             "--model", str(workdir / "model.json"),
             "--eval-csv", str(workdir / "train.csv"),
             "--runs-dir", str(workdir / "eval-runs")],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                                  (0, 0)))
        assert result.returncode == 2
        assert result.stderr.startswith("error[data]: cannot write run file")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    def test_missing_label_column_exit_2(self, workdir, capsys):
        assert _train(workdir, capsys)[0] == 0
        partial = workdir / "partial.csv"
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text", "yes"])
            writer.writerow(["hello", "1"])
        code = main(["evaluate", "--model", str(workdir / "model.json"),
                     "--eval-csv", str(partial),
                     "--runs-dir", str(workdir / "eval-runs")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[data]:")
        assert "'no'" in err or "no" in err

    def test_unlabeled_rows_exit_2(self, workdir, capsys):
        assert _train(workdir, capsys)[0] == 0
        unlabeled = workdir / "unlabeled.csv"
        unlabeled.write_text("text\nhello\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(workdir / "model.json"),
                     "--eval-csv", str(unlabeled),
                     "--runs-dir", str(workdir / "eval-runs")])
        err = capsys.readouterr().err
        assert code == 2
        assert "target" in err


class TestTextColumn:
    """predict and evaluate read the text column the model was trained on,
    unless --text-column names another."""

    @pytest.fixture
    def trained(self, workdir, capsys):
        train_csv = workdir / "train.csv"
        train_csv.write_text(train_csv.read_text(encoding="utf-8").replace(
            "text,", "body,", 1), encoding="utf-8")
        _set_config(workdir, text_column="body")
        assert _train(workdir, capsys)[0] == 0
        return workdir / "model.json"

    def _predict(self, trained, workdir, column, *extra):
        inp = workdir / "in.csv"
        inp.write_text("\n".join([column, *TOY_TEXTS[:2]]) + "\n",
                       encoding="utf-8")
        outp = workdir / "preds.csv"
        code = main(["predict", "--model", str(trained), "--input", str(inp),
                     "--output", str(outp), *extra])
        return code, outp

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "bom"])
    def test_evaluate_reads_the_models_column(self, trained, workdir, capsys,
                                              bom):
        """A leading UTF-8 BOM is not part of the first column's name."""
        eval_csv = workdir / "eval.csv"
        eval_csv.write_bytes(bom + (workdir / "train.csv").read_bytes())
        code = main(["evaluate", "--model", str(trained),
                     "--eval-csv", str(eval_csv),
                     "--runs-dir", str(workdir / "eval-runs")])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert out.out.splitlines()[1] == "accuracy=1.0"

    def test_predict_reads_the_models_column(self, trained, workdir, capsys):
        code, outp = self._predict(trained, workdir, "body")
        assert code == 0, capsys.readouterr().err
        lines = outp.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["10", "01"]

    def test_an_explicit_flag_wins(self, trained, workdir, capsys):
        code, outp = self._predict(trained, workdir, "text",
                                   "--text-column", "text")
        assert code == 0, capsys.readouterr().err
        assert len(outp.read_text(encoding="utf-8").splitlines()) == 3
        code, _ = self._predict(trained, workdir, "body",
                                "--text-column", "text")
        assert code == 2
        assert "missing text column 'text'" in capsys.readouterr().err


class TestCompare:
    def test_table_over_two_runs(self, workdir, capsys):
        code, id1, _ = _train(workdir, capsys)
        assert code == 0
        code, id2, _ = _train(workdir, capsys, "--set", "fusion.epochs=3")
        assert code == 0
        code = main(["compare", "--runs-dir", str(workdir / "runs"),
                     id1, id2])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        header = out[0].split("\t")
        assert header[0] == "run_id"
        assert "epochs" in header and "accuracy" in header
        rows = [line.split("\t") for line in out[1:]]
        assert [r[0] for r in rows] == [id1, id2]
        epochs_col = header.index("epochs")
        assert rows[0][epochs_col] == "150"
        assert rows[1][epochs_col] == "3"

    def test_unknown_run_exit_2(self, workdir, capsys):
        (workdir / "runs").mkdir(exist_ok=True)
        code = main(["compare", "--runs-dir", str(workdir / "runs"),
                     "bogus-id"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bogus-id" in err


class TestCacheFlows:
    def test_stale_cache_exit_4(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["cache_dir"] = str(workdir / "cache")
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        assert _train(workdir, capsys)[0] == 0
        _write_train_csv(workdir / "train.csv",
                         texts=[t.upper() for t in TOY_TEXTS])
        code, _, err = _train(workdir, capsys)
        assert code == 4
        assert err.startswith("error[stale-cache]:")

    def test_predict_reuses_training_cache(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["cache_dir"] = str(workdir / "cache")
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        assert _train(workdir, capsys)[0] == 0
        # drop the table file: only the cache can answer now
        (workdir / "table.tsv").unlink()
        code = main(["predict", "--model", str(workdir / "model.json"),
                     "--text", TOY_TEXTS[0],
                     "--cache-dir", str(workdir / "cache")])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "yes"


    def test_warm_predict_and_evaluate_leave_cache_untouched(self, workdir,
                                                             capsys):
        # MockProvider answers unknown texts with uniform scores, so only
        # the cache's bytes show whether a warm run fetched and stored
        _set_config(workdir, cache_dir=str(workdir / "cache"))
        assert _train(workdir, capsys)[0] == 0
        cache = workdir / "cache"

        def snapshot():
            return {p.relative_to(cache): p.read_bytes()
                    for p in sorted(cache.rglob("*")) if p.is_file()}
        before = snapshot()
        assert len([p for p in before if p.name.startswith("log-")]) == 1
        inp = workdir / "texts.csv"
        inp.write_text("text\n" + "\n".join(TOY_TEXTS) + "\n",
                       encoding="utf-8")
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--input", str(inp), "--output", str(workdir / "p.csv"),
                     "--cache-dir", str(cache)]) == 0
        assert main(["evaluate", "--model", str(workdir / "model.json"),
                     "--eval-csv", str(workdir / "train.csv"),
                     "--runs-dir", str(workdir / "eval-runs"),
                     "--cache-dir", str(cache)]) == 0
        assert snapshot() == before


class TestProviderFailure:
    def test_unreachable_provider_exit_3(self, workdir, capsys,
                                         monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")

        def dead_transport(url, headers, body, timeout_s):
            raise OSError("connection refused")

        import scorefusion.llm as llm_mod
        monkeypatch.setattr(llm_mod, "_requests_transport", dead_transport)
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["llm_provider"] = {"provider": "openai", "max_retries": 0,
                               "backoff_base_ms": 1}
        del doc["mock_table"]
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        code, _, err = _train(workdir, capsys)
        assert code == 3
        assert err.startswith("error[provider]:")


    def test_rejected_credentials_exit_3_without_retry(self, workdir, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "bad-key")
        calls = []

        def unauthorized(url, headers, body, timeout_s):
            calls.append(1)
            return 401, '{"error": "invalid api key"}'

        import scorefusion.llm as llm_mod
        monkeypatch.setattr(llm_mod, "_requests_transport", unauthorized)
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["llm_provider"] = {"provider": "openai", "llm_batch_size": 1}
        del doc["mock_table"]
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        code, _, err = _train(workdir, capsys)
        assert code == 3
        assert err.startswith("error[provider]:")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "401" in err
        assert len(calls) == len(TOY_TEXTS)  # one call per text, no retries


class TestMainPlumbing:
    def test_unknown_command_systemexits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_yaml_list_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n", encoding="utf-8")
        code = main(["train", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "mapping" in err

    def test_error_lines_are_single_line(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "config.yaml").read_text())
        doc["train_csv"] = str(workdir / "nope.csv")
        (workdir / "config.yaml").write_text(yaml.safe_dump(doc))
        _, _, err = _train(workdir, capsys)
        assert err.count("\n") == 1 and err.endswith("\n")


def _set_config(workdir, **changes):
    """Rewrite config.yaml with `changes` applied; None deletes a key."""
    doc = yaml.safe_load((workdir / "config.yaml").read_text())
    for key, value in changes.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    (workdir / "config.yaml").write_text(yaml.safe_dump(doc))


def _train_argv(workdir):
    return ["train", str(workdir / "config.yaml")]


def _evaluate_argv(workdir, csv_text):
    assert main(_train_argv(workdir)) == 0
    path = workdir / "eval.csv"
    path.write_text(csv_text, encoding="utf-8")
    return ["evaluate", "--model", str(workdir / "model.json"),
            "--eval-csv", str(path), "--runs-dir", str(workdir / "eval-runs")]


def _bad_yaml(workdir, monkeypatch):
    (workdir / "config.yaml").write_text("label_columns: [yes, no\n")
    return _train_argv(workdir)


def _unknown_key(workdir, monkeypatch):
    _set_config(workdir, lable_columns=list(LABELS))
    return _train_argv(workdir)


def _empty_label_name(workdir, monkeypatch):
    _set_config(workdir, label_columns=["", "no"])
    return _train_argv(workdir)


def _empty_model_name(workdir, monkeypatch):
    _set_config(workdir, model_name="", cache_dir=str(workdir / "cache"))
    return _train_argv(workdir)


def _bad_value_type(workdir, monkeypatch):
    _set_config(workdir, encoder={"dim": "sixteen"})
    return _train_argv(workdir)


def _quoted_multi_label(workdir, monkeypatch):
    _set_config(workdir, multi_label="false")
    return _train_argv(workdir)


def _float_dim(workdir, monkeypatch):
    _set_config(workdir, encoder={"dim": 4.5})
    return _train_argv(workdir)


def _float_max_retries(workdir, monkeypatch):
    table = str(workdir / "table.tsv")
    _set_config(workdir, llm_provider={"provider": "mock", "mock_table": table,
                                       "max_retries": 2.5})
    return _train_argv(workdir)


def _bool_temperature(workdir, monkeypatch):
    table = str(workdir / "table.tsv")
    _set_config(workdir, llm_provider={"provider": "mock", "mock_table": table,
                                       "temperature": True})
    return _train_argv(workdir)


def _bool_lr_high(workdir, monkeypatch):
    _set_config(workdir, fusion={"lr_high": True})
    return _train_argv(workdir)


def _negative_seed(workdir, monkeypatch):
    return [*_train_argv(workdir), "--seed", "-1"]


def _missing_csv(workdir, monkeypatch):
    _set_config(workdir, train_csv=str(workdir / "nope.csv"))
    return _train_argv(workdir)


def _undecodable_csv(workdir, monkeypatch):
    (workdir / "train.csv").write_bytes(b"text,yes,no\n\xff\xfe,1,0\n")
    return _train_argv(workdir)


def _bad_label_cell(workdir, monkeypatch):
    with open(workdir / "train.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["odd row", "2", "0"])
    return _train_argv(workdir)


def _partial_label_columns(workdir, monkeypatch):
    return _evaluate_argv(workdir, "text,yes\nhello,1\n")


def _unlabeled_eval_rows(workdir, monkeypatch):
    return _evaluate_argv(workdir, "text\nhello\n")


def _header_only_eval(workdir, monkeypatch):
    return _evaluate_argv(workdir, "text,yes,no\n")


def _corrupt_model(workdir, monkeypatch):
    (workdir / "model.json").write_text("{ not json", encoding="utf-8")
    return ["predict", "--model", str(workdir / "model.json"), "--text", "x"]


def _corrupt_base64_model(workdir, monkeypatch):
    assert main(_train_argv(workdir)) == 0
    path = workdir / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["encoder"]["projection_rows"] = "not*base64"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["predict", "--model", str(path), "--text", "x"]


def _doctored_encoder(name, edit):
    """A setup that trains, applies `edit` to the model file's encoder
    section, and predicts with the file."""
    def setup(workdir, monkeypatch):
        assert main(_train_argv(workdir)) == 0
        path = workdir / "model.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["encoder"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["predict", "--model", str(path), "--text", "x"]
    setup.__name__ = f"_{name}"
    return setup


def _swap_first_rows(enc):
    enc["rows"][:2] = enc["rows"][1::-1]


def _non_finite_row(enc):
    flat = _decode_array(enc["projection_rows"], MODEL_FORMAT_VERSION)
    flat[0] = np.inf
    enc["projection_rows"] = _encode_array(flat)


_FORMAT3_FAULTS = (
    _doctored_encoder("unsorted_rows", _swap_first_rows),
    _doctored_encoder("duplicate_rows",
                      lambda enc: enc["rows"].__setitem__(1, enc["rows"][0])),
    # 1024 is the config's encoder.buckets.
    _doctored_encoder("row_past_buckets",
                      lambda enc: enc["rows"].__setitem__(-1, 1024)),
    _doctored_encoder("negative_init_seed",
                      lambda enc: enc.__setitem__("init_seed", -1)),
    _doctored_encoder("wrong_init_sha256",
                      lambda enc: enc.__setitem__("init_sha256", "0" * 64)),
    _doctored_encoder("non_finite_projection_row", _non_finite_row),
    _doctored_encoder("short_projection_rows",
                      lambda enc: enc["rows"].pop()),
)


def _projection_too_large_to_load(workdir, monkeypatch):
    """A slot map of 2^50 int32 values exceeds every 64-bit address
    space."""
    assert main(_train_argv(workdir)) == 0
    path = workdir / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["config"]["encoder"]["buckets"] = 2 ** 50
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["predict", "--model", str(path), "--text", "x"]


def _projection_too_large_to_train(workdir, monkeypatch):
    _set_config(workdir, encoder={"buckets": 2 ** 50, "dim": 16})
    return _train_argv(workdir)


def _non_finite_model(workdir, monkeypatch):
    assert main(_train_argv(workdir)) == 0
    path = workdir / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    layer = doc["fusion"]["layers"][-1]
    bias = _decode_array(layer["bias"], MODEL_FORMAT_VERSION)
    bias[0] = np.nan
    layer["bias"] = _encode_array(bias)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["predict", "--model", str(path), "--text", "x"]


def _int_label_names(workdir, monkeypatch):
    _set_config(workdir, label_columns=[1, 2])
    return _train_argv(workdir)


def _unreadable_input(key, how):
    """A setup pointing the mock table or the embedding file at a missing
    file, a directory, or a file of non-UTF-8 bytes."""
    def setup(workdir, monkeypatch):
        path = workdir / "input.tsv"
        if how == "directory":
            path.mkdir()
        elif how == "not_utf8":
            path.write_bytes(b"\xff\xfe\t0.5\t0.5\n")
        if key == "mock_table":
            _set_config(workdir, mock_table=str(path))
        else:
            _set_config(workdir, encoder={"precomputed_path": str(path)})
        return _train_argv(workdir)
    setup.__name__ = f"_{key}_{how}"
    return setup


def _unwritable_model_path(workdir, monkeypatch):
    (workdir / "afile").write_text("not a directory", encoding="utf-8")
    _set_config(workdir, model_out=str(workdir / "afile" / "model.json"))
    return _train_argv(workdir)


def _stale_cache(workdir, monkeypatch):
    _set_config(workdir, cache_dir=str(workdir / "cache"))
    assert main(_train_argv(workdir)) == 0
    _write_train_csv(workdir / "train.csv",
                     texts=[t.upper() for t in TOY_TEXTS])
    return _train_argv(workdir)


def _provider_401(workdir, monkeypatch):
    import scorefusion.llm as llm_mod
    monkeypatch.setenv("OPENAI_API_KEY", "bad-key")
    monkeypatch.setattr(llm_mod, "_requests_transport",
                        lambda url, headers, body, timeout_s: (401, "{}"))
    _set_config(workdir, llm_provider={"provider": "openai"}, mock_table=None)
    return _train_argv(workdir)


def _predict_argv(workdir, output):
    assert main(_train_argv(workdir)) == 0
    return ["predict", "--model", str(workdir / "model.json"),
            "--input", str(workdir / "train.csv"), "--output", str(output)]


def _output_in_missing_dir(workdir, monkeypatch):
    return _predict_argv(workdir, workdir / "missing" / "preds.csv")


def _output_under_a_file(workdir, monkeypatch):
    return _predict_argv(workdir, workdir / "train.csv" / "preds.csv")


def _uncreatable_runs_dir(workdir, monkeypatch):
    _set_config(workdir, runs_dir=str(workdir / "train.csv" / "runs"))
    return _train_argv(workdir)


def _uncreatable_eval_runs_dir(workdir, monkeypatch):
    assert main(_train_argv(workdir)) == 0
    return ["evaluate", "--model", str(workdir / "model.json"),
            "--eval-csv", str(workdir / "train.csv"),
            "--runs-dir", str(workdir / "train.csv" / "runs")]


def _compare_corrupt_run_file(workdir, name):
    assert main(_train_argv(workdir)) == 0
    [run_dir] = (workdir / "runs").iterdir()
    (run_dir / name).write_text("{ not json", encoding="utf-8")
    return ["compare", "--runs-dir", str(workdir / "runs"), run_dir.name]


def _corrupt_run_config(workdir, monkeypatch):
    return _compare_corrupt_run_file(workdir, "config.json")


def _corrupt_run_metrics(workdir, monkeypatch):
    return _compare_corrupt_run_file(workdir, "metrics.json")


@pytest.mark.parametrize("setup, code, kind", [
    (_bad_yaml, 1, "config"),
    (_unknown_key, 1, "config"),
    (_empty_label_name, 1, "config"),
    (_empty_model_name, 1, "config"),
    (_bad_value_type, 1, "config"),
    (_quoted_multi_label, 1, "config"),
    (_float_dim, 1, "config"),
    (_int_label_names, 1, "config"),
    (_float_max_retries, 1, "config"),
    (_bool_temperature, 1, "config"),
    (_bool_lr_high, 1, "config"),
    (_negative_seed, 1, "config"),
    (_missing_csv, 2, "data"),
    (_undecodable_csv, 2, "data"),
    (_bad_label_cell, 2, "data"),
    (_partial_label_columns, 2, "data"),
    (_unlabeled_eval_rows, 2, "data"),
    (_header_only_eval, 2, "data"),
    *((_unreadable_input(key, how), 2, "data")
      for key in ("mock_table", "embeddings")
      for how in ("missing", "directory", "not_utf8")),
    (_corrupt_model, 1, "config"),
    (_corrupt_base64_model, 1, "config"),
    (_non_finite_model, 1, "config"),
    (_projection_too_large_to_load, 1, "config"),
    (_projection_too_large_to_train, 1, "config"),
    *((setup, 1, "config") for setup in _FORMAT3_FAULTS),
    (_unwritable_model_path, 2, "data"),
    (_output_in_missing_dir, 2, "data"),
    (_output_under_a_file, 2, "data"),
    (_uncreatable_runs_dir, 2, "data"),
    (_uncreatable_eval_runs_dir, 2, "data"),
    (_corrupt_run_config, 2, "data"),
    (_corrupt_run_metrics, 2, "data"),
    (_stale_cache, 4, "stale-cache"),
    (_provider_401, 3, "provider"),
], ids=lambda value: value.__name__.lstrip("_") if callable(value) else None)
def test_failure_prints_one_typed_line(workdir, capsys, monkeypatch, setup,
                                       code, kind):
    argv = setup(workdir, monkeypatch)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(f"error[{kind}]: ")


def test_rejected_eval_data_leaves_no_run(workdir, monkeypatch):
    argv = _header_only_eval(workdir, monkeypatch)
    assert main(argv) == 2
    runs_dir = workdir / "eval-runs"
    assert not runs_dir.exists() or not any(runs_dir.iterdir())


def _threshold_model(workdir, monkeypatch):
    """A trained model file whose per-class threshold has one value for
    two labels."""
    assert main(_train_argv(workdir)) == 0
    path = workdir / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["config"]["fusion"]["threshold"] = [0.5]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["predict", "--model", str(path), "--text", "x"]


@pytest.mark.parametrize("kind", ["hashed", "frozen", "frozen_v3"])
def test_evaluate_run_config_decodes_to_the_model_config(kind, workdir,
                                                         capsys):
    """An evaluate run records the model's config, which decodes once its
    three CLI keys are taken out; a format-3 frozen-lookup model, whose
    embedding path was never recorded, still evaluates."""
    model, eval_csv = workdir / "model.json", workdir / "train.csv"
    if kind == "frozen_v3":
        model = DATA / "model_v3_frozen.json"
        expected = json.loads((DATA / "model_v3_frozen_expected.json")
                              .read_text(encoding="utf-8"))
        eval_csv = workdir / "eval.csv"
        _write_train_csv(eval_csv, expected["texts"])
    else:
        if kind == "frozen":
            emb = workdir / "emb.tsv"
            sf.write_mock_table({t: (i / 8, 1 - i / 8)
                                 for i, t in enumerate(TOY_TEXTS)}, str(emb))
            _set_config(workdir, encoder={"precomputed_path": str(emb)})
        assert main(_train_argv(workdir)) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--eval-csv",
                 str(eval_csv), "--runs-dir", str(workdir / "eval-runs")]) == 0
    run_id = capsys.readouterr().out.splitlines()[0]
    config = load_run(workdir / "eval-runs", run_id).config
    cli_keys = {key: config.pop(key)
                for key in ("command", "model_path", "eval_csv")}
    assert cli_keys == {"command": "evaluate", "model_path": str(model),
                        "eval_csv": str(eval_csv)}
    assert sf.AutoFusionConfig.from_dict(config, "config") \
        == sf.load_model(model).config


def _overrides(*specs):
    """A setup that trains with each KEY=VALUE spec given to --set."""
    def setup(workdir, monkeypatch):
        return [*_train_argv(workdir),
                *(arg for spec in specs for arg in ("--set", spec))]
    return setup


@pytest.mark.parametrize("setup, code, line", [
    pytest.param(_unknown_key, 1,
                 r"error\[config\]: unknown config key 'lable_columns'$",
                 id="config"),
    pytest.param(_corrupt_model, 1, r"error\[config\]: model format error: "
                 r"model file \S+ is not valid JSON", id="model-format"),
    pytest.param(_missing_csv, 2, r"error\[data\]: cannot read CSV ",
                 id="data"),
    pytest.param(_provider_401, 3, r"error\[provider\]: ", id="provider"),
    pytest.param(_stale_cache, 4, r"error\[stale-cache\]: ",
                 id="stale-cache"),
    pytest.param(_overrides("multi_label=true", "fusion.threshold=[0.5]"), 1,
                 r"error\[config\]: config: fusion.threshold needs one value "
                 r"per label \(2\), got 1$", id="threshold-count"),
    pytest.param(_threshold_model, 1, r"error\[config\]: model format error: "
                 r"model file \S+ is structurally invalid: config: "
                 r"fusion.threshold needs one value per label \(2\), got 1$",
                 id="threshold-count-in-model"),
    pytest.param(_overrides("fusion.lr_high=1" + "0" * 400), 1,
                 r"error\[config\]: config: fusion: lr_high must be a finite "
                 r"number, got an integer of 401 digits$", id="huge-integer"),
    pytest.param(_overrides("encoder=5"), 1,
                 r"error\[config\]: config: encoder must be a mapping or a "
                 r"string, got 5$", id="union"),
])
def test_exit_code_and_line_per_error_class(workdir, capsys, monkeypatch,
                                            setup, code, line):
    """Each documented exit code and prefix once, and inputs that used to
    end in a bare traceback."""
    argv = setup(workdir, monkeypatch)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert re.match(line, err)


def test_wrong_threshold_count_fails_before_the_run(workdir, capsys):
    code, _, _ = _train(workdir, capsys, "--set", "multi_label=true",
                        "--set", "fusion.threshold=[0.5]")
    assert code == 1
    assert not (workdir / "runs").exists()
