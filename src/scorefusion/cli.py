"""Command-line front end: YAML-configured train / predict / evaluate /
compare over CSV data.

Exit code 0 is success. Every failure prints one line to stderr,
`error[<kind>]: <prefix><message>`, and exits with the code its error class
declares (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .cache import cache_open_adopt
from .core import Dataset, LabelSchema, NonEmptyPath, TaskMode, check_value
from .errors import ConfigurationError, DataError, ScoreFusionError
from .model import load_model, save_model
from .pipeline import build_config, dataset_from_records, evaluate_as_run, fit
from .pipeline import predict as pipeline_predict
from .results import prediction_rows, run_compare, write_predictions_csv

# YAML keys consumed by the CLI itself; everything else is handed to
# build_config, which rejects unknown keys by name.
_PATH_KEYS = ("train_csv", "runs_dir", "model_out")


def _eprint_error(kind: str, message: str) -> None:
    flat = " ".join(str(message).split())
    print(f"error[{kind}]: {flat}", file=sys.stderr)


# yaml is imported where a config is read: only `train` reads one, and the
# import costs every predict and evaluate process about 13 ms.
def _load_yaml_config(path: str) -> dict:
    import yaml

    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") \
            from None
    # ValueError: an integer past Python's int-to-string digit limit.
    try:
        doc = yaml.safe_load(raw)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigurationError(
            f"config file {path} is not valid YAML: {exc}"
        ) from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"config file {path} must hold a mapping at the top level"
        )
    return doc


def _apply_override(doc: dict, spec: str) -> None:
    """Apply one --set KEY=VALUE override; KEY may be dotted."""
    import yaml

    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise ConfigurationError(f"--set expects KEY=VALUE, got {spec!r}")
    parts = key.split(".")
    if any(not p for p in parts):
        raise ConfigurationError(f"--set key {key!r} has an empty segment")
    try:
        value = yaml.safe_load(raw)
    except (yaml.YAMLError, ValueError):
        value = raw
    node = doc
    for part in parts[:-1]:
        if node.get(part) is None:
            node[part] = {}
        elif not isinstance(node[part], dict):
            raise ConfigurationError(
                f"--set {key}: {part} is {node[part]!r}, not a mapping")
        node = node[part]
    node[parts[-1]] = value


@contextmanager
def _open_csv(path: str, text_column: str) -> Iterator[csv.DictReader]:
    """A DictReader over a UTF-8 CSV, a leading BOM dropped, whose header,
    if it has one, holds the text column. Unreadable files and undecodable
    content are DataErrors."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read CSV {path}: {exc}") from None
    with fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is not None \
                    and text_column not in reader.fieldnames:
                raise DataError(f"{path}: missing text column {text_column!r}")
            yield reader
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None


def load_csv_dataset(path: str, schema: LabelSchema, mode: TaskMode,
                     text_column: str = "text") -> Dataset:
    """Read a dataset CSV: one text column plus one 0/1 column per label.

    Rows of a file whose header holds every label column become labeled
    examples. A file whose header lacks the text column or part of the
    label columns fails naming the missing columns.
    """
    with _open_csv(path, text_column) as reader:
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV (no header row)")
        missing = [name for name in schema.labels
                   if name not in reader.fieldnames]
        if 0 < len(missing) < schema.K:
            raise DataError(f"{path}: missing label columns {missing}")
        return dataset_from_records(reader, schema, mode, text_column,
                                    source=path)


def _read_texts_csv(path: str, text_column: str) -> list[str]:
    """Texts for prediction; an empty file yields an empty list."""
    with _open_csv(path, text_column) as reader:
        return [record[text_column] or "" for record in reader]


def _cmd_train(args) -> int:
    doc = _load_yaml_config(args.config)
    for spec in args.overrides:
        _apply_override(doc, spec)
    if args.seed is not None:
        doc["seed"] = args.seed
    paths = {key: check_value(key, NonEmptyPath, doc.pop(key))
             for key in _PATH_KEYS if key in doc}
    cfg = build_config(doc)
    if "train_csv" not in paths:
        raise ConfigurationError("config key 'train_csv' is required to train")
    ds = load_csv_dataset(paths["train_csv"], cfg.schema, cfg.mode,
                          cfg.text_column)
    model, record = fit(ds, cfg, runs_root=paths.get("runs_dir"))
    if "model_out" in paths:
        save_model(model, paths["model_out"])
    print(record.run_id)
    return 0


def _cmd_predict(args) -> int:
    if args.texts and args.input:
        raise ConfigurationError("give either --input or --text, not both")
    if args.texts and args.output:
        raise ConfigurationError("--output is only for --input; --text "
                                 "predictions are printed")
    if not args.texts and not args.input:
        raise ConfigurationError("predict needs --input or at least one --text")
    if args.input and not args.output:
        raise ConfigurationError("--output is required with --input")
    model = load_model(args.model)
    cache = None if args.cache_dir is None else cache_open_adopt(args.cache_dir)
    if args.texts:
        preds = pipeline_predict(model, args.texts, cache=cache)
        for row in preds.decided:
            print(",".join(name for name, bit in zip(model.schema.labels, row)
                           if bit))
        return 0
    texts = _read_texts_csv(args.input,
                            args.text_column or model.config.text_column)
    preds = pipeline_predict(model, texts, cache=cache)
    write_predictions_csv(args.output, prediction_rows(preds),
                          model.schema.labels)
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = load_csv_dataset(args.eval_csv, model.schema, model.mode,
                          args.text_column or model.config.text_column)
    cache = None if args.cache_dir is None else cache_open_adopt(args.cache_dir)
    config_doc = {**model.config.to_dict(), "command": "evaluate",
                  "model_path": str(args.model),
                  "eval_csv": str(args.eval_csv)}
    record = evaluate_as_run(model, ds, args.runs_dir, config_doc, cache=cache)
    report = record.metrics
    print(record.run_id)
    print(f"accuracy={report.accuracy!r}")
    print(f"macro_f1={report.f1!r}")
    return 0


def _cmd_compare(args) -> int:
    rows = run_compare(args.runs_dir, args.run_ids)
    if not rows:
        return 0
    header = list(rows[0].keys())
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(row[key]) for key in header))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorefusion",
        description="Train and apply LLM-score + encoder fusion classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train from a YAML config and CSV")
    train.add_argument("config", help="YAML config file")
    train.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a config key (dotted paths allowed)")
    train.add_argument("--seed", type=int, help="override the config seed")
    train.set_defaults(func=_cmd_train)

    pred = sub.add_parser("predict", help="classify texts with a saved model")
    pred.add_argument("--model", required=True, help="model JSON file")
    pred.add_argument("--input", help="CSV of texts to classify")
    pred.add_argument("--output", help="CSV to write predictions to")
    pred.add_argument("--text", action="append", default=[], dest="texts",
                      help="inline text (repeatable); prints decided labels")
    pred.add_argument("--text-column",
                      help="CSV text column (default: the model's)")
    pred.add_argument("--cache-dir", help="reuse a score cache directory")
    pred.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("evaluate", help="score a saved model on labeled CSV")
    ev.add_argument("--model", required=True)
    ev.add_argument("--eval-csv", required=True)
    ev.add_argument("--runs-dir", required=True,
                    help="directory to persist the evaluation run under")
    ev.add_argument("--text-column",
                    help="CSV text column (default: the model's)")
    ev.add_argument("--cache-dir")
    ev.set_defaults(func=_cmd_evaluate)

    cmp_ = sub.add_parser("compare", help="tabulate finalized runs")
    cmp_.add_argument("--runs-dir", required=True)
    cmp_.add_argument("run_ids", nargs="+")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScoreFusionError as exc:
        _eprint_error(exc.kind, exc.prefix + str(exc))
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
