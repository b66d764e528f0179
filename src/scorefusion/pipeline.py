"""End-to-end orchestration: fetch LLM scores (cache-first), encode texts,
and train the fusion head jointly with the encoder under the two-rate
scheme. Also prediction, evaluation, single-signal baselines and the YAML
config reader; the config, the model and its file format are in `model`.

Training is deterministic given (data, config, provider responses): all
randomness flows from the fusion seed, and LLM scores are fetched once up
front, never per epoch.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .cache import _MANIFEST_NAME, ScoreCache, cache_open, cache_open_adopt
from .core import (
    Dataset,
    LabelSchema,
    LabelVector,
    TaskMode,
    TextExample,
    check_keys,
    check_texts,
    dataset_fingerprint,
    utf8_rows,
    validate_dataset,
)
from .encoder import HashedNgramEncoder, load_precomputed_embeddings
from .errors import (
    ConfigurationError,
    DataError,
    InvalidDatasetError,
    RunStateError,
)
from .fusion import (
    FusionConfig,
    FusionParams,
    Predictions,
    backward,
    batch_loss_and_dlogits,
    decide,
    forward,
    fusion_step,
    init_fusion_params,
    probabilities,
)
from .llm import ProviderConfig, score_providers
from .metrics import MetricsReport, compute_metrics
from .model import AutoFusionConfig, FusionModel, load_model, save_model
from .results import RunHandle, RunRecord, run_create

logger = logging.getLogger(__name__)


# The YAML shorthand build_config rewrites, and every top-level YAML key.
_SHORTHAND_KEYS = ("llm_provider", "model_name", "mock_table", "seed")
_TOP_KEYS = (*_SHORTHAND_KEYS, *(f.name for f in fields(AutoFusionConfig)
                                 if f.name != "llm_providers"))
# YAML spells two ProviderConfig fields differently; the rest keep their
# field names.
_PROVIDER_SPELLINGS = {"provider": "provider_id", "mock_table": "mock_table_path"}
_PROVIDER_KEYS = (*_PROVIDER_SPELLINGS,
                  *(f.name for f in fields(ProviderConfig)
                    if f.name not in _PROVIDER_SPELLINGS.values()))


def _provider_from_value(value, model_name, mock_table) -> dict:
    """One provider spec, a name or a mapping, as a ProviderConfig mapping."""
    if isinstance(value, str):
        value = {"provider": value, "model_name": model_name,
                 "mock_table": mock_table}
        value = {k: v for k, v in value.items() if v is not None}
    if isinstance(value, dict):
        check_keys(value, _PROVIDER_KEYS, "provider")
        if "provider" not in value:
            raise ConfigurationError("provider entry needs a 'provider' name")
        return {_PROVIDER_SPELLINGS.get(k, k): v for k, v in value.items()}
    raise ConfigurationError("provider entries must be names or mappings, "
                             f"got {type(value).__name__}")


def _providers_from_doc(doc: dict) -> list:
    """The providers `llm_provider` names, none when it is absent (the
    encoder-only baseline); `model_name` or `mock_table` without it is an
    error, not a provider chosen for the user."""
    if "llm_provider" not in doc:
        for key in ("model_name", "mock_table"):
            if key in doc:
                raise ConfigurationError(
                    f"config key {key!r} needs 'llm_provider'")
        return []
    raw, names = doc["llm_provider"], doc.get("model_name")
    if not isinstance(raw, (list, tuple)):
        raw, names = [raw], [names]
    elif not isinstance(names, (list, tuple)):
        names = [names] * len(raw)
    elif len(names) != len(raw):
        raise ConfigurationError(f"model_name list length {len(names)} != "
                                 f"llm_provider list length {len(raw)}")
    return [_provider_from_value(v, n, doc.get("mock_table"))
            for v, n in zip(raw, names)]


def build_config(doc: dict) -> AutoFusionConfig:
    """Build an AutoFusionConfig from a plain mapping (YAML/dict form),
    rejecting unknown keys by name at every level. It rewrites only the
    YAML shorthand, `llm_provider`, `model_name`, `mock_table` and `seed`
    (fusion.seed, which it wins over), for AutoFusionConfig.from_dict."""
    check_keys(doc, _TOP_KEYS, "config")
    if "label_columns" not in doc:
        raise ConfigurationError("config key 'label_columns' is required")
    fields_doc = {k: v for k, v in doc.items() if k not in _SHORTHAND_KEYS}
    fields_doc["llm_providers"] = _providers_from_doc(doc)
    fusion = doc.get("fusion", {})
    if "seed" in doc and isinstance(fusion, dict):
        fields_doc["fusion"] = {**fusion, "seed": doc["seed"]}
    return AutoFusionConfig.from_dict(fields_doc, "config")


def _derive_seeds(seed: int) -> tuple[int, int, int]:
    """Independent child seeds (encoder init, fusion init, shuffling) so the
    three random streams never share underlying state."""
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def _build_encoder(cfg: AutoFusionConfig):
    if isinstance(cfg.encoder, str):
        return load_precomputed_embeddings(cfg.encoder)
    enc_seed, _, _ = _derive_seeds(cfg.fusion.seed)
    return HashedNgramEncoder(cfg.encoder, seed=enc_seed)


def _check_labeled_dataset(ds: Dataset, schema: LabelSchema,
                           mode: TaskMode) -> None:
    """The rules data must pass to train or score a classifier of this
    schema and mode: same labels in order, same mode, valid targets, a
    target on every row, and at least one row."""
    if ds.schema.labels != schema.labels:
        raise DataError(
            f"dataset labels {list(ds.schema.labels)} do not match the "
            f"classifier's labels {list(schema.labels)}"
        )
    if ds.mode is not mode:
        raise DataError(
            f"dataset mode {ds.mode.value} does not match the classifier's "
            f"mode {mode.value}"
        )
    violations = validate_dataset(ds)
    if len(ds) == 0:
        violations.insert(0, "dataset has no rows")
    violations.extend(f"row {i}: a target is required"
                      for i, row in enumerate(ds.rows) if row.target is None)
    if violations:
        raise InvalidDatasetError(violations)


def dataset_from_records(records: Iterable, schema: LabelSchema,
                         mode: TaskMode, text_column: str = "text",
                         source: Optional[str] = None) -> Dataset:
    """Build a Dataset from record mappings: CSV DictReader rows, dicts, or
    DataFrame to_dict("records") rows.

    A record with every label column is labeled, one with none is not, and
    one with some fails naming the absent columns. A missing cell (None)
    reads as "". Label cells must be 0/1 numbers or booleans, numpy scalars
    included, or the strings "0"/"1" (surrounding spaces allowed). `source`
    prefixes every message.
    """
    where = f"{source}: " if source else ""
    rows: list[TextExample] = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DataError(
                f"{where}record {i}: expected a mapping, got "
                f"{type(rec).__name__}"
            )
        if text_column not in rec:
            raise DataError(f"{where}record {i}: missing text column "
                            f"{text_column!r}")
        text = rec[text_column]
        present = [name for name in schema.labels if name in rec]
        if len(present) not in (0, schema.K):
            absent = [name for name in schema.labels if name not in rec]
            raise DataError(f"{where}record {i}: missing label columns "
                            f"{absent}")
        target = LabelVector([_bit(rec[name], where, i, name)
                              for name in schema.labels]) if present else None
        rows.append(TextExample("" if text is None else str(text), target))
    return Dataset(schema, mode, rows)


def _bit(value, where: str, row: int, column: str) -> int:
    """A label cell as 0/1, or a DataError naming the cell."""
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    if isinstance(value, (numbers.Real, np.bool_)) and value in (0, 1):
        return int(value)
    raise DataError(
        f"{where}record {row}: label column {column!r} must be 0 or 1, "
        f"got {value!r}"
    )


# A diverging fit is reported by the finite-loss check, not by numpy
# overflow warnings on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _train(encoder, feats, batches, params: FusionParams,
           targets: Sequence[LabelVector], scores: np.ndarray,
           schema: LabelSchema, mode: TaskMode, fcfg: FusionConfig,
           validation_fraction: float, run: Optional[RunHandle],
           ) -> Optional[MetricsReport]:
    """The two-rate loop over inputs [embedding | scores row], from the
    encoder's features of the texts and their training batches, stepping
    the head `params` in place; returns the last validation report."""
    n = len(targets)
    d = encoder.dim
    _, _, shuffle_seed = _derive_seeds(fcfg.seed)

    y = np.array([t.bits for t in targets], dtype=np.float64)
    rng = np.random.default_rng(shuffle_seed)
    perm = rng.permutation(n)
    n_val = min(int(validation_fraction * n), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    val_feats, val_scores = feats[val_idx], scores[val_idx]
    # Every batch's input [embedding | scores row] is written into the
    # leading rows of one matrix sized for the largest batch.
    inputs = np.empty((min(fcfg.train_batch_size, train_idx.size),
                       d + scores.shape[1]))

    last_report: Optional[MetricsReport] = None
    for epoch in range(1, fcfg.epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        loss_sum = 0.0
        for start in range(0, order.size, fcfg.train_batch_size):
            batch = order[start:start + fcfg.train_batch_size]
            enc_batch = batches(batch)
            x = inputs[:batch.size]
            encoder.embed_batch(enc_batch, out=x[:, :d])
            np.take(scores, batch, axis=0, out=x[:, d:])
            logits, tape = forward(x, params)
            mean_loss, dlogits = batch_loss_and_dlogits(logits, y[batch], mode)
            if not np.isfinite(mean_loss):
                raise ConfigurationError(
                    f"training diverged in epoch {epoch}: non-finite loss "
                    f"with lr_high={fcfg.lr_high:g} and "
                    f"lr_small={encoder.lr_small:g}; "
                    "lower the learning rates"
                )
            bundle = backward(tape, dlogits, d, params)
            fusion_step(params, bundle, fcfg.lr_high)
            encoder.apply_sparse_gradients(enc_batch, bundle.embedding_grad)
            loss_sum += mean_loss * batch.size
        log_extra: dict = {}
        if val_idx.size:
            last_report = compute_metrics(
                _decide_inputs(encoder.embed_features(val_feats), val_scores,
                               params, mode, fcfg.threshold).decided,
                y[val_idx], mode, schema.labels)
            log_extra = {"val_accuracy": last_report.accuracy,
                         "val_macro_f1": last_report.f1}
        if run is not None:
            run.log_epoch(epoch, loss_sum / order.size, **log_extra)
    return last_report


def _decide_inputs(embs: np.ndarray, scores: np.ndarray, params: FusionParams,
                   mode: TaskMode, threshold) -> Predictions:
    """The head's decisions on inputs [embedding | scores row]."""
    logits, _ = forward(np.hstack([embs, scores]), params)
    return decide(probabilities(logits, mode), mode, threshold)


def fit(ds: Dataset, cfg: AutoFusionConfig,
        runs_root: Optional[Union[str, Path]] = None,
        cache: Optional[ScoreCache] = None,
        providers: Optional[Sequence] = None,
        ) -> tuple[FusionModel, RunRecord]:
    """Train a fusion classifier.

    Order of work: validate, build the encoder, fingerprint, featurize
    every text, allocate the encoder's row store and the head (so a bad
    embedding file, a text it lacks or a size that cannot be allocated
    fails before any score is paid for), open cache, prefetch LLM scores
    for every text, then run the joint two-rate loop.
    `providers` optionally injects one client object per configured
    provider (testing hook).

    Returns the model plus the finalized RunRecord (epoch losses, validation
    metrics when validation_fraction > 0, and final whole-set predictions).
    """
    _check_labeled_dataset(ds, cfg.schema, cfg.mode)
    encoder = _build_encoder(cfg)
    # Said when training, not each time a model's config is read back.
    if cfg.fusion.lr_high <= encoder.lr_small:
        logger.warning("lr_high (%g) <= lr_small (%g): the fusion head is "
                       "meant to move faster than the encoder",
                       cfg.fusion.lr_high, encoder.lr_small)
    fingerprint = dataset_fingerprint(ds)
    texts = ds.texts()
    feats = encoder.features(texts)
    pcfgs = cfg.llm_providers
    batches = encoder.training_batches(feats)
    _, fus_seed, _ = _derive_seeds(cfg.fusion.seed)
    k = ds.schema.K
    params = init_fusion_params(encoder.dim + len(pcfgs) * k,
                                cfg.fusion.hidden_sizes, k, fus_seed)
    if pcfgs and cache is None and cfg.cache_dir is not None:
        cache = cache_open(cfg.cache_dir, fingerprint, policy=cfg.cache_policy)
    scores = score_providers(texts, ds.schema, ds.mode, pcfgs, cache,
                             providers)
    run = run_create(runs_root, cfg.to_dict(), fingerprint, ds.schema.labels)
    targets = [row.target for row in ds.rows]
    last_report = _train(encoder, feats, batches, params, targets, scores,
                         ds.schema, ds.mode, cfg.fusion,
                         cfg.validation_fraction, run)
    del batches  # its buffers are not needed for the final predictions
    with np.errstate(over="ignore", invalid="ignore"):
        preds = _decide_inputs(encoder.embed_features(feats), scores, params,
                               ds.mode, cfg.fusion.threshold)
    model = FusionModel(cfg, encoder, params)
    run.store_predictions(preds, targets)
    return model, run.finalize(last_report)


def predict(model: FusionModel, texts: Sequence[str],
            cache: Optional[ScoreCache] = None,
            providers: Optional[Sequence] = None) -> Predictions:
    """Classify texts in order: encode -> LLM scores (cache-first) ->
    fuse -> decide, so a text the encoder rejects costs no provider call.
    An empty input yields (0, K) arrays; a bare str is a DataError, not a
    list of characters."""
    check_texts(texts)
    texts = list(texts)
    with utf8_rows(texts):
        embs = model.encoder.encode_batch(texts)
        scores = score_providers(texts, model.schema, model.mode,
                                 model.config.llm_providers, cache, providers)
    return _decide_inputs(embs, scores, model.fusion_params, model.mode,
                          model.config.fusion.threshold)


def evaluate(model: FusionModel, ds: Dataset,
             cache: Optional[ScoreCache] = None,
             providers: Optional[Sequence] = None) -> MetricsReport:
    """Predict over a labeled dataset and score the decisions.
    `evaluate_as_run` also records them as a run."""
    _check_labeled_dataset(ds, model.schema, model.mode)
    preds = predict(model, ds.texts(), cache=cache, providers=providers)
    return compute_metrics(preds.decided, [row.target for row in ds.rows],
                           ds.mode, model.schema.labels)


def evaluate_as_run(model: FusionModel, ds: Dataset,
                    runs_root: Optional[Union[str, Path]], config_doc: dict,
                    cache: Optional[ScoreCache] = None,
                    providers: Optional[Sequence] = None) -> RunRecord:
    """Evaluate and record the result as a new run under `runs_root` (in
    memory when None) whose config snapshot is `config_doc`.

    The data is checked before the run is created, so rejected data leaves
    no run directory behind. Returns the finalized RunRecord; its `metrics`
    is the report.
    """
    _check_labeled_dataset(ds, model.schema, model.mode)
    run = run_create(runs_root, config_doc, dataset_fingerprint(ds),
                     model.schema.labels)
    preds = predict(model, ds.texts(), cache=cache, providers=providers)
    targets = [row.target for row in ds.rows]
    run.store_predictions(preds, targets)
    return run.finalize(compute_metrics(preds.decided, targets, ds.mode,
                                        model.schema.labels))


# ---------------------------------------------------------------------------
# Single-signal baselines: the fusion model with the LLM slice taken out,
# and decisions taken directly on (mean) LLM scores. Together with fit()
# they make the three-way complementarity comparison runnable.

def fit_encoder_baseline(ds: Dataset, cfg: AutoFusionConfig,
                         runs_root: Optional[Union[str, Path]] = None,
                         ) -> tuple[FusionModel, RunRecord]:
    """Train the encoder-only baseline: `cfg` with no providers, so the
    same loop and seeds, no cache and no provider call."""
    return fit(ds, replace(cfg, llm_providers=()), runs_root)


# A model from fit_encoder_baseline has no providers, so predict needs no
# scores for it.
predict_encoder_baseline = predict


def llm_only_predict(per_provider: Sequence[np.ndarray], mode: TaskMode,
                     threshold: Union[float, Sequence[float]] = 0.5,
                     ) -> Predictions:
    """Apply the decision rule directly to LLM scores: one (n, K)
    `score_batch` matrix per provider, averaged across providers."""
    if not per_provider:
        raise ValueError("at least one provider score matrix is required")
    return decide(np.mean(per_provider, axis=0), mode, threshold)


# ---------------------------------------------------------------------------

class AutoFusionClassifier:
    """Config-in, predictions-out wrapper over fit/predict/evaluate.

    Accepts an AutoFusionConfig or a plain mapping (the YAML schema). Data
    may be a Dataset, a list of record mappings, or anything exposing
    pandas' to_dict("records").
    """

    def __init__(self, config: Union[Mapping, AutoFusionConfig]):
        if not isinstance(config, AutoFusionConfig):
            config = build_config(
                dict(config) if isinstance(config, Mapping) else config)
        self.config = config
        self.model: Optional[FusionModel] = None
        self.last_run: Optional[RunRecord] = None
        self._cache: Optional[ScoreCache] = None

    def fit(self, data, runs_root: Optional[Union[str, Path]] = None,
            providers: Optional[Sequence] = None) -> "AutoFusionClassifier":
        ds = self._as_dataset(data)
        # fit opens the cache for this dataset; predict adopts its manifest.
        self._cache = None
        self.model, self.last_run = fit(ds, self.config,
                                        runs_root=runs_root,
                                        providers=providers)
        return self

    def predict(self, texts: Sequence[str],
                providers: Optional[Sequence] = None) -> Predictions:
        return predict(self._require_model(), texts,
                       cache=self._open_cache(), providers=providers)

    def evaluate(self, data, runs_root: Optional[Union[str, Path]] = None,
                 providers: Optional[Sequence] = None) -> MetricsReport:
        model = self._require_model()
        record = evaluate_as_run(model, self._as_dataset(data), runs_root,
                                 model.config.to_dict(),
                                 cache=self._open_cache(), providers=providers)
        return record.metrics

    def save(self, path: Union[str, Path]) -> None:
        save_model(self._require_model(), path)

    @classmethod
    def from_model_file(cls, path: Union[str, Path],
                        config: Optional[Union[dict, AutoFusionConfig]] = None,
                        ) -> "AutoFusionClassifier":
        """A classifier holding a saved model, configured by `config` or,
        without one, by the config the model was trained with."""
        model = load_model(path)
        clf = cls(model.config if config is None else config)
        clf.model = model
        return clf

    def _require_model(self) -> FusionModel:
        if self.model is None:
            raise RunStateError("fit (or load a model) before predicting")
        return self.model

    def _open_cache(self) -> Optional[ScoreCache]:
        if self._cache is not None:
            return self._cache
        if self.config.cache_dir is None:
            return None
        manifest = Path(self.config.cache_dir) / _MANIFEST_NAME
        if not manifest.exists():
            return None
        self._cache = cache_open_adopt(self.config.cache_dir)
        return self._cache

    def _as_dataset(self, data) -> Dataset:
        if isinstance(data, Dataset):
            return data
        if hasattr(data, "to_dict"):
            data = data.to_dict("records")
        return dataset_from_records(data, self.config.schema, self.config.mode,
                                    self.config.text_column)
