"""Fusion text classification: trainable text encoder + per-class LLM
scores, combined by a compact jointly trained MLP.

This namespace is the documented surface. The module-level API (for
example `scorefusion.cache.cache_open` or `scorefusion.results.load_run`)
is imported from its module."""

from ._version import __version__
from .core import Dataset, LabelSchema, LabelVector, TaskMode, make_dataset
from .encoder import EncoderConfig
from .errors import (
    CacheWriteError,
    ConfigurationError,
    CorruptCacheError,
    DataError,
    InvalidDatasetError,
    ModelFormatError,
    ProviderUnavailableError,
    RunStateError,
    ScoreFusionError,
    StaleCacheError,
    UnknownTextError,
)
from .fusion import (
    FusionConfig,
    Prediction,
    Predictions,
    grad_loss_multiclass,
    grad_loss_multilabel,
    init_fusion_params,
    loss_multiclass,
    loss_multilabel,
    sigmoid,
    softmax,
)
from .fusion import backward as fusion_backward
from .fusion import forward as fusion_forward
from .llm import (
    MockProvider,
    ProviderConfig,
    parse_scores,
    score_batch,
    write_mock_table,
)
from .metrics import compute_metrics
from .pipeline import (
    AutoFusionClassifier,
    AutoFusionConfig,
    FusionModel,
    evaluate,
    evaluate_as_run,
    fit,
    fit_encoder_baseline,
    llm_only_predict,
    load_model,
    predict,
    predict_encoder_baseline,
    save_model,
)
from .synthetic import make_complementary_data

__all__ = [
    "__version__",
    "AutoFusionClassifier",
    "AutoFusionConfig",
    "CacheWriteError",
    "ConfigurationError",
    "CorruptCacheError",
    "DataError",
    "Dataset",
    "EncoderConfig",
    "FusionConfig",
    "FusionModel",
    "InvalidDatasetError",
    "LabelSchema",
    "LabelVector",
    "MockProvider",
    "ModelFormatError",
    "Prediction",
    "Predictions",
    "ProviderConfig",
    "ProviderUnavailableError",
    "RunStateError",
    "ScoreFusionError",
    "StaleCacheError",
    "TaskMode",
    "UnknownTextError",
    "compute_metrics",
    "evaluate",
    "evaluate_as_run",
    "fit",
    "fit_encoder_baseline",
    "fusion_backward",
    "fusion_forward",
    "grad_loss_multiclass",
    "grad_loss_multilabel",
    "init_fusion_params",
    "llm_only_predict",
    "loss_multiclass",
    "loss_multilabel",
    "load_model",
    "make_complementary_data",
    "make_dataset",
    "parse_scores",
    "predict",
    "predict_encoder_baseline",
    "save_model",
    "score_batch",
    "sigmoid",
    "softmax",
    "write_mock_table",
]
