"""The fusion head: a compact MLP over [embedding | per-provider scores]
with manual forward/backward, mode-specific losses, and the decision rule.

Conventions fixed here and relied on everywhere:
  - nonlinearity is the rectifier, with derivative 0 at exactly 0;
  - weights are (fan_in, fan_out), applied as `a @ W + b`;
  - init is uniform +-sqrt(6 / (fan_in + fan_out)), biases zero, seeded;
  - multi-label BCE is averaged over classes, so the fusion learning rate
    means the same thing for every K;
  - argmax ties break to the lowest index; thresholds are inclusive (>=).

LLM scores enter the input raw (already in [0, 1]) and receive no gradient:
backward returns the gradient for the embedding slice only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DictCodec, LabelVector, ScoreVector, TaskMode
from .errors import ConfigurationError


@dataclass(frozen=True)
class FusionConfig(DictCodec):
    """Fusion-head hyperparameters. lr_high is the fast rate of the
    two-rate scheme (the encoder trains at EncoderConfig.lr_small)."""

    hidden_sizes: tuple[int, ...] = (128,)
    lr_high: float = 1e-2
    epochs: int = 10
    train_batch_size: int = 32
    seed: int = 42
    threshold: float | tuple[float, ...] = 0.5

    def __post_init__(self):
        super().__post_init__()
        th = self.threshold
        th = tuple(map(float, th)) if isinstance(th, tuple) else float(th)
        object.__setattr__(self, "threshold", th)
        if not all(0.0 < t < 1.0 for t in np.atleast_1d(th)):
            raise ConfigurationError("thresholds must lie in (0, 1)")
        for name, least in (("seed", 0), ("epochs", 1),
                            ("train_batch_size", 1)):
            if getattr(self, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}")
        if not self.lr_high > 0:
            raise ConfigurationError("lr_high must be > 0")
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError("hidden sizes must be >= 1")

    def check_label_count(self, k: int) -> None:
        """A ConfigurationError unless a per-class threshold has k values."""
        if isinstance(self.threshold, tuple) and len(self.threshold) != k:
            raise ConfigurationError(f"fusion.threshold needs one value per "
                                     f"label ({k}), got {len(self.threshold)}")


@dataclass
class FusionParams:
    """Per-layer weight matrices and bias vectors.

    weights[i] has shape (fan_in_i, fan_out_i); the chain runs from the
    fused input width through hidden_sizes to K.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "FusionParams":
        return FusionParams([w.copy() for w in self.weights],
                            [b.copy() for b in self.biases])


def init_fusion_params(input_dim: int, hidden_sizes: Sequence[int], k: int,
                       seed: int) -> FusionParams:
    """Seeded Glorot-uniform weights, zero biases. A layer that cannot be
    allocated is a ConfigurationError naming its shape and bytes, not a
    numpy MemoryError."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden_sizes, k]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        try:
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        except MemoryError:
            raise ConfigurationError(
                f"the fusion layer of shape ({fan_in}, {fan_out}), "
                f"{8 * (fan_in + 1) * fan_out} bytes with its biases, "
                "cannot be allocated") from None
    return FusionParams(weights, biases)


@dataclass
class FusionTape:
    """Activations retained by forward for the matching backward pass."""

    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    single: bool


def forward(x: np.ndarray, params: FusionParams) -> tuple[np.ndarray, FusionTape]:
    """Affine -> rectifier per hidden layer, final affine to K logits.

    Accepts one input vector or a (n, input_dim) batch; logits match.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    a = arr.reshape(1, -1) if single else arr
    if a.shape[1] != params.input_dim:
        raise ValueError(
            f"input width {a.shape[1]} does not match params "
            f"({params.input_dim})"
        )
    layer_inputs = []
    pre_activations = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        layer_inputs.append(a)
        z = a @ w + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0)
    layer_inputs.append(a)
    logits = a @ params.weights[-1] + params.biases[-1]
    tape = FusionTape(layer_inputs, pre_activations, single)
    return (logits[0] if single else logits), tape


@dataclass
class GradientBundle:
    """Gradients for every fusion tensor plus the embedding slice of the
    input gradient (forwarded to the encoder's small-rate update)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    embedding_grad: np.ndarray


def backward(tape: FusionTape, dlogits: np.ndarray,
             embed_dim: int, params: FusionParams) -> GradientBundle:
    """Exact reverse-mode gradients of the scalar objective whose gradient
    at the logits is `dlogits`.

    For batched tapes, dlogits rows must already carry any 1/n factor; the
    parameter gradients are then gradients of the same scalar objective.
    The LLM-score slice of the input gradient is discarded by contract.
    """
    if tape is None:
        raise ValueError("forward must run before backward")
    delta = np.asarray(dlogits, dtype=np.float64)
    if tape.single:
        delta = delta.reshape(1, -1)
    weight_grads: list[np.ndarray] = [None] * len(params.weights)  # type: ignore
    bias_grads: list[np.ndarray] = [None] * len(params.biases)  # type: ignore
    for layer in range(len(params.weights) - 1, -1, -1):
        a_prev = tape.layer_inputs[layer]
        weight_grads[layer] = a_prev.T @ delta
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ params.weights[layer].T
            delta = delta * (tape.pre_activations[layer - 1] > 0.0)
    dinput = delta @ params.weights[0].T
    embedding_grad = dinput[:, :embed_dim]
    if tape.single:
        embedding_grad = embedding_grad[0]
    return GradientBundle(weight_grads, bias_grads, embedding_grad)


def fusion_step(params: FusionParams, grads: GradientBundle,
                lr_high: float) -> FusionParams:
    """Plain gradient descent at the high rate on every fusion parameter;
    every shape is checked before any parameter moves."""
    pairs = [*zip(params.weights, grads.weights),
             *zip(params.biases, grads.biases)]
    for p, g in pairs:
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} != parameter shape {p.shape}")
    for p, g in pairs:
        p -= lr_high * g
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _one_row(logits, target, mode: TaskMode) -> tuple[float, np.ndarray]:
    """batch_loss_and_dlogits on one row; `target` is a class index or a LabelVector."""
    z = np.asarray(logits, dtype=np.float64)
    if mode is TaskMode.MULTI_LABEL:
        y = np.asarray(target.bits, dtype=np.float64)
        if z.shape[-1] != y.shape[-1]:
            raise ValueError(f"logits length {z.shape[-1]} != target length {y.shape[-1]}")
    elif not 0 <= target < z.shape[-1]:
        raise IndexError(f"target index {target} out of range")
    else:
        y = np.arange(z.shape[-1]) == target
    loss, dlogits = batch_loss_and_dlogits(z[None], y[None], mode)
    return loss, dlogits[0]


def loss_multiclass(logits: np.ndarray, target_index: int) -> float:
    """-log softmax(logits)[target], computed via a max-subtracted
    log-sum-exp so huge logits cannot overflow."""
    return _one_row(logits, target_index, TaskMode.MULTI_CLASS)[0]


def grad_loss_multiclass(logits: np.ndarray, target_index: int) -> np.ndarray:
    """d loss_multiclass / d logits = softmax - one_hot(target)."""
    return _one_row(logits, target_index, TaskMode.MULTI_CLASS)[1]


def loss_multilabel(logits: np.ndarray, target: LabelVector) -> float:
    """Mean over classes of BCE(sigmoid(logit_k), y_k) in the stable logit
    form max(z,0) - z*y + log1p(exp(-|z|))."""
    return _one_row(logits, target, TaskMode.MULTI_LABEL)[0]


def grad_loss_multilabel(logits: np.ndarray, target: LabelVector) -> np.ndarray:
    """d loss_multilabel / d logits = (sigmoid(z) - y) / K."""
    return _one_row(logits, target, TaskMode.MULTI_LABEL)[1]


def batch_loss_and_dlogits(logits: np.ndarray, targets: np.ndarray,
                           mode: TaskMode) -> tuple[float, np.ndarray]:
    """Mean loss over a batch plus d(mean loss)/d logits, row per example.

    `targets` is the (B, K) 0/1 target matrix. The single-row loss_* and
    grad_loss_* functions are this on a one-row batch, and the mean is
    summed in row order, so the result matches a loop over them.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError(f"logits shape {z.shape} != targets shape {y.shape}")
    n, k = z.shape
    if mode is TaskMode.MULTI_CLASS:
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        s = e.sum(axis=1, keepdims=True)
        target_logit = z[np.arange(n), y.argmax(axis=1)]
        losses = (m + np.log(s))[:, 0] - target_logit
        dlogits = e / s - y
    else:
        per_class = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        losses = per_class.mean(axis=1)
        dlogits = (sigmoid(z) - y) / k
    return float(np.cumsum(losses)[-1] / n), dlogits / n


@dataclass(frozen=True)
class Prediction:
    """One row's per-class scores in [0, 1] plus its decided label set."""

    scores: ScoreVector
    decided: LabelVector


@dataclass(frozen=True, eq=False)
class Predictions:
    """The decisions for n rows: `scores` is the (n, K) float64 score
    matrix and `decided` the (n, K) bool decision matrix. `preds[i]` (and
    so iteration, which stops at the IndexError past the last row) builds
    row i's Prediction."""

    scores: np.ndarray
    decided: np.ndarray

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, i: int) -> Prediction:
        return Prediction(ScoreVector(self.scores[i].tolist()),
                          LabelVector(self.decided[i].tolist()))


def probabilities(logits: np.ndarray, mode: TaskMode) -> np.ndarray:
    """Per-class scores for one logit vector or a (n, K) batch: softmax
    for MULTI_CLASS, elementwise sigmoid for MULTI_LABEL."""
    z = np.asarray(logits, dtype=np.float64)
    return softmax(z) if mode is TaskMode.MULTI_CLASS else sigmoid(z)


def decide(probs: np.ndarray, mode: TaskMode,
           thresholds: float | Sequence[float] = 0.5) -> Predictions:
    """The decision rule on an (n, K) matrix of per-class scores in [0, 1].

    MULTI_CLASS: each row decides its argmax (lowest index wins ties).
    MULTI_LABEL: each row decides every class whose score is >= its
    threshold; the decided set may be empty.
    """
    scores = np.asarray(probs, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("score vector values must be finite")
    _, k = scores.shape
    if mode is TaskMode.MULTI_CLASS:
        decided = np.arange(k) == scores.argmax(axis=1)[:, None]
    else:
        th = np.asarray(thresholds, dtype=np.float64)
        if th.ndim and th.shape[0] != k:
            raise ValueError(f"{th.shape[0]} thresholds for K={k}")
        decided = scores >= th
    return Predictions(scores, decided)
