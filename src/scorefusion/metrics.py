"""Classification metrics from decided/target label vectors.

Accuracy is exact match in MULTI_CLASS mode and exact-set match (subset
accuracy, the strictest convention) in MULTI_LABEL mode. Per-label
precision/recall/F1 come from one-vs-rest confusion counts; the headline
aggregates are unweighted (macro) means, with micro-averaged variants kept
as extras. Zero-denominator precision/recall/F1 are 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DictCodec, LabelVector, TaskMode


@dataclass(frozen=True)
class LabelMetrics(DictCodec):
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport(DictCodec):
    accuracy: float
    precision: float
    recall: float
    f1: float
    per_label: tuple[LabelMetrics, ...]
    micro_precision: float
    micro_recall: float
    micro_f1: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bool_matrix(rows) -> np.ndarray:
    """An (n, K) 0/1 array or a sequence of LabelVectors as a bool matrix."""
    if isinstance(rows, np.ndarray):
        return rows.astype(bool)
    return np.array([v.bits for v in rows], dtype=bool)


def compute_metrics(decided: Sequence[LabelVector] | np.ndarray,
                    targets: Sequence[LabelVector] | np.ndarray,
                    mode: TaskMode,
                    label_names: Sequence[str] | None = None) -> MetricsReport:
    """Confusion-count metrics over parallel decided/target rows, given as
    LabelVector sequences or (n, K) 0/1 arrays."""
    d, t = _bool_matrix(decided), _bool_matrix(targets)
    if len(d) != len(t):
        raise ValueError(f"{len(d)} decisions vs {len(t)} targets")
    if not len(d):
        raise ValueError("metrics need at least one row")
    if d.ndim != 2 or d.shape != t.shape:
        raise ValueError("inconsistent label vector lengths")
    n, k = t.shape
    names = list(label_names) if label_names is not None \
        else [f"label_{i}" for i in range(k)]
    if len(names) != k:
        raise ValueError(f"{len(names)} label names for K={k}")

    accuracy = int((d == t).all(axis=1).sum()) / n
    tp = (d & t).sum(axis=0).tolist()
    fp = (d & ~t).sum(axis=0).tolist()
    fn = (~d & t).sum(axis=0).tolist()

    per_label = []
    for i in range(k):
        precision = _safe_div(tp[i], tp[i] + fp[i])
        recall = _safe_div(tp[i], tp[i] + fn[i])
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_label.append(LabelMetrics(names[i], precision, recall, f1,
                                      support=tp[i] + fn[i]))

    macro_p = sum(m.precision for m in per_label) / k
    macro_r = sum(m.recall for m in per_label) / k
    macro_f1 = sum(m.f1 for m in per_label) / k

    micro_p = _safe_div(sum(tp), sum(tp) + sum(fp))
    micro_r = _safe_div(sum(tp), sum(tp) + sum(fn))
    micro_f1 = _safe_div(2 * micro_p * micro_r, micro_p + micro_r)

    # mode only disambiguates documentation intent today; both modes share
    # the exact-match accuracy above.
    del mode

    return MetricsReport(
        accuracy=accuracy, precision=macro_p, recall=macro_r, f1=macro_f1,
        per_label=tuple(per_label),
        micro_precision=micro_p, micro_recall=micro_r, micro_f1=micro_f1,
    )
