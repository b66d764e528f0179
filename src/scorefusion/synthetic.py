"""Synthetic complementary corpus for the fusion-beats-both experiment.

Construction: every row belongs to one of two disjoint subsets. Subset A
rows carry class-discriminative words (visible to the n-gram encoder) but
the mock LLM scores them uniformly. Subset B rows are noise-only text (no
surface signal) but the mock LLM scores them near-one-hot. An encoder-only
model is therefore blind on B, a score-only decision rule is blind on A,
and only a model fusing both signals can be right almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, LabelSchema, LabelVector, TaskMode, TextExample

LABELS_4 = ("alpha", "beta", "gamma", "delta")

# Per-class signature vocab: words whose character 3/4-grams identify the
# class. Disjoint from the noise vocab below.
_SIGNATURES = (
    ("crimson", "vermilion", "scarlet"),
    ("azure", "cobalt", "sapphire"),
    ("emerald", "viridian", "moss"),
    ("amber", "ochre", "marigold"),
)
_NOISE = (
    "report", "update", "item", "note", "entry", "record", "memo",
    "digest", "brief", "bulletin", "survey", "review", "summary",
    "outline", "draft", "log",
)


@dataclass(frozen=True)
class ComplementaritySplit:
    """Train/eval datasets plus the mock score table covering every text."""

    train: Dataset
    eval: Dataset
    mock_table: dict[str, tuple[float, ...]]


def _draw_unique(rng: np.random.Generator, make_text, used: set[str]) -> str:
    while True:
        text = make_text(rng)
        if text not in used:
            used.add(text)
            return text


def _signal_text(rng: np.random.Generator, class_index: int) -> str:
    sig = _SIGNATURES[class_index]
    s = rng.choice(len(sig), size=2, replace=False)
    n = rng.choice(len(_NOISE), size=3, replace=True)
    return (f"{_NOISE[n[0]]} {sig[s[0]]} {_NOISE[n[1]]} "
            f"{sig[s[1]]} {_NOISE[n[2]]}")


def _noise_text(rng: np.random.Generator) -> str:
    n = rng.choice(len(_NOISE), size=5, replace=True)
    return " ".join(_NOISE[i] for i in n)


def make_complementary_data(n_rows: int = 2000, k: int = 4,
                            encoder_fraction: float = 0.6,
                            eval_fraction: float = 0.5,
                            seed: int = 7) -> ComplementaritySplit:
    """Build the two-subset corpus, stratified 50/50 into train and eval.

    Rows are balanced across classes; within each class, encoder_fraction
    of the rows are subset A (signature words, uniform mock scores) and the
    rest are subset B (noise words, peaked mock scores). The split is
    stratified by (class, subset) so both halves keep the A/B structure.
    All texts are unique; the mock table covers every generated text.
    """
    if not 2 <= k <= len(_SIGNATURES):
        raise ValueError(f"k must lie in [2, {len(_SIGNATURES)}]")
    if n_rows % k != 0:
        raise ValueError("n_rows must divide evenly across classes")
    per_class = n_rows // k
    n_signal = int(round(encoder_fraction * per_class))

    rng = np.random.default_rng(seed)
    schema = LabelSchema(LABELS_4[:k])
    uniform = tuple(1.0 / k for _ in range(k))

    used: set[str] = set()
    mock_table: dict[str, tuple[float, ...]] = {}
    # (text, class_index, is_signal) per row, grouped per (class, subset)
    buckets: dict[tuple[int, bool], list[tuple[str, int]]] = {}
    for c in range(k):
        peaked = tuple(0.94 if j == c else 0.02 for j in range(k))
        for is_signal, count in ((True, n_signal), (False, per_class - n_signal)):
            rows = []
            for _ in range(count):
                if is_signal:
                    text = _draw_unique(
                        rng, lambda r: _signal_text(r, c), used)
                    mock_table[text] = uniform
                else:
                    text = _draw_unique(rng, _noise_text, used)
                    mock_table[text] = peaked
                rows.append((text, c))
            buckets[(c, is_signal)] = rows

    train_rows: list[TextExample] = []
    eval_rows: list[TextExample] = []
    for (c, _), rows in sorted(buckets.items()):
        order = rng.permutation(len(rows))
        n_eval = int(round(eval_fraction * len(rows)))
        for pos, idx in enumerate(order):
            text, cls = rows[idx]
            example = TextExample(text, LabelVector.from_index(cls, k))
            (eval_rows if pos < n_eval else train_rows).append(example)

    def shuffled(rows: list[TextExample]) -> list[TextExample]:
        return [rows[i] for i in rng.permutation(len(rows))]

    train = Dataset(schema, TaskMode.MULTI_CLASS, shuffled(train_rows))
    eval_ds = Dataset(schema, TaskMode.MULTI_CLASS, shuffled(eval_rows))
    return ComplementaritySplit(train, eval_ds, mock_table)
