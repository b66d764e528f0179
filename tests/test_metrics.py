"""Metrics against hand-enumerated cases and a brute-force oracle."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.metrics import MetricsReport

MC = sf.TaskMode.MULTI_CLASS
ML = sf.TaskMode.MULTI_LABEL


def _lv(*bits):
    return sf.LabelVector(tuple(bits))


def _matrix(vectors):
    """LabelVector rows as the (n, K) 0/1 array form."""
    return np.array([v.bits for v in vectors], dtype=np.int64)


def _oracle(decided, targets):
    """Independent re-derivation: confusion counts per label via explicit
    enumeration, macro means, micro from pooled counts."""
    n, k = len(decided), len(targets[0])
    exact = sum(1 for d, t in zip(decided, targets) if tuple(d.bits) == tuple(t.bits))
    per = []
    tps = fps = fns = 0
    for i in range(k):
        tp = sum(1 for d, t in zip(decided, targets) if d.bits[i] == 1 and t.bits[i] == 1)
        fp = sum(1 for d, t in zip(decided, targets) if d.bits[i] == 1 and t.bits[i] == 0)
        fn = sum(1 for d, t in zip(decided, targets) if d.bits[i] == 0 and t.bits[i] == 1)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        per.append((p, r, f, tp + fn))
        tps, fps, fns = tps + tp, fps + fp, fns + fn
    micro_p = tps / (tps + fps) if tps + fps else 0.0
    micro_r = tps / (tps + fns) if tps + fns else 0.0
    micro_f = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    return {
        "accuracy": exact / n,
        "per": per,
        "macro_p": sum(p for p, _, _, _ in per) / k,
        "macro_r": sum(r for _, r, _, _ in per) / k,
        "macro_f": sum(f for _, _, f, _ in per) / k,
        "micro": (micro_p, micro_r, micro_f),
    }


class TestHandCases:
    def test_two_row_two_class(self):
        # row 0: predicted label 0, truth label 0 -> correct
        # row 1: predicted label 0, truth label 1 -> wrong
        decided = [_lv(1, 0), _lv(1, 0)]
        targets = [_lv(1, 0), _lv(0, 1)]
        rep = sf.compute_metrics(decided, targets, MC, ("a", "b"))
        assert rep.accuracy == 0.5
        a, b = rep.per_label
        # label a: tp=1 fp=1 fn=0 -> P=1/2 R=1 F1=2/3
        assert (a.precision, a.recall) == (0.5, 1.0)
        assert a.f1 == pytest.approx(2 / 3)
        assert a.support == 1
        # label b: never predicted, one true -> all zero by convention
        assert (b.precision, b.recall, b.f1) == (0.0, 0.0, 0.0)
        assert b.support == 1
        assert rep.f1 == pytest.approx(1 / 3)  # macro mean
        assert rep.precision == pytest.approx(0.25)
        assert rep.recall == pytest.approx(0.5)

    def test_perfect_predictions(self):
        rows = [_lv(1, 0, 0), _lv(0, 1, 0), _lv(0, 0, 1)]
        rep = sf.compute_metrics(rows, rows, MC)
        assert rep.accuracy == 1.0
        assert rep.f1 == 1.0
        assert rep.micro_f1 == 1.0
        assert all(m.f1 == 1.0 for m in rep.per_label)

    def test_multilabel_subset_accuracy_is_exact_match(self):
        decided = [_lv(1, 1), _lv(1, 0), _lv(0, 0)]
        targets = [_lv(1, 1), _lv(1, 1), _lv(0, 0)]
        rep = sf.compute_metrics(decided, targets, ML)
        # row 1 got one of two labels right but exact-match says wrong
        assert rep.accuracy == pytest.approx(2 / 3)

    def test_micro_differs_from_macro_under_imbalance(self):
        # label 0 dominant and easy, label 1 rare and always missed
        decided = [_lv(1, 0)] * 9 + [_lv(0, 0)]
        targets = [_lv(1, 0)] * 9 + [_lv(0, 1)]
        rep = sf.compute_metrics(decided, targets, ML)
        assert rep.f1 == pytest.approx(0.5)  # macro: (1 + 0) / 2
        # micro pools counts: tp=9, fp=0, fn=1
        assert rep.micro_precision == 1.0
        assert rep.micro_recall == pytest.approx(0.9)
        assert rep.micro_f1 == pytest.approx(2 * 0.9 / 1.9)

    def test_default_label_names(self):
        rep = sf.compute_metrics([_lv(1, 0)], [_lv(1, 0)], MC)
        assert [m.label for m in rep.per_label] == ["label_0", "label_1"]


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sf.compute_metrics([_lv(1, 0)], [], MC)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sf.compute_metrics([], [], MC)

    def test_ragged_vectors(self):
        with pytest.raises(ValueError):
            sf.compute_metrics([_lv(1, 0)], [_lv(1, 0, 0)], MC)

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            sf.compute_metrics([_lv(1, 0)], [_lv(1, 0)], MC, ("only-one",))


class TestSerialization:
    def test_round_trip(self):
        rep = sf.compute_metrics([_lv(1, 0), _lv(1, 0)],
                                 [_lv(1, 0), _lv(0, 1)], MC, ("a", "b"))
        doc = rep.to_dict()
        back = MetricsReport.from_dict(doc, "metrics")
        assert back == rep
        assert MetricsReport.from_dict(json.loads(json.dumps(doc)),
                                       "metrics") == rep


class TestOracleAgreement:
    def test_random_instances(self):
        rng = random.Random(20260819)
        for trial in range(200):
            n = rng.randint(1, 20)
            k = rng.randint(1, 4)
            mode = rng.choice([MC, ML])
            if mode is MC:
                decided = [_lv(*(1 if j == rng.randrange(k) else 0
                                 for j in range(k))) for _ in range(n)]
                targets = [_lv(*(1 if j == rng.randrange(k) else 0
                                 for j in range(k))) for _ in range(n)]
            else:
                decided = [_lv(*(rng.randint(0, 1) for _ in range(k)))
                           for _ in range(n)]
                targets = [_lv(*(rng.randint(0, 1) for _ in range(k)))
                           for _ in range(n)]
            rep = sf.compute_metrics(decided, targets, mode)
            assert sf.compute_metrics(_matrix(decided), _matrix(targets),
                                      mode) == rep
            want = _oracle(decided, targets)
            assert rep.accuracy == want["accuracy"]
            assert rep.precision == pytest.approx(want["macro_p"], abs=1e-15)
            assert rep.recall == pytest.approx(want["macro_r"], abs=1e-15)
            assert rep.f1 == pytest.approx(want["macro_f"], abs=1e-15)
            assert (rep.micro_precision, rep.micro_recall, rep.micro_f1) == \
                pytest.approx(want["micro"], abs=1e-15)
            for m, (p, r, f, s) in zip(rep.per_label, want["per"]):
                assert (m.precision, m.recall, m.f1, m.support) == \
                    pytest.approx((p, r, f, s), abs=1e-15)

    @pytest.mark.parametrize("decided, targets", [
        (np.ones((2, 3)), np.ones((3, 3))),
        (np.ones((2, 3)), np.ones((2, 2))),
        (np.ones((2, 3)), [_lv(1, 0, 0), _lv(0, 1, 0), _lv(0, 0, 1)]),
        ([_lv(1, 0), _lv(0, 1)], np.ones((2, 3))),
    ], ids=["rows", "k", "rows_mixed", "k_mixed"])
    def test_array_shape_mismatch(self, decided, targets):
        with pytest.raises(ValueError):
            sf.compute_metrics(decided, targets, ML)

    def test_array_supports_are_python_ints(self):
        decided = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        targets = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.float64)
        doc = sf.compute_metrics(decided, targets, ML).to_dict()
        assert [type(m["support"]) for m in doc["per_label"]] == [int, int]
        assert [m["support"] for m in doc["per_label"]] == [1, 2]
        json.dumps(doc)

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=60)
    def test_oracle_property(self, n, k, data):
        bits = st.tuples(*(st.integers(0, 1) for _ in range(k)))
        decided = [sf.LabelVector(data.draw(bits)) for _ in range(n)]
        targets = [sf.LabelVector(data.draw(bits)) for _ in range(n)]
        rep = sf.compute_metrics(decided, targets, ML)
        want = _oracle(decided, targets)
        assert rep.accuracy == want["accuracy"]
        assert rep.f1 == pytest.approx(want["macro_f"], abs=1e-15)
        assert 0.0 <= rep.accuracy <= 1.0
        assert 0.0 <= rep.f1 <= 1.0
