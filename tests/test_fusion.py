"""Fusion MLP: init, forward/backward against finite differences, losses,
numerics, and the decision rule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefusion as sf
from scorefusion.core import ScoreVector
from scorefusion.fusion import (
    FusionParams,
    GradientBundle,
    batch_loss_and_dlogits,
    decide,
    fusion_step,
    grad_loss_multiclass,
    grad_loss_multilabel,
    probabilities,
)

MC = sf.TaskMode.MULTI_CLASS
ML = sf.TaskMode.MULTI_LABEL


class TestInit:
    def test_shapes_follow_layer_chain(self):
        params = sf.init_fusion_params(10, (8, 4), 3, seed=0)
        assert [w.shape for w in params.weights] == [(10, 8), (8, 4), (4, 3)]
        assert [b.shape for b in params.biases] == [(8,), (4,), (3,)]
        assert params.input_dim == 10 and params.output_dim == 3

    def test_glorot_bounds_and_zero_biases(self):
        params = sf.init_fusion_params(100, (50,), 10, seed=1)
        for w in params.weights:
            bound = math.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= bound)
            # and the draw actually uses the range, not some tighter one
            assert np.abs(w).max() > 0.8 * bound
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_seed_determinism(self):
        a = sf.init_fusion_params(6, (4,), 2, seed=9)
        b = sf.init_fusion_params(6, (4,), 2, seed=9)
        c = sf.init_fusion_params(6, (4,), 2, seed=10)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc)
                   for wa, wc in zip(a.weights, c.weights))

    def test_no_hidden_layers(self):
        params = sf.init_fusion_params(5, (), 3, seed=0)
        assert [w.shape for w in params.weights] == [(5, 3)]


def _hand_params():
    # 2-2-2 with exact binary-fraction literals, so expectations are exact
    return FusionParams(
        weights=[np.array([[1.0, -1.0], [2.0, 0.5]]),
                 np.array([[1.0, 0.0], [-1.0, 1.0]])],
        biases=[np.array([0.5, -1.0]), np.array([0.25, -0.25])],
    )


class TestForward:
    def test_hand_computed_two_layer(self):
        # x=[1,2]: z1=[5.5,-1], relu a1=[5.5,0], logits=[5.75,-0.25]
        logits, tape = sf.fusion_forward(np.array([1.0, 2.0]), _hand_params())
        assert logits.tolist() == [5.75, -0.25]
        assert tape.single
        assert tape.pre_activations[0].tolist() == [[5.5, -1.0]]
        assert tape.layer_inputs[1].tolist() == [[5.5, 0.0]]  # relu zeroed

    def test_batch_matches_single_rows(self):
        params = sf.init_fusion_params(4, (3,), 2, seed=3)
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(5, 4))
        batched, _ = sf.fusion_forward(batch, params)
        for i in range(5):
            single, _ = sf.fusion_forward(batch[i], params)
            # gemm kernels may reorder accumulation between shapes
            assert np.allclose(batched[i], single, rtol=1e-13, atol=1e-15)

    def test_width_mismatch(self):
        params = sf.init_fusion_params(4, (3,), 2, seed=3)
        with pytest.raises(ValueError, match="width"):
            sf.fusion_forward(np.zeros(5), params)


def _fd_param_grads(params, x, loss_fn, h=1e-6):
    """Central-difference gradients of loss_fn(forward(x)) for every tensor."""
    grads_w, grads_b = [], []
    for w in params.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn(sf.fusion_forward(x, params)[0])
            w[idx] = orig - h
            dn = loss_fn(sf.fusion_forward(x, params)[0])
            w[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        grads_w.append(g)
    for b in params.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss_fn(sf.fusion_forward(x, params)[0])
            b[idx] = orig - h
            dn = loss_fn(sf.fusion_forward(x, params)[0])
            b[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


class TestBackward:
    EMBED_DIM = 3  # first 3 of the 5 inputs play the embedding role

    def _setup(self):
        params = sf.init_fusion_params(5, (3,), 2, seed=42)
        x = np.random.default_rng(7).normal(size=5)
        _, tape = sf.fusion_forward(x, params)
        # kink guard: FD is only trustworthy away from the rectifier corner
        assert np.abs(tape.pre_activations[0]).min() > 1e-2
        return params, x, tape

    @pytest.mark.parametrize("mode", [MC, ML])
    def test_matches_finite_differences(self, mode):
        params, x, tape = self._setup()
        target = sf.LabelVector((1, 0))
        if mode is MC:
            loss_fn = lambda z: sf.loss_multiclass(z, 0)
            dlogits = grad_loss_multiclass(
                sf.fusion_forward(x, params)[0], 0)
        else:
            loss_fn = lambda z: sf.loss_multilabel(z, target)
            dlogits = grad_loss_multilabel(
                sf.fusion_forward(x, params)[0], target)
        bundle = sf.fusion_backward(tape, dlogits, self.EMBED_DIM, params)
        fd_w, fd_b = _fd_param_grads(params, x, loss_fn)
        for analytic, numeric in zip(bundle.weights, fd_w):
            assert np.allclose(analytic, numeric, atol=1e-7)
        for analytic, numeric in zip(bundle.biases, fd_b):
            assert np.allclose(analytic, numeric, atol=1e-7)

    def test_embedding_grad_matches_input_perturbation(self):
        params, x, tape = self._setup()
        dlogits = grad_loss_multiclass(sf.fusion_forward(x, params)[0], 1)
        bundle = sf.fusion_backward(tape, dlogits, self.EMBED_DIM, params)
        assert bundle.embedding_grad.shape == (self.EMBED_DIM,)
        h = 1e-6
        for j in range(self.EMBED_DIM):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            up = sf.loss_multiclass(sf.fusion_forward(xp, params)[0], 1)
            dn = sf.loss_multiclass(sf.fusion_forward(xm, params)[0], 1)
            assert bundle.embedding_grad[j] == pytest.approx(
                (up - dn) / (2 * h), abs=1e-7)

    def test_batch_gradients_are_mean_of_singles(self):
        params = sf.init_fusion_params(4, (3,), 2, seed=5)
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(6, 4))
        targets = np.array([(1, 0) if i % 2 == 0 else (0, 1)
                            for i in range(6)], dtype=np.float64)
        logits, tape = sf.fusion_forward(batch, params)
        _, dlogits = batch_loss_and_dlogits(logits, targets, MC)
        batch_bundle = sf.fusion_backward(tape, dlogits, 2, params)

        acc_w = [np.zeros_like(w) for w in params.weights]
        acc_b = [np.zeros_like(b) for b in params.biases]
        for i in range(6):
            zi, ti = sf.fusion_forward(batch[i], params)
            di = grad_loss_multiclass(zi, int(targets[i].argmax()))
            bi = sf.fusion_backward(ti, di, 2, params)
            for a, g in zip(acc_w, bi.weights):
                a += g / 6
            for a, g in zip(acc_b, bi.biases):
                a += g / 6
        for got, want in zip(batch_bundle.weights, acc_w):
            assert np.allclose(got, want, atol=1e-12)
        for got, want in zip(batch_bundle.biases, acc_b):
            assert np.allclose(got, want, atol=1e-12)

    def test_batch_loss_is_mean_of_singles(self):
        params = sf.init_fusion_params(4, (3,), 2, seed=5)
        batch = np.random.default_rng(2).normal(size=(4, 4))
        targets = np.array([(0, 1)] * 4, dtype=np.float64)
        logits, _ = sf.fusion_forward(batch, params)
        mean_loss, _ = batch_loss_and_dlogits(logits, targets, ML)
        singles = [sf.loss_multilabel(logits[i], sf.LabelVector((0, 1)))
                   for i in range(4)]
        assert mean_loss == pytest.approx(np.mean(singles), abs=1e-14)

    def test_none_tape_rejected(self):
        params = sf.init_fusion_params(3, (), 2, seed=0)
        with pytest.raises(ValueError, match="forward"):
            sf.fusion_backward(None, np.zeros(2), 1, params)


class TestFusionStep:
    def test_updates_in_place(self):
        params = sf.init_fusion_params(3, (2,), 2, seed=0)
        before = params.copy()
        grads = GradientBundle(
            weights=[np.ones_like(w) for w in params.weights],
            biases=[np.ones_like(b) for b in params.biases],
            embedding_grad=np.zeros(3),
        )
        out = fusion_step(params, grads, lr_high=0.1)
        assert out is params
        for w0, w1 in zip(before.weights, params.weights):
            assert np.allclose(w0 - 0.1, w1)
        for b0, b1 in zip(before.biases, params.biases):
            assert np.allclose(b0 - 0.1, b1)

    def test_shape_mismatch_rejected(self):
        params = sf.init_fusion_params(3, (2,), 2, seed=0)
        grads = GradientBundle(
            weights=[np.zeros((3, 3)), np.zeros((2, 2))],
            biases=[np.zeros(2), np.zeros(2)],
            embedding_grad=np.zeros(3),
        )
        with pytest.raises(ValueError, match="shape"):
            fusion_step(params, grads, 0.1)


class TestSoftmax:
    def test_sums_to_one(self):
        p = sf.softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0])
        assert np.allclose(sf.softmax(z), sf.softmax(z + 123.456), atol=1e-12)

    def test_extreme_logits_no_overflow(self):
        p = sf.softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_batched_rows(self):
        z = np.random.default_rng(0).normal(size=(7, 4)) * 10
        p = sf.softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                              allow_nan=False), min_size=2, max_size=8))
    def test_sum_property(self, logits):
        p = sf.softmax(np.array(logits))
        assert abs(p.sum() - 1.0) < 1e-9


class TestSigmoid:
    def test_known_values(self):
        assert sf.sigmoid(np.array(0.0)) == pytest.approx(0.5)
        assert sf.sigmoid(np.array(-1e4)) == 0.0
        assert sf.sigmoid(np.array(1e4)) == 1.0

    def test_symmetry(self):
        z = np.linspace(-20, 20, 41)
        assert np.allclose(sf.sigmoid(z) + sf.sigmoid(-z), 1.0, atol=1e-12)

    def test_no_warning_on_large_negatives(self):
        with np.errstate(over="raise"):
            out = sf.sigmoid(np.array([-1e3, -1e4]))
        assert np.all(out == 0.0) or np.all(out >= 0.0)


class TestLosses:
    def test_uniform_logits_multiclass_is_ln_k(self):
        for k in (2, 3, 5, 11):
            z = np.full(k, 3.7)  # any constant vector
            assert sf.loss_multiclass(z, 0) == pytest.approx(
                math.log(k), abs=1e-12)

    def test_zero_logits_multilabel_is_ln_2(self):
        for k in (1, 2, 4, 7):
            z = np.zeros(k)
            y = sf.LabelVector(tuple(i % 2 for i in range(k)))
            assert sf.loss_multilabel(z, y) == pytest.approx(
                math.log(2.0), abs=1e-12)

    def test_hand_values(self):
        # softmax([ln 3, 0]) = [3/4, 1/4]
        z = np.array([math.log(3.0), 0.0])
        assert sf.loss_multiclass(z, 0) == pytest.approx(math.log(4 / 3),
                                                         abs=1e-12)
        assert sf.loss_multiclass(z, 1) == pytest.approx(math.log(4.0),
                                                         abs=1e-12)
        # BCE at z=ln 3: sigmoid = 3/4; pair (y=1, y=0) -> mean of
        # ln(4/3) and ln 4
        z2 = np.array([math.log(3.0), math.log(3.0)])
        y = sf.LabelVector((1, 0))
        want = 0.5 * (math.log(4 / 3) + math.log(4.0))
        assert sf.loss_multilabel(z2, y) == pytest.approx(want, abs=1e-12)

    def test_huge_logits_stay_finite(self):
        z = np.array([1e4, -1e4])
        assert sf.loss_multiclass(z, 0) == pytest.approx(0.0, abs=1e-10)
        assert sf.loss_multiclass(z, 1) == pytest.approx(2e4, rel=1e-12)
        y1 = sf.LabelVector((1, 0))
        assert math.isfinite(sf.loss_multilabel(z, y1))
        assert sf.loss_multilabel(z, y1) == pytest.approx(0.0, abs=1e-10)
        y2 = sf.LabelVector((0, 1))
        assert sf.loss_multilabel(z, y2) == pytest.approx(1e4, rel=1e-12)

    def test_grads_match_finite_differences(self):
        z = np.array([0.7, -1.1, 0.3])
        h = 1e-6
        g = grad_loss_multiclass(z, 2)
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd = (sf.loss_multiclass(zp, 2) - sf.loss_multiclass(zm, 2)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-8)
        y = sf.LabelVector((1, 0, 1))
        g = grad_loss_multilabel(z, y)
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd = (sf.loss_multilabel(zp, y) - sf.loss_multilabel(zm, y)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-8)

    def test_multiclass_grad_sums_to_zero(self):
        g = grad_loss_multiclass(np.array([1.0, -2.0, 0.5]), 1)
        assert g.sum() == pytest.approx(0.0, abs=1e-12)

    def test_bad_target_index(self):
        with pytest.raises(IndexError):
            sf.loss_multiclass(np.zeros(3), 3)
        with pytest.raises(IndexError):
            grad_loss_multiclass(np.zeros(3), -1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sf.loss_multilabel(np.zeros(3), sf.LabelVector((1, 0)))

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_multiclass_loss_nonnegative(self, k, data):
        logits = data.draw(st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=k, max_size=k))
        target = data.draw(st.integers(min_value=0, max_value=k - 1))
        assert sf.loss_multiclass(np.array(logits), target) >= 0.0


class TestBatchLoss:
    @pytest.mark.parametrize("mode", [MC, ML])
    @pytest.mark.parametrize("k", [2, 3, 9, 17])
    def test_matches_single_row_loop_exactly(self, mode, k):
        """The batched loss and dlogits equal the per-row formulas bit for
        bit, with the mean summed in row order."""
        rng = np.random.default_rng(k)
        logits = rng.normal(scale=4.0, size=(7, k))
        if mode is MC:
            targets = np.eye(k)[rng.integers(0, k, size=7)]
        else:
            targets = rng.integers(0, 2, size=(7, k)).astype(np.float64)
        mean_loss, dlogits = batch_loss_and_dlogits(logits, targets, mode)
        total = 0.0
        for i in range(7):
            if mode is MC:
                t = int(targets[i].argmax())
                total += sf.loss_multiclass(logits[i], t)
                want = grad_loss_multiclass(logits[i], t)
            else:
                y = sf.LabelVector(tuple(int(b) for b in targets[i]))
                total += sf.loss_multilabel(logits[i], y)
                want = grad_loss_multilabel(logits[i], y)
            assert dlogits[i].tolist() == (want / 7).tolist()
        assert mean_loss == total / 7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_loss_and_dlogits(np.zeros((2, 3)), np.zeros((2, 2)), MC)


def _decide_scores(probs, mode, thresholds=0.5):
    """The per-row decision rule that the batched `decide` replaced, kept
    as its oracle: one vector of per-class scores in, one Prediction out."""
    k = probs.shape[-1]
    if mode is MC:
        winner = int(np.argmax(probs))
        bits = tuple(1 if i == winner else 0 for i in range(k))
    else:
        th = np.full(k, thresholds) if np.isscalar(thresholds) \
            else np.asarray(thresholds, dtype=np.float64)
        if th.shape[0] != k:
            raise ValueError(f"{th.shape[0]} thresholds for K={k}")
        bits = tuple(int(p >= t) for p, t in zip(probs, th))
    return sf.Prediction(ScoreVector(probs.tolist()), sf.LabelVector(bits))


def _decide_logits(logits, mode, **kw):
    """decide on the probabilities of a batch of logit rows."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return decide(probabilities(z, mode), mode, **kw)


# Scores and thresholds share values, so exact ties and scores equal to a
# threshold are drawn often.
_SHARED = st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.6, 1.0])
_SCORE = st.one_of(_SHARED, st.floats(0.0, 1.0))
_THRESHOLD = st.one_of(_SHARED.filter(lambda t: 0.0 < t < 1.0),
                       st.floats(0.01, 0.99))


class TestDecide:
    def test_batched_probabilities_match_rows(self):
        logits = np.random.default_rng(4).normal(scale=3.0, size=(5, 4))
        for mode in (MC, ML):
            batch = probabilities(logits, mode)
            for row, z in zip(batch, logits):
                assert row.tolist() == probabilities(z, mode).tolist()

    @given(st.integers(1, 9), st.integers(0, 12), st.sampled_from([MC, ML]),
           st.booleans(), st.data())
    @settings(max_examples=200)
    def test_matches_per_row_rule(self, k, n, mode, per_class, data):
        rows = data.draw(st.lists(st.lists(_SCORE, min_size=k, max_size=k),
                                  min_size=n, max_size=n))
        probs = np.array(rows, dtype=np.float64).reshape(n, k)
        th = tuple(data.draw(_THRESHOLD) for _ in range(k)) if per_class \
            else data.draw(_THRESHOLD)
        preds = decide(probs, mode, th)
        assert preds.scores.shape == preds.decided.shape == (n, k)
        assert preds.decided.dtype == bool
        want = [_decide_scores(row, mode, th) for row in probs]
        assert np.array_equal(
            preds.decided,
            np.array([w.decided.bits for w in want], dtype=bool).reshape(n, k))
        assert len(preds) == n
        for i in range(n):
            assert preds[i] == want[i]
            assert list(preds[i].scores.values) == probs[i].tolist()

    def test_multiclass_argmax(self):
        preds = _decide_logits([0.1, 2.0, -1.0], MC)
        assert preds[0].decided.bits == (0, 1, 0)
        assert np.flatnonzero(preds.decided[0]).tolist() == [1]
        assert sum(preds[0].scores.values) == pytest.approx(1.0)

    def test_multiclass_tie_breaks_low(self):
        preds = _decide_logits([0.0, 0.0], MC)
        assert preds[0].decided.bits == (1, 0)

    def test_multilabel_threshold_inclusive(self):
        # sigmoid(0) = 0.5 exactly; >= 0.5 must include it
        preds = _decide_logits([0.0, -5.0, 5.0], ML, thresholds=0.5)
        assert preds[0].decided.bits == (1, 0, 1)

    def test_multilabel_empty_set_allowed(self):
        preds = _decide_logits([-3.0, -3.0], ML, thresholds=0.5)
        assert preds[0].decided.bits == (0, 0)

    def test_per_class_thresholds(self):
        preds = _decide_logits([0.0, 0.0], ML, thresholds=(0.4, 0.6))
        assert preds[0].decided.bits == (1, 0)

    def test_threshold_length_mismatch(self):
        with pytest.raises(ValueError):
            _decide_logits(np.zeros(3), ML, thresholds=(0.5, 0.5))

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=6))
    def test_multiclass_decides_exactly_one(self, logits):
        preds = _decide_logits(logits, MC)
        assert sum(preds[0].decided.bits) == 1

    @pytest.mark.parametrize("mode", [MC, ML])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, mode, bad):
        probs = np.array([[0.2, 0.8], [bad, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            decide(probs, mode)


class TestFusionConfig:
    def test_defaults(self):
        cfg = sf.FusionConfig()
        assert cfg.hidden_sizes == (128,)
        assert cfg.threshold == 0.5

    def test_threshold_range(self):
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(threshold=0.0)
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(threshold=1.0)
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(threshold=(0.5, 1.5))

    def test_other_validation(self):
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(epochs=0)
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(train_batch_size=0)
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(lr_high=0.0)
        with pytest.raises(sf.ConfigurationError):
            sf.FusionConfig(hidden_sizes=(0,))

    _threshold = st.floats(0.01, 0.99)

    @given(hidden_sizes=st.lists(st.integers(1, 256), max_size=3),
           lr_high=st.floats(1e-9, 10.0), epochs=st.integers(1, 500),
           train_batch_size=st.integers(1, 512), seed=st.integers(0, 2 ** 32),
           threshold=_threshold | st.lists(_threshold, min_size=1,
                                           max_size=5).map(tuple))
    def test_dict_round_trip(self, hidden_sizes, lr_high, epochs,
                             train_batch_size, seed, threshold):
        cfg = sf.FusionConfig(hidden_sizes=tuple(hidden_sizes), lr_high=lr_high,
                              epochs=epochs, train_batch_size=train_batch_size,
                              seed=seed, threshold=threshold)
        doc = cfg.to_dict()
        assert doc["hidden_sizes"] == list(hidden_sizes)
        assert doc["threshold"] == (list(threshold)
                                    if isinstance(threshold, tuple)
                                    else threshold)
        assert sf.FusionConfig.from_dict(doc, "fusion") == cfg
