import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.classifier import (
    ModelParams,
    balanced_resample,
    class_weights,
    downsample_background,
    init_params,
    pretrain,
    predict_probs,
    sgd_step,
    softmax,
    supervised_loss_grad,
    weighted_ce_loss_grad,
    zero_grads,
)
from strel.config import RunConfig
from strel.errors import RuntimeAbort, ValidationError
from strel.labels import Dataset
from strel.rngs import stream
from strel.selftrain import load_checkpoint, save_checkpoint

from _oracles import build_catalog, compile_split, gradient_relative_error
from conftest import build_scene


def linear_params(weights, bias):
    return ModelParams(
        arch="linear",
        layers=((np.asarray(weights, dtype=np.float64), np.asarray(bias, dtype=np.float64)),),
    )


class TestForward:
    def test_zero_model_is_uniform(self):
        params = linear_params(np.zeros((2, 3)), np.zeros(3))
        p = predict_probs(params, np.array([[0.3, -0.4]]))[0]
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-15)

    def test_hand_softmax(self):
        # bias-only model: logits (0, ln 2, ln 4) -> probs (1/7, 2/7, 4/7)
        params = linear_params(np.zeros((1, 3)), [0.0, math.log(2), math.log(4)])
        p = predict_probs(params, np.zeros((1, 1)))[0]
        np.testing.assert_allclose(p, [1 / 7, 2 / 7, 4 / 7], rtol=1e-12)

    def test_dimension_mismatch(self):
        params = linear_params(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValidationError):
            predict_probs(params, np.zeros((1, 5)))

    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
        st.floats(min_value=-50, max_value=50),
    )
    def test_shift_invariance(self, logits, c):
        z = np.asarray(logits)
        np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-300, max_value=300), min_size=2, max_size=8)
    )
    def test_output_is_a_distribution(self, logits):
        p = softmax(np.asarray(logits))
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestSupervisedLoss:
    def test_half_probability_gives_ln2(self):
        # two classes, zero model: true-class probability 0.5
        params = linear_params(np.zeros((1, 2)), np.zeros(2))
        loss, _ = supervised_loss_grad(params, np.zeros((1, 1)), np.array([1]), np.ones(2))
        assert abs(loss - math.log(2)) < 1e-12

    def test_perfect_prediction_gives_zero(self):
        params = linear_params(np.zeros((1, 2)), [-40.0, 40.0])
        loss, _ = supervised_loss_grad(params, np.zeros((1, 1)), np.array([1]), np.ones(2))
        assert loss < 1e-10

    def test_empty_batch(self):
        params = linear_params(np.zeros((2, 3)), np.zeros(3))
        loss, grads = supervised_loss_grad(params, np.zeros((0, 2)), np.zeros(0, int), np.ones(3))
        assert loss == 0.0
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_background_rejected(self):
        params = linear_params(np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            supervised_loss_grad(params, np.zeros((1, 1)), np.array([0]), np.ones(2))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_gradient_matches_finite_differences(self, arch):
        rng = stream(99, "grad-test", arch)
        for trial in range(10):
            params = init_params(arch, 4, 3, hidden_dim=3, seed=int(rng.integers(1 << 30)))
            X = rng.standard_normal((5, 4))
            y = rng.integers(0, 3, size=5)
            w = rng.uniform(0.5, 2.0, size=3)
            coeffs = w[y] / len(y)
            _, grads = weighted_ce_loss_grad(params, X, y, coeffs)
            err = gradient_relative_error(
                grads, lambda p: weighted_ce_loss_grad(p, X, y, coeffs)[0], params
            )
            assert err <= 1e-4


class TestSgdStep:
    def test_zero_learning_rate(self):
        params = linear_params([[1.0]], [2.0])
        grads = ((np.array([[3.0]]), np.array([4.0])),)
        out = sgd_step(params, grads, 0.0)
        np.testing.assert_array_equal(out.layers[0][0], [[1.0]])

    def test_arithmetic(self):
        params = linear_params([[1.0]], [0.0])
        grads = ((np.array([[2.0]]), np.array([0.0])),)
        out = sgd_step(params, grads, 0.1)
        assert out.layers[0][0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_two_half_steps_equal_one_step(self):
        params = linear_params([[1.0, -2.0]], [0.5, 0.5])
        grads = ((np.array([[2.0, 1.0]]), np.array([-1.0, 3.0])),)
        once = sgd_step(params, grads, 0.2)
        twice = sgd_step(sgd_step(params, grads, 0.1), grads, 0.1)
        np.testing.assert_allclose(twice.layers[0][0], once.layers[0][0], atol=1e-12)
        np.testing.assert_allclose(twice.layers[0][1], once.layers[0][1], atol=1e-12)

    def test_non_finite_gradient_aborts(self):
        params = linear_params([[1.0]], [0.0])
        grads = ((np.array([[np.nan]]), np.array([0.0])),)
        with pytest.raises(RuntimeAbort):
            sgd_step(params, grads, 0.1)


class TestClassWeights:
    def test_none_scheme(self, tiny_catalog):
        np.testing.assert_array_equal(class_weights(tiny_catalog, "none"), np.ones(4))

    def test_inverse_frequency_matches_hand_arithmetic(self, tiny_catalog):
        # oracle: raw = 1/counts, normalized to mean 1 over foreground classes
        raw = np.array([1 / 50, 1 / 40, 1 / 10])
        expected = raw / raw.mean()
        w = class_weights(tiny_catalog, "inverse-frequency")
        assert w[0] == 1.0  # background weight pinned
        np.testing.assert_allclose(w[1:], expected, rtol=1e-12)
        assert abs(w[1:].mean() - 1.0) < 1e-12

    def test_weights_proportional_to_inverse_count(self, tiny_catalog):
        w = class_weights(tiny_catalog, "inverse-frequency")
        products = w[1:] * np.asarray(tiny_catalog.counts)
        np.testing.assert_allclose(products, products[0], rtol=1e-12)

    def test_symmetric_counts(self):
        cat = build_catalog({"a": 10, "b": 10})
        np.testing.assert_array_equal(class_weights(cat, "inverse-frequency"), np.ones(3))

    def test_zero_count_capped(self):
        from strel.labels import PredicateCatalog

        cat = PredicateCatalog(("bg", "a", "b"), (10, 0))
        w = class_weights(cat, "inverse-frequency")
        assert w[2] == 100.0


def separable_dataset(n_scenes=30):
    """Two well-separated foreground classes, fully annotated."""
    rng = np.random.default_rng(5)
    scenes = []
    from strel.labels import Entity, make_scene

    for sid in range(n_scenes):
        ents, pairs = [], []
        for j in range(3):
            label = 1 + (sid + j) % 2
            center = 4.0 if label == 1 else -4.0
            sid_e, oid_e = 2 * j, 2 * j + 1
            ents.append(Entity(sid_e, 0, center + 0.1 * rng.standard_normal(2)))
            ents.append(Entity(oid_e, 0, center + 0.1 * rng.standard_normal(2)))
            pairs.append((sid_e, oid_e, label, label))
        scenes.append(make_scene(sid, ents, pairs))
    catalog = build_catalog({"pos": 2 * n_scenes, "neg": n_scenes})
    return Dataset(compile_split(scenes), catalog, split="train")


class TestPretrain:
    def test_separable_set_reaches_full_accuracy(self):
        train = separable_dataset()
        cfg = RunConfig(pretrain_learning_rate=0.5, pretrain_epochs=50, batch_size=10,
                        bg_downsample=1.0, pretrain_seed=1)
        params, _ = pretrain(train, cfg)
        pred = np.argmax(predict_probs(params, train.arrays.features), axis=1)
        assert np.array_equal(pred, train.arrays.observed)

    def test_deterministic_given_seed(self):
        train = separable_dataset(n_scenes=12)
        cfg = RunConfig(pretrain_epochs=5, batch_size=4, bg_downsample=1.0, pretrain_seed=77)
        p1, log1 = pretrain(train, cfg)
        p2, log2 = pretrain(train, cfg)
        for (w1, b1), (w2, b2) in zip(p1.layers, p2.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert [e.mean_loss for e in log1] == [e.mean_loss for e in log2]

    def test_logs_one_row_per_epoch(self):
        train = separable_dataset(n_scenes=8)
        cfg = RunConfig(pretrain_epochs=3, batch_size=4, bg_downsample=1.0, pretrain_seed=0)
        _, log = pretrain(train, cfg)
        assert [e.epoch for e in log] == [0, 1, 2]
        assert all(math.isfinite(e.mean_loss) for e in log)


class TestBatchHelpers:
    def test_balanced_resample_keeps_size_and_balances(self):
        rows, labels = np.arange(100, 112), np.array([1] * 9 + [2] * 3)
        out = balanced_resample(rows, labels, stream(0, "t"))
        assert len(out) == 12
        assert np.all(labels[out[:6] - 100] == 1) and np.all(labels[out[6:] - 100] == 2)

    def test_downsample_background_bounds(self):
        rows = np.arange(200, 240)
        out = downsample_background(rows, 0.25, stream(0, "d"))
        assert len(out) == 10 and np.all(np.diff(out) > 0) and set(out) <= set(rows)
        assert np.array_equal(downsample_background(rows, 1.0, stream(0, "d")), rows)
        tiny = downsample_background(rows[:2], 0.01, stream(0, "d"))
        assert len(tiny) == 1  # never drops the whole pool


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params("mlp", 6, 4, hidden_dim=5, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"note": "x"})
        loaded, thresholds, iteration, counts, meta, edge_learner = load_checkpoint(path)
        assert meta == {"arch": "mlp", "note": "x"}
        assert thresholds is iteration is counts is edge_learner is None  # a pretrained model
        for (w1, b1), (w2, b2) in zip(params.layers, loaded.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_params("linear", 4, 3, seed=1)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, {"k": 1})
        save_checkpoint(b, params, {"k": 1})
        assert a.read_bytes() == b.read_bytes()
