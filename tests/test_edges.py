import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.classifier import ModelParams, sgd_step
from strel.edges import (
    EdgeLearnerParams,
    edge_scores,
    focal_loss_grad,
    gumbel_noise,
    init_edge_learner,
    message_pass,
    sample_edges,
)
from strel.errors import ConfigError, ValidationError
from strel.labels import Entity, make_scene
from strel.rngs import stream

from _oracles import compile_split, dict_message_pass, gradient_relative_error
from conftest import build_shared_scene


def edge_score(learner, x_subject, x_object):
    return float(edge_scores(learner, x_subject, x_object)[0])


def bias_only_learner(logit, temperature=0.5, gamma=2.0, entity_dim=2):
    """Edge scorer that always outputs the given logit."""
    d = 2 * entity_dim
    net = ModelParams(
        arch="mlp",
        layers=(
            (np.zeros((d, 3)), np.zeros(3)),
            (np.zeros((3, 1)), np.array([float(logit)])),
        ),
    )
    return EdgeLearnerParams(net=net, temperature=temperature, focal_gamma=gamma)


class TestEdgeScore:
    def test_zero_network_scores_half(self):
        learner = bias_only_learner(0.0)
        assert edge_score(learner, np.zeros(2), np.zeros(2)) == 0.5

    def test_hand_sigmoid(self):
        learner = bias_only_learner(2.0)
        s = edge_score(learner, np.zeros(2), np.zeros(2))
        assert s == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert s == pytest.approx(0.880797, abs=5e-7)

    def test_concatenation_order_matters(self):
        learner = init_edge_learner(entity_dim=3, seed=11)
        xs, xo = np.arange(3.0), np.arange(3.0)[::-1].copy()
        assert edge_score(learner, xs, xo) != edge_score(learner, xo, xs)

    def test_dimension_mismatch(self):
        learner = init_edge_learner(entity_dim=3, seed=0)
        with pytest.raises(ValidationError):
            edge_score(learner, np.zeros(2), np.zeros(2))


def gumbel_sample(score, temperature, noise):
    """One edge sample through the array entry point."""
    return sample_edges(np.array([score]), temperature, np.array([noise]))[0]


class TestGumbelSample:
    def test_boundary_noise_gives_hard_zero(self):
        s = 0.3
        sample = gumbel_sample(s, 0.5, noise=-math.log(s))
        assert sample.relaxed == pytest.approx(0.5, abs=1e-12)
        assert sample.hard == 0  # strict > comparison at the boundary

    def test_hard_decision_invariant_to_temperature(self):
        rng = stream(3, "eps")
        noises = gumbel_noise(rng.random(500))
        scores = stream(4, "s").uniform(0.05, 0.95, size=500)
        low = sample_edges(scores, 0.5, noises)
        high = sample_edges(scores, 5.0, noises)
        np.testing.assert_array_equal(low.hard, high.hard)
        assert np.all((low.relaxed != high.relaxed) | (low.relaxed == 0.5))

    def test_empirical_on_probability(self):
        # oracle: P(hard=1) = P(eps > -log s) = 1 - exp(-s) under Gumbel(0,1)
        s = 0.8
        rng = stream(12345, "gumbel-stat")
        noise = gumbel_noise(rng.random(100_000))
        hard = (np.log(s) + noise) > 0.0
        expected = 1.0 - math.exp(-s)
        assert abs(hard.mean() - expected) < 0.01
        samples = sample_edges(np.full(1000, s), 0.5, gumbel_noise(stream(6, "x").random(1000)))
        assert 0.4 < np.mean([smp.hard for smp in samples]) < 0.7

    def test_replay_determinism(self):
        scores = np.array([0.2, 0.5, 0.9])
        original = sample_edges(scores, 0.5, gumbel_noise(stream(9, "replay").random(3)))
        replayed = [gumbel_sample(o.score, 0.5, noise=o.noise) for o in original]
        assert [o.hard for o in original] == [r.hard for r in replayed]
        assert [o.relaxed for o in original] == [r.relaxed for r in replayed]

    def test_score_clipping(self):
        sample = gumbel_sample(0.0, 0.5, noise=1.0)
        assert 0.0 < sample.score < 1.0

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            gumbel_sample(0.5, 0.0, noise=0.1)

    def test_straight_through_matches_relaxation_slope(self):
        s, eps, temp = 0.37, 0.8, 0.5
        samples = sample_edges(np.array([s]), temp, np.array([eps]))
        h = 1e-7
        hi = gumbel_sample(s + h, temp, noise=eps).relaxed
        lo = gumbel_sample(s - h, temp, noise=eps).relaxed
        numeric = (hi - lo) / (2 * h)
        # d relaxed / d score = relaxed * (1 - relaxed) / (temperature * s)
        slope = samples.relaxed * (1.0 - samples.relaxed) / (temp * samples.score)
        assert slope[0] == pytest.approx(numeric, rel=1e-5)

    def test_noise_length_checked(self):
        with pytest.raises(ValidationError):
            sample_edges(np.array([0.5, 0.5]), 0.5, np.array([0.1]))


class TestGate:
    def test_open_gate(self):
        assert gumbel_sample(0.9, 0.5, noise=5.0).hard == 1

    def test_boundary_is_closed(self):
        s = 0.4
        assert gumbel_sample(s, 0.5, noise=-math.log(s)).hard == 0

    def test_gate_equals_hard_bit(self):
        rng = stream(2, "gate")
        samples = sample_edges(rng.uniform(0.1, 0.9, size=50), 0.5, gumbel_noise(rng.random(50)))
        np.testing.assert_array_equal(samples.hard, samples.relaxed > 0.5)
        assert [smp.hard for smp in samples] == samples.hard.tolist()


class TestFocalLoss:
    def test_positive_term_hand_case(self):
        # y=1, s=0.5, gamma=2: -0.25 * log(0.5)
        learner = bias_only_learner(0.0, gamma=2.0)
        loss, _ = focal_loss_grad(
            learner, np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]), positive_only=True
        )
        assert loss == pytest.approx(-0.25 * math.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.173287, abs=5e-7)

    def test_perfect_positive_vanishes(self):
        learner = bias_only_learner(40.0, gamma=2.0)
        loss, _ = focal_loss_grad(
            learner, np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]), positive_only=True
        )
        assert loss < 1e-10

    def test_gamma_zero_symmetric_is_bce(self):
        rng = stream(8, "bce")
        learner = init_edge_learner(entity_dim=3, seed=5, focal_gamma=0.0)
        xs = rng.standard_normal((6, 3))
        xo = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        loss, _ = focal_loss_grad(learner, xs, xo, y)
        s = edge_scores(learner, xs, xo)
        bce = -np.sum(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert loss == pytest.approx(bce, rel=1e-12)

    def test_binary_labels_enforced(self):
        learner = init_edge_learner(entity_dim=2, seed=0)
        with pytest.raises(ValidationError):
            focal_loss_grad(learner, np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.5]))

    @pytest.mark.parametrize("positive_only", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_gradient_matches_finite_differences(self, gamma, positive_only):
        rng = stream(21, "focal-grad", gamma, int(positive_only))
        learner = init_edge_learner(entity_dim=3, hidden_dim=4, seed=13, focal_gamma=gamma)
        xs = rng.standard_normal((5, 3))
        xo = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, size=5).astype(float)
        if positive_only:
            y[0] = 1.0  # keep the loss non-constant
        _, grads = focal_loss_grad(learner, xs, xo, y, positive_only)

        def loss_fn(net):
            swapped = EdgeLearnerParams(net=net, temperature=0.5, focal_gamma=gamma)
            return focal_loss_grad(swapped, xs, xo, y, positive_only)[0]

        assert gradient_relative_error(grads, loss_fn, learner.net) <= 1e-4

    def test_all_positive_training_drives_scores_up(self):
        rng = stream(31, "drive")
        learner = init_edge_learner(entity_dim=2, hidden_dim=4, seed=17, focal_gamma=0.0)
        xs = rng.standard_normal((8, 2))
        xo = rng.standard_normal((8, 2))
        y = np.ones(8)
        losses = []
        for _ in range(60):
            loss, grads = focal_loss_grad(learner, xs, xo, y)
            losses.append(loss)
            learner = EdgeLearnerParams(
                net=sgd_step(learner.net, grads, 0.1),
                temperature=learner.temperature,
                focal_gamma=learner.focal_gamma,
            )
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert np.all(edge_scores(learner, xs, xo) > 0.9)


def split_message_pass(scenes, flags):
    arrays = compile_split(scenes)
    ents, subj, obj = arrays.entity_table(np.arange(len(arrays.features)))
    return message_pass(ents, subj, obj, np.asarray(flags))


def scene_message_pass(scene, flags):
    return split_message_pass([scene], flags)


class TestMessagePass:
    def _scene(self, feats, pairs):
        ents = [Entity(i, 0, np.asarray(f, dtype=np.float64)) for i, f in enumerate(feats)]
        return make_scene(0, ents, pairs)

    def test_no_edges_is_identity(self):
        scene = self._scene([[1.0, 0.0], [0.0, 1.0]], [(0, 1, 1, 1)])
        out = scene_message_pass(scene, [0])
        np.testing.assert_array_equal(out, compile_split([scene]).features)

    def test_two_entity_edge_averages(self):
        scene = self._scene([[2.0, 0.0], [0.0, 4.0]], [(0, 1, 1, 1)])
        out = scene_message_pass(scene, [1])
        refined_subject = 0.5 * np.array([2.0, 0.0]) + 0.5 * np.array([0.0, 4.0])
        np.testing.assert_allclose(out[0][:2], refined_subject)
        np.testing.assert_allclose(out[0][2:], refined_subject)  # same average both ends

    def test_identical_features_are_a_fixed_point(self):
        f = [3.0, -1.0]
        scene = self._scene([f, f, f, f], [(0, 1, 1, 1), (2, 3, 2, 2), (0, 3, 0, 0)])
        out = scene_message_pass(scene, [1, 1, 1])
        np.testing.assert_allclose(out, compile_split([scene]).features)

    def test_flag_length_checked(self):
        scene = self._scene([[1.0], [2.0]], [(0, 1, 1, 1)])
        with pytest.raises(ValidationError):
            scene_message_pass(scene, [1, 0])

    @given(st.integers(0, 2**32 - 1))
    def test_matches_dict_oracle_with_shared_and_isolated_entities(self, seed):
        rng = np.random.default_rng(seed)
        scenes = [
            build_shared_scene(i, rng, int(rng.integers(2, 7)), int(rng.integers(1, 10)))
            for i in range(3)
        ]
        arrays = compile_split(scenes)
        flags = rng.integers(0, 2, size=len(arrays.features))
        out = split_message_pass(scenes, flags)
        expected = np.concatenate(
            [
                dict_message_pass(s, flags[lo:hi])
                for s, lo, hi in zip(scenes, arrays.scene_offsets, arrays.scene_offsets[1:])
            ]
        )
        np.testing.assert_array_equal(out, expected)
