import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strel import synthgen
from strel.classifier import ModelParams, sgd_step
from strel.config import RunConfig
from strel.edges import (
    SCORE_FLOOR,
    EdgeLearnerParams,
    edge_scores,
    focal_loss_grad,
    gumbel_noise,
    init_edge_learner,
    message_pass,
    sample_edges,
)
from strel.errors import ValidationError
from strel.labels import Entity, make_scene
from strel.rngs import stream

from _oracles import compile_split, dict_message_pass, gradient_relative_error, unique_entity_table
from conftest import build_shared_scene


def edge_score(learner, x_subject, x_object):
    return float(edge_scores(learner, np.concatenate([x_subject, x_object]))[0])


def bias_only_learner(logit, pair_dim=4):
    """Edge scorer that always outputs the given logit."""
    net = ModelParams(
        arch="mlp",
        layers=(
            (np.zeros((pair_dim, 3)), np.zeros(3)),
            (np.zeros((3, 1)), np.array([float(logit)])),
        ),
    )
    return EdgeLearnerParams(net=net)


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
        learner = init_edge_learner(pair_dim=6, seed=11)
        xs, xo = np.arange(3.0), np.arange(3.0)[::-1].copy()
        assert edge_score(learner, xs, xo) != edge_score(learner, xo, xs)

    def test_dimension_mismatch(self):
        learner = init_edge_learner(pair_dim=6, seed=0)
        with pytest.raises(ValidationError):
            edge_score(learner, np.zeros(2), np.zeros(2))


def gumbel_sample(score, noise):
    """One edge sample through the array entry point."""
    return sample_edges(np.array([score]), np.array([noise]))[0]


class TestGumbelSample:
    def test_boundary_noise_gives_hard_zero(self):
        s = 0.3
        assert gumbel_sample(s, noise=-math.log(s)).hard == 0  # strict > at the boundary

    def test_empirical_on_probability(self):
        # oracle: P(hard=1) = P(eps > -log s) = 1 - exp(-s) under Gumbel(0,1)
        s = 0.8
        rng = stream(12345, "gumbel-stat")
        noise = gumbel_noise(rng.random(100_000))
        hard = (np.log(s) + noise) > 0.0
        expected = 1.0 - math.exp(-s)
        assert abs(hard.mean() - expected) < 0.01
        samples = sample_edges(np.full(1000, s), gumbel_noise(stream(6, "x").random(1000)))
        assert 0.4 < np.mean([smp.hard for smp in samples]) < 0.7

    def test_replay_determinism(self):
        scores = np.array([0.2, 0.5, 0.9])
        original = sample_edges(scores, gumbel_noise(stream(9, "replay").random(3)))
        replayed = [gumbel_sample(o.score, noise=o.noise) for o in original]
        assert [o.hard for o in original] == [r.hard for r in replayed]

    def test_score_clipping(self):
        sample = gumbel_sample(0.0, noise=1.0)
        assert 0.0 < sample.score < 1.0

    def test_noise_length_checked(self):
        with pytest.raises(ValidationError):
            sample_edges(np.array([0.5, 0.5]), np.array([0.1]))


def clip(s):
    return np.clip(s, SCORE_FLOOR, 1.0 - SCORE_FLOOR)


class TestGate:
    def test_open_gate(self):
        assert gumbel_sample(0.9, noise=5.0).hard == 1

    def test_boundary_is_closed(self):
        s = 0.4
        assert gumbel_sample(s, noise=-math.log(s)).hard == 0

    def test_gate_equals_hard_bit(self):
        rng = stream(2, "gate")
        scores = rng.uniform(0.1, 0.9, size=50)
        samples = sample_edges(scores, gumbel_noise(rng.random(50)))
        np.testing.assert_array_equal(samples.hard, np.log(scores) + samples.noise > 0)
        assert [smp.hard for smp in samples] == samples.hard.tolist()

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        st.lists(st.floats(-30.0, 30.0), min_size=20, max_size=20),
    )
    def test_hard_is_one_comparison(self, scores, noise):
        """Each edge's gate is log(clip(s)) + e > 0, closed at e = -log(s)."""
        s = np.array(scores)
        e = np.array(noise[: len(s)])
        at_boundary = -np.log(clip(s))
        hard = sample_edges(s, e).hard
        np.testing.assert_array_equal(hard, (np.log(clip(s)) + e > 0).astype(np.intp))
        assert not sample_edges(s, at_boundary).hard.any()


class TestFocalLoss:
    def test_positive_term_hand_case(self):
        # y=1, s=0.5, gamma=2: -0.25 * log(0.5); the negative term vanishes at y=1
        learner = bias_only_learner(0.0)
        loss, _ = focal_loss_grad(learner, np.zeros((1, 4)), np.array([1.0]), 2.0)
        assert loss == pytest.approx(-0.25 * math.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.173287, abs=5e-7)

    def test_perfect_positive_vanishes(self):
        learner = bias_only_learner(40.0)
        loss, _ = focal_loss_grad(learner, np.zeros((1, 4)), np.array([1.0]), 2.0)
        assert loss < 1e-10

    def test_gamma_zero_symmetric_is_bce(self):
        rng = stream(8, "bce")
        learner = init_edge_learner(pair_dim=6, seed=5)
        X = rng.standard_normal((6, 6))
        y = rng.integers(0, 2, size=6).astype(float)
        loss, _ = focal_loss_grad(learner, X, y, 0.0)
        s = edge_scores(learner, X)
        bce = -np.sum(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert loss == pytest.approx(bce, rel=1e-12)

    def test_binary_labels_enforced(self):
        learner = init_edge_learner(pair_dim=4, seed=0)
        with pytest.raises(ValidationError):
            focal_loss_grad(learner, np.zeros((1, 4)), np.array([0.5]), 2.0)

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = stream(21, "focal-grad", gamma, 0)
        learner = init_edge_learner(pair_dim=6, hidden_dim=4, seed=13)
        X = rng.standard_normal((5, 6))
        y = rng.integers(0, 2, size=5).astype(float)
        _, grads = focal_loss_grad(learner, X, y, gamma)

        def loss_fn(net):
            return focal_loss_grad(EdgeLearnerParams(net=net), X, y, gamma)[0]

        assert gradient_relative_error(grads, loss_fn, learner.net) <= 1e-4

    def test_all_positive_training_drives_scores_up(self):
        rng = stream(31, "drive")
        learner = init_edge_learner(pair_dim=4, hidden_dim=4, seed=17)
        X = rng.standard_normal((8, 4))
        y = np.ones(8)
        losses = []
        for _ in range(60):
            loss, grads = focal_loss_grad(learner, X, y, 0.0)
            losses.append(loss)
            learner = EdgeLearnerParams(net=sgd_step(learner.net, grads, 0.1))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert np.all(edge_scores(learner, X) > 0.9)


def split_message_pass(scenes, flags):
    arrays = compile_split(scenes)
    every = np.arange(len(arrays.scene_ids))
    batch = arrays.batches(every, len(every), entities=True)[0]
    return message_pass(arrays.entity_features[batch.entities], batch.subject, batch.object,
                        np.asarray(flags))


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

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**31 - 1), batch_size=st.integers(1, 6), data=st.data())
    def test_scene_tables_equal_the_sorted_table_on_generated_splits(self, seed, batch_size, data):
        """Message passing over a batch's entity table read from the entity
        offsets (every entity of its scenes, in batch order) gives bit for
        bit what it gives over the table of the entities its pairs name,
        sorted: the planned batches of training and evaluation's blocks."""
        rc = RunConfig(n_scenes=16, entities_min=2, entities_max=6, gen_seed=seed)
        arrays = synthgen.generate(rc).arrays
        n, rng = len(arrays.scene_ids), np.random.default_rng(seed)
        order = np.array(data.draw(st.permutations(range(n))))
        first = data.draw(st.integers(0, (n - 1) // batch_size))  # the batch a resume starts at
        for batch in arrays.batches(order[first * batch_size :], batch_size, entities=True):
            hard = rng.integers(0, 2, size=len(batch.rows))
            want = message_pass(*unique_entity_table(arrays, batch.rows), hard)
            got = message_pass(arrays.entity_features[batch.entities], batch.subject,
                               batch.object, hard)
            assert got.tobytes() == want.tobytes()
        # evaluation's plan: blocks of consecutive scenes in split order
        block_size = data.draw(st.integers(1, n))
        for block in arrays.batches(np.arange(n), block_size, entities=True):
            hard = rng.integers(0, 2, size=len(block.rows))
            want = message_pass(*unique_entity_table(arrays, block.rows), hard)
            got = message_pass(arrays.entity_features[block.entities], block.subject,
                               block.object, hard)
            assert got.tobytes() == want.tobytes()
