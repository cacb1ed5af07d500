import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel import tensorio
from strel.classifier import (
    ModelParams,
    class_weights,
    forward_probs,
    init_params,
    sgd_step,
    weighted_ce_grads,
)
from strel.config import RunConfig
from strel.errors import ConfigError, ValidationError
from strel.labels import BG_INDEX, Dataset, annotated_counts
from strel.metrics import AssignmentRecord
from strel.rngs import stream
from strel.selftrain import (
    POLICIES,
    assign_pseudo_labels,
    load_checkpoint,
    partition_batch,
    run,
    save_checkpoint,
    three_term_loss,
)
from strel.thresholds import Thresholds

from _oracles import brute_force_selection, build_catalog, compile_split, gradient_relative_error
from conftest import build_scene


def make_dataset(n_scenes=12, labels=(1, 2, 1, 0), observed=None, n_fg=2, seed=0):
    rng = np.random.default_rng(seed)
    arrays = compile_split(
        build_scene(i, list(labels), rng=rng, observed=list(observed) if observed else None)
        for i in range(n_scenes)
    )
    counts = annotated_counts(arrays.observed, n_fg)
    catalog = build_catalog({f"c{i}": max(c, 1) for i, c in enumerate(counts)})
    return Dataset(arrays, catalog, split="train")


def keys_for(*scenes):
    """One (scene, pair index) candidate key per pair of the given scenes."""
    return np.array([(s.scene_id, i) for s in scenes for i in range(len(s.triplets))])


def open_state(n_fg, tau=0.0):
    return Thresholds("fixed-class", np.full(n_fg, float(tau)), np.ones(n_fg, dtype=bool))


def never_state(n_fg):
    return Thresholds("never", np.ones(n_fg), np.zeros(n_fg, dtype=bool))


class TestPartitionBatch:
    def test_definitional_split(self, scene_factory):
        scene = scene_factory(0, [1, 0, 2, 0], observed=[1, 0, 2, 0])
        annotated, unannotated = partition_batch(compile_split([scene]).observed)
        assert annotated == [0, 2] and unannotated == [1, 3]

    def test_fully_annotated_batch(self, scene_factory):
        scene = scene_factory(0, [1, 2])
        annotated, unannotated = partition_batch(compile_split([scene]).observed)
        assert len(annotated) == 2 and unannotated == []

    def test_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(5)
        scenes = [
            build_scene(i, list(rng.integers(0, 3, size=4)), rng=rng) for i in range(8)
        ]
        observed = compile_split(scenes).observed
        annotated, unannotated = partition_batch(observed)
        assert not set(annotated) & set(unannotated)
        assert sorted(annotated + unannotated) == list(range(len(observed)))
        assert np.all(observed[annotated] != BG_INDEX)
        assert np.all(observed[unannotated] == BG_INDEX)

    def test_sparse_masking_ratio(self):
        ds = make_dataset(n_scenes=250, labels=[1] * 4, observed=None)
        from strel.synthgen import mask_annotations

        masked = mask_annotations(ds, 0.045, seed=3)
        annotated, unannotated = partition_batch(masked.arrays.observed)
        assert len(annotated) == 45 and len(unannotated) == 955


class TestAssignPseudoLabels:
    def test_cap_keeps_highest_confidence(self, scene_factory):
        scene = scene_factory(0, [1] * 5, observed=[0] * 5)
        conf = np.array([0.9, 0.8, 0.7, 0.95, 0.65])
        out = assign_pseudo_labels(keys_for(scene), np.ones(5, dtype=int), conf, open_state(1), cap=3)
        assert sorted(conf[out]) == [0.8, 0.9, 0.95]

    def test_cap_ties_keep_lowest_index(self, scene_factory):
        scene = scene_factory(0, [1] * 4, observed=[0] * 4)
        conf = np.array([0.5, 0.5, 0.5, 0.5])
        keys = keys_for(scene)[::-1]  # candidate order does not decide ties
        out = assign_pseudo_labels(keys, np.ones(4, dtype=int), conf, open_state(1), cap=2)
        assert sorted(keys[out, 1]) == [0, 1]

    def test_gate_blocks_candidates(self, scene_factory):
        scene = scene_factory(0, [1, 1], observed=[0, 0])
        out = assign_pseudo_labels(
            keys_for(scene), np.ones(2, dtype=int), np.array([0.9, 0.9]), open_state(1),
            cap=3, gates=[False, True],
        )
        assert list(out) == [1]

    def test_threshold_blocks_candidates(self, scene_factory):
        scene = scene_factory(0, [1, 1], observed=[0, 0])
        out = assign_pseudo_labels(
            keys_for(scene), np.ones(2, dtype=int), np.array([0.5, 0.9]), open_state(1, tau=0.7),
            cap=3,
        )
        assert list(out) == [1]

    def test_confidence_equal_to_tau_is_accepted(self, scene_factory):
        scene = scene_factory(0, [1], observed=[0])
        out = assign_pseudo_labels(
            keys_for(scene), np.ones(1, dtype=int), np.array([0.7]), open_state(1, tau=0.7), cap=1
        )
        assert list(out) == [0]

    def test_background_argmax_skipped(self, scene_factory):
        scene = scene_factory(0, [1], observed=[0])
        out = assign_pseudo_labels(
            keys_for(scene), np.zeros(1, dtype=int), np.array([0.99]), open_state(1), cap=3
        )
        assert len(out) == 0

    def test_empty_input(self):
        out = assign_pseudo_labels(np.zeros((0, 2)), np.zeros(0), np.zeros(0), open_state(1), cap=1)
        assert len(out) == 0

    def test_never_policy_accepts_nothing(self, scene_factory):
        scene = scene_factory(0, [1, 1], observed=[0, 0])
        out = assign_pseudo_labels(
            keys_for(scene), np.ones(2, dtype=int), np.array([0.9, 1.0]), never_state(1), cap=3
        )
        assert len(out) == 0

    def test_cap_is_per_scene_and_class(self):
        rng = np.random.default_rng(9)
        scenes = [build_scene(i, [1, 1, 2, 2, 2], rng=rng, observed=[0] * 5) for i in range(4)]
        keys = keys_for(*scenes)
        pred = np.array([t.hidden_label for s in scenes for t in s.triplets])
        conf = rng.uniform(0.5, 1.0, size=len(keys))
        out = assign_pseudo_labels(keys, pred, conf, open_state(2), cap=2)
        _, per_key = np.unique(np.stack([keys[out, 0], pred[out]], axis=1), axis=0, return_counts=True)
        assert per_key.max() <= 2

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from(["fixed-class", "never"]),
    )
    def test_matches_per_group_oracle(self, seed, cap, gated, variant):
        rng = np.random.default_rng(seed)
        n, n_fg = int(rng.integers(0, 40)), 3
        keys = np.stack([rng.integers(0, 4, size=n), rng.permutation(n)], axis=1)
        pred = rng.integers(0, n_fg + 1, size=n)
        conf = rng.choice([0.2, 0.5, 0.5, 0.8, 1.0], size=n)  # ties and conf == tau
        tau = rng.choice([0.0, 0.5, 0.8], size=n_fg)
        gates = rng.integers(0, 2, size=n).astype(bool) if gated else None
        state = Thresholds(variant, tau, np.full(n_fg, variant != "never"))
        out = assign_pseudo_labels(keys, pred, conf, state, cap, gates)
        expected = brute_force_selection(keys, pred, conf, tau, cap, gates, never=variant == "never")
        assert out.tolist() == expected


def crafted_three_instance_setup():
    """Model and one-hot rows hitting probabilities 0.5 / 0.5 / 0.7 by design."""
    # one-hot features select a weight row each, so rows are the wanted logits
    logits = np.array(
        [
            [math.log(0.25), math.log(0.5), math.log(0.25)],  # annotated, class 1
            [math.log(0.5), math.log(0.25), math.log(0.25)],  # background
            [math.log(0.15), math.log(0.15), math.log(0.7)],  # pseudo, class 2
        ]
    )
    params = ModelParams(arch="linear", layers=((logits.copy(), np.zeros(3)),))
    terms = dict(
        forward=forward_probs(params, np.eye(3)),
        annotated=(np.array([0]), np.array([1])),
        background=np.array([1]),
        pseudo=(np.array([2]), np.array([2])),
    )
    return params, terms


def empty_rows():
    return np.zeros(0, dtype=np.intp)


class TestThreeTermLoss:
    def test_hand_computed_sum(self):
        params, terms = crafted_three_instance_setup()
        total, _, breakdown = three_term_loss(params, **terms, weights=np.ones(3), beta=1.0)
        expected = 2.0 * math.log(2.0) - math.log(0.7)  # ln2 + ln2 + (-ln 0.7)
        assert total == pytest.approx(expected, abs=1e-12)
        assert breakdown.annotated == pytest.approx(math.log(2), abs=1e-12)
        assert breakdown.background == pytest.approx(math.log(2), abs=1e-12)
        assert breakdown.pseudo == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_beta_zero_drops_pseudo_term(self):
        params, terms = crafted_three_instance_setup()
        total, _, breakdown = three_term_loss(params, **terms, weights=np.ones(3), beta=0.0)
        assert total == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert breakdown.pseudo > 0.0  # reported, just unweighted

    def test_empty_pseudo_reduces_to_two_terms(self):
        params, terms = crafted_three_instance_setup()
        terms["pseudo"] = (empty_rows(), empty_rows())
        total, _, breakdown = three_term_loss(params, **terms, weights=np.ones(3), beta=1.0)
        assert breakdown.pseudo == 0.0
        assert total == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_total_is_exactly_the_weighted_sum(self):
        params, terms = crafted_three_instance_setup()
        for beta in (0.0, 0.3, 1.0, 2.5):
            total, _, bd = three_term_loss(params, **terms, weights=np.ones(3), beta=beta)
            assert total == bd.annotated + bd.background + beta * bd.pseudo
            assert bd.annotated >= 0.0 and bd.background >= 0.0 and bd.pseudo >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = stream(55, "ttl-grad")
        for trial in range(5):
            ds = make_dataset(n_scenes=2, labels=(1, 2, 1, 0), observed=(1, 0, 0, 0), seed=trial)
            arrays = ds.arrays
            annotated, unannotated = (np.array(p) for p in partition_batch(arrays.observed))
            terms = dict(
                annotated=(annotated, arrays.observed[annotated]),
                background=unannotated[2:],
                pseudo=(unannotated[:2], rng.integers(1, 3, size=2)),
            )
            params = init_params("mlp", 8, 3, hidden_dim=4, seed=trial)
            w = np.array([1.0, 1.3, 0.7])
            beta = 0.7

            def loss(p):
                return three_term_loss(p, forward_probs(p, arrays.features), **terms, weights=w, beta=beta)

            err = gradient_relative_error(loss(params)[1], lambda p: loss(p)[0], params)
            assert err <= 1e-4


def small_selftrain_config(**overrides):
    base = dict(
        max_iterations=12,
        batch_size=4,
        selftrain_learning_rate=0.3,
        selftrain_seed=5,
        bg_downsample=1.0,
        policy="catm",
        alpha_inc=0.4,
        alpha_dec=0.4,
    )
    base.update(overrides)
    return RunConfig(**base)


def masked_dataset(n_scenes=16, seed=1, labels=(1, 2, 1, 2)):
    ds = make_dataset(n_scenes=n_scenes, labels=labels, seed=seed, n_fg=max(labels))
    from strel.synthgen import mask_annotations, split

    masked = mask_annotations(ds, 0.25, seed=2)
    return split(masked, (0.6, 0.2, 0.2), seed=3)


class TestRun:
    def test_zero_iterations_is_identity(self):
        train, val, _ = masked_dataset()
        params = init_params("linear", 8, 3, seed=9)
        result = run(params, train, val, small_selftrain_config(max_iterations=0))
        for (w1, b1), (w2, b2) in zip(params.layers, result.params.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert result.log.iterations == ()

    def test_deterministic_replay(self):
        train, val, _ = masked_dataset()
        params = init_params("linear", 8, 3, seed=9)
        cfg = small_selftrain_config()
        a = run(params, train, val, cfg)
        b = run(params, train, val, cfg)
        assert a.log.iterations == b.log.iterations
        for (w1, _), (w2, _) in zip(a.params.layers, b.params.layers):
            assert np.array_equal(w1, w2)

    def test_snapshot_isolation_of_decisions(self):
        # every accepted confidence clears the threshold recorded one step earlier
        train, val, _ = masked_dataset(n_scenes=20)
        params = init_params("linear", 8, 3, seed=9)
        cfg = small_selftrain_config(max_iterations=20, initial_tau=0.0)
        result = run(params, train, val, cfg)
        tau_after = {r.iteration: r.tau for r in result.log.iterations}
        for a in result.assignments:
            if a.iteration == 0:
                previous = 0.0  # initial threshold
            else:
                previous = tau_after[a.iteration - 1][a.assigned_class - 1]
            assert a.confidence >= previous - 1e-12

    def test_cumulative_counts_are_consistent(self):
        train, val, _ = masked_dataset(n_scenes=20)
        params = init_params("linear", 8, 3, seed=9)
        result = run(params, train, val, small_selftrain_config(max_iterations=15))
        last = np.zeros(train.catalog.n_foreground, dtype=int)
        for rec in result.log.iterations:
            current = np.asarray(rec.cumulative_counts)
            assert np.all(current >= last)
            last = current
        assert last.sum() == len(result.assignments)

    def test_iteration_log_reads_as_records(self):
        train, val, _ = masked_dataset(n_scenes=20)
        params = init_params("linear", 8, 3, seed=9)
        log = run(params, train, val, small_selftrain_config(max_iterations=7)).log.iterations
        records = tuple(log)
        assert len(log) == len(records) == 7 and log == records and records == log
        assert log[-1] == records[-1] and log[2:5] == records[2:5] and log[::-2] == records[::-2]
        assert type(records[0].tau) is tuple and type(records[0].cumulative_counts) is tuple
        assert np.array_equal(log.tau, [r.tau for r in records])
        assert log != records[:-1]
        with pytest.raises(IndexError):
            log[7]

    def test_never_policy_equals_supervised_continuation(self):
        train, val, _ = masked_dataset(n_scenes=15)
        start = init_params("linear", 8, 3, seed=4)
        cfg = small_selftrain_config(
            policy="never", max_iterations=8, batch_size=5, bg_downsample=1.0, beta=1.0
        )
        result = run(start, train, val, cfg)

        # independent reference: one weighted cross-entropy step per batch
        # over the same deterministic batch stream, in batch row order, with
        # the annotated and background means as per-row coefficients
        w = class_weights(train.catalog, "none")
        params = start
        n = len(train.scenes)
        batches_per_epoch = math.ceil(n / cfg.batch_size)
        it = 0
        epoch = 0
        while it < cfg.max_iterations:
            order = stream(cfg.selftrain_seed, "epoch-order", epoch).permutation(n)
            for b in range(batches_per_epoch):
                if it >= cfg.max_iterations:
                    break
                scenes = [train.scenes[int(i)] for i in order[b * 5 : (b + 1) * 5]]
                batch = [t for s in scenes for t in s.triplets]
                y = np.array([t.observed_label for t in batch])
                ann = y != BG_INDEX
                coeffs = np.where(
                    ann, w[y] / max(ann.sum(), 1), w[BG_INDEX] / max((~ann).sum(), 1)
                )
                X = np.stack([t.features for t in batch])
                _, grads = weighted_ce_grads(params, forward_probs(params, X), y, coeffs)
                params = sgd_step(params, grads, cfg.selftrain_learning_rate)
                it += 1
            epoch += 1

        for (w1, b1), (w2, b2) in zip(result.params.layers, params.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert len(result.assignments) == 0

    def test_validation_required_for_quantile_policies(self):
        train, _, _ = masked_dataset()
        params = init_params("linear", 8, 3, seed=1)
        with pytest.raises(ConfigError):
            run(params, train, None, small_selftrain_config(policy="fixed-class"))

    def test_epoch_metrics_logged(self):
        train, val, _ = masked_dataset(n_scenes=20)
        params = init_params("linear", 8, 3, seed=9)
        result = run(params, train, val, small_selftrain_config(max_iterations=6), metric_ks=(2,))
        assert result.log.epochs
        for rec in result.log.epochs:
            r, mr, f = rec.metrics[2]
            assert 0 <= r <= 100 and 0 <= mr <= 100 and 0 <= f <= 100

    def test_gsl_gating_and_joint_training(self):
        train, val, _ = masked_dataset(n_scenes=20)
        params = init_params("linear", 8, 3, seed=9)
        cfg = small_selftrain_config(max_iterations=10, use_gsl=True)
        result = run(params, train, val, cfg, keep_edge_trace=True)
        assert result.edge_learner is not None
        assert result.edge_trace  # rows logged
        # gated acceptance: every assignment's pair had an on edge that iteration
        on = {
            (t.iteration, t.scene_id, t.triplet_index)
            for t in result.edge_trace
            if t.hard == 1
        }
        for a in result.assignments:
            assert (a.iteration, a.scene_id, a.triplet_index) in on

    @pytest.mark.parametrize("k", [5, 10])
    @pytest.mark.parametrize(
        "policy, use_gsl",
        [(p, False) for p in POLICIES] + [("catm", True)],
        ids=list(POLICIES) + ["catm+gsl"],
    )
    def test_checkpoint_resume_matches_straight_run(self, tmp_path, policy, use_gsl, k):
        # three foreground classes of unequal frequency, on which every policy
        # but never accepts labels before and after k; both intervals fire on
        # either side of k
        train, val, _ = masked_dataset(n_scenes=15, labels=(1, 1, 1, 1, 2, 2, 3, 0))
        start = init_params("linear", 8, 4, seed=4)
        cfg = small_selftrain_config(
            max_iterations=10, policy=policy, use_gsl=use_gsl,
            dash_interval=3, valid_recompute_interval=3,
        )
        full = run(start, train, val, cfg)
        accepted_at = full.assignments.iteration
        if policy != "never":
            assert np.any(accepted_at < 5) and np.any(accepted_at >= 5)

        half = run(start, train, val, dataclasses.replace(cfg, max_iterations=k))
        assert half.iteration == k
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, half)
        loaded = load_checkpoint(path)
        assert loaded.iteration == k and (loaded.edge_learner is not None) == use_gsl
        for state in (half, loaded):  # the run state in memory, and as read back
            resumed = run(state, train, val, cfg)
            assert resumed.iteration == 10
            layers = [full.params.layers, resumed.params.layers]
            if use_gsl:
                layers = [ls + r.edge_learner.net.layers for ls, r in zip(layers, (full, resumed))]
            for (w1, b1), (w2, b2) in zip(*layers, strict=True):
                assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
            assert full.log.iterations[k:] == resumed.log.iterations
            assert np.array_equal(full.counts, resumed.counts)
            later = accepted_at >= k
            for f in AssignmentRecord._fields:
                assert np.array_equal(getattr(full.assignments, f)[later],
                                      getattr(resumed.assignments, f))
        # resuming leaves its start as it was
        assert np.array_equal(half.counts, loaded.counts)
        assert np.array_equal(half.thresholds.tau, loaded.thresholds.tau)

    def test_resume_under_another_policy_is_rejected(self, tmp_path):
        train, val, _ = masked_dataset(n_scenes=15)
        start = init_params("linear", 8, 3, seed=4)
        half = run(start, train, val, small_selftrain_config(max_iterations=5))
        path = tmp_path / "catm.ckpt"
        save_checkpoint(path, half)
        ckpt = load_checkpoint(path)
        assert ckpt.thresholds.policy == "catm"
        for state in (half, ckpt):
            with pytest.raises(ValidationError, match="catm"):
                run(state, train, val, small_selftrain_config(policy="never"))

    MISFITS = {  # a run state and a config it cannot resume under, and the error's words
        "pretrained": (lambda r: r._replace(thresholds=None), {}, "holds no thresholds"),
        "edge-learner": (lambda r: r, {"use_gsl": True}, "saved without an edge learner"),
        "no-edge-learner": (lambda r: r, {}, "saved with an edge learner"),
        "past-max": (lambda r: r, {"max_iterations": 4}, "stopped at iteration 5"),
    }

    @pytest.mark.parametrize("case", MISFITS)
    def test_resume_of_a_state_that_does_not_fit_is_rejected(self, tmp_path, case):
        edit, fields, words = self.MISFITS[case]
        train, val, _ = masked_dataset(n_scenes=15)
        start = init_params("linear", 8, 3, seed=4)
        gsl = case == "no-edge-learner"
        save_checkpoint(tmp_path / "run.ckpt",
                        run(start, train, val, small_selftrain_config(max_iterations=5, use_gsl=gsl)))
        ckpt = edit(load_checkpoint(tmp_path / "run.ckpt"))
        with pytest.raises(ValidationError, match=words):
            run(ckpt, train, val, small_selftrain_config(**fields))


def same_array(a, b):
    """Equal dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_layers(a, b):
    return all(same_array(x, y) for wb_a, wb_b in zip(a, b, strict=True)
               for x, y in zip(wb_a, wb_b, strict=True))


class TestCheckpoint:
    @pytest.mark.parametrize("use_gsl", [False, True], ids=["plain", "gsl"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_self_train_run_round_trips_exactly(self, tmp_path, policy, use_gsl):
        train, val, _ = masked_dataset(n_scenes=15, labels=(1, 1, 1, 1, 2, 2, 3, 0))
        cfg = small_selftrain_config(
            max_iterations=7, policy=policy, use_gsl=use_gsl, dash_interval=3,
            valid_recompute_interval=3, focal_gamma=1.5,
        )
        result = run(init_params("mlp", 8, 4, hidden_dim=5, seed=4), train, val, cfg)
        save_checkpoint(tmp_path / "run.ckpt", result, {"config": {"policy": policy}})
        ckpt = load_checkpoint(tmp_path / "run.ckpt")

        assert same_layers(ckpt.params.layers, result.params.layers)
        got, want = ckpt.thresholds, result.thresholds
        assert (got.policy, got.step) == (want.policy, want.step)
        for name in ("tau", "accept", "lambda_inc", "lambda_dec", "base_tau"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or same_array(a, b), name
        assert ckpt.iteration == 7 and same_array(ckpt.counts, result.counts)
        meta = {"arch": "mlp", "iteration": 7, "thresholds.policy": policy,
                "thresholds.step": want.step, "config": {"policy": policy}}
        if use_gsl:
            assert same_layers(ckpt.edge_learner.net.layers, result.edge_learner.net.layers)
        else:
            assert ckpt.edge_learner is None
        assert ckpt.meta == meta
        save_checkpoint(tmp_path / "again.ckpt", ckpt, {"config": {"policy": policy}})
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "run.ckpt").read_bytes()

    def test_settings_that_earlier_versions_saved_are_ignored(self, tmp_path):
        """A checkpoint with meta ``seed``, ``edge.focal_gamma`` or
        ``edge.temperature`` loads as it does without them."""
        train, val, _ = masked_dataset(n_scenes=15)
        cfg = small_selftrain_config(max_iterations=5, use_gsl=True)
        save_checkpoint(tmp_path / "run.ckpt", run(init_params("linear", 8, 3, seed=4), train, val, cfg))
        tensors, meta = tensorio.load_tensors(tmp_path / "run.ckpt")
        old = {"seed": 5, "edge.focal_gamma": 1.5, "edge.temperature": 0.5}
        tensorio.save_tensors(tmp_path / "old.ckpt", tensors, {**meta, **old})
        want, got = load_checkpoint(tmp_path / "run.ckpt"), load_checkpoint(tmp_path / "old.ckpt")
        assert got.meta == {**want.meta, **old}
        assert same_layers(got.params.layers + got.edge_learner.net.layers,
                           want.params.layers + want.edge_learner.net.layers)
        assert got.iteration == want.iteration and same_array(got.counts, want.counts)
        assert same_array(got.thresholds.tau, want.thresholds.tau)
