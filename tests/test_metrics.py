import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.errors import ValidationError
from strel.labels import BG_INDEX, Dataset, annotated_counts, build_catalog
from strel.metrics import (
    AssignmentRecord,
    audit_pseudo_labels,
    evaluate,
    f_at_k,
    per_class_recall_at_k,
    recall_at_k,
    split_predictions,
    tercile_groups,
)

from _oracles import (
    brute_force_per_class_recall,
    compile_split,
    brute_force_recall_at_k,
    dict_message_pass,
)
from conftest import build_scene, build_shared_scene


def sp(pred, scores, hidden):
    """One scene's (pred_classes, scores, hidden) arrays."""
    return (
        np.asarray(pred, dtype=np.intp),
        np.asarray(scores, dtype=np.float64),
        np.asarray(hidden, dtype=np.intp),
    )


def split_of(scenes):
    """The scenes' predictions laid out as one split."""
    offsets = np.cumsum([0] + [len(s[0]) for s in scenes])
    pred, scores, hidden = (np.concatenate(col) for col in zip(*scenes))
    return split_predictions(pred, scores, hidden, offsets)


def random_scene_predictions(rng, n_fg=4, max_pairs=6):
    n = int(rng.integers(1, max_pairs + 1))
    return sp(
        rng.integers(1, n_fg + 1, size=n),
        rng.random(n),
        rng.integers(0, n_fg + 1, size=n),
    )


class TestRecallAtK:
    def test_half_recovered(self):
        # truth on pairs 0 and 1; top-2 hits only pair 0
        scene = sp(pred=[1, 3, 2], scores=[0.9, 0.8, 0.7], hidden=[1, 2, 0])
        assert recall_at_k(split_of([scene]), 2) == 50.0

    def test_superset_gives_hundred(self):
        scene = sp(pred=[1, 2], scores=[0.5, 0.4], hidden=[1, 2])
        assert recall_at_k(split_of([scene]), 5) == 100.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            recall_at_k(split_of([sp([1], [0.5], [1])]), 0)

    def test_scene_without_truth_is_skipped(self):
        with_truth = sp([1], [0.9], [1])
        no_truth = sp([1, 2], [0.9, 0.8], [0, 0])
        assert recall_at_k(split_of([with_truth, no_truth]), 1) == 100.0

    def test_no_truth_anywhere_is_an_error(self):
        with pytest.raises(ValidationError):
            recall_at_k(split_of([sp([1], [0.5], [0])]), 1)

    def test_ties_break_by_pair_index(self):
        scene = sp(pred=[2, 1], scores=[0.5, 0.5], hidden=[0, 1])
        # top-1 must pick pair 0 (wrong), not pair 1
        assert recall_at_k(split_of([scene]), 1) == 0.0

    def test_matches_brute_force_on_random_scenes(self):
        rng = np.random.default_rng(404)
        scenes = [random_scene_predictions(rng) for _ in range(50)]
        for k in (1, 2, 4):
            assert recall_at_k(split_of(scenes), k) == pytest.approx(
                brute_force_recall_at_k(scenes, k), abs=1e-12
            )


class TestArrayFormsMatchPerSceneOracles:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_recall_and_per_class_recall(self, seed, k):
        rng = np.random.default_rng(seed)
        scenes = []
        for _ in range(int(rng.integers(1, 9))):
            n = int(rng.integers(0, 7))
            # few distinct scores, so ties inside a scene are common
            scenes.append(sp(rng.integers(1, 5, size=n), rng.choice([0.1, 0.5, 0.9], size=n),
                             rng.integers(0, 5, size=n)))
        preds = split_of(scenes)
        if not any(np.any(h != 0) for _, _, h in scenes):
            with pytest.raises(ValidationError):
                recall_at_k(preds, k)
            return
        assert recall_at_k(preds, k) == pytest.approx(brute_force_recall_at_k(scenes, k), abs=1e-9)
        brute = brute_force_per_class_recall(scenes, k, 4)
        ours = per_class_recall_at_k(preds, k, 4)
        for c in range(4):
            assert (math.isnan(ours[c]) if brute[c] is None else ours[c] == pytest.approx(brute[c]))

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_evaluate_with_shared_and_isolated_entities(self, seed, with_edges):
        from strel.classifier import init_params, predict_probs
        from strel.edges import edge_scores, init_edge_learner

        rng = np.random.default_rng(seed)
        scenes = tuple(
            build_shared_scene(i, rng, int(rng.integers(2, 6)), int(rng.integers(1, 8)))
            for i in range(int(rng.integers(1, 6)))
        )
        if not any(t.hidden_label for s in scenes for t in s.triplets):
            return
        catalog = build_catalog({"a": 3, "b": 2, "c": 1})
        params = init_params("linear", 6, 4, seed=seed % 97)
        edges = init_edge_learner(3, seed=seed % 89) if with_edges else None
        report = evaluate(params, Dataset(compile_split(scenes), catalog), (1, 3), edges)

        per_scene = []
        for scene in scenes:
            X = np.stack([t.features for t in scene.triplets])
            if edges is not None:
                flags = edge_scores(edges, X[:, :3], X[:, 3:]) > 0.5
                X = dict_message_pass(scene, flags)
            fg = predict_probs(params, X)[:, 1:]
            hidden = [t.hidden_label for t in scene.triplets]
            per_scene.append((1 + np.argmax(fg, axis=1), fg.max(axis=1), hidden))
        for row in report.rows:
            assert row.recall == pytest.approx(brute_force_recall_at_k(per_scene, row.k))
            brute = brute_force_per_class_recall(per_scene, row.k, 3)
            assert row.mean_recall == pytest.approx(np.mean([b for b in brute if b is not None]))


def mean_recall(preds, k, n_foreground):
    """Mean recall as ``evaluate`` reports it: the mean over classes with truth."""
    return float(np.nanmean(per_class_recall_at_k(preds, k, n_foreground)))


class TestMeanRecall:
    def test_two_class_average(self):
        scenes = [
            sp(pred=[1], scores=[0.9], hidden=[1]),  # class 1 recovered
            sp(pred=[1], scores=[0.9], hidden=[2]),  # class 2 missed
        ]
        assert mean_recall(split_of(scenes), 1, n_foreground=2) == 50.0

    def test_uniform_per_class_recall_collapses(self):
        scenes = [
            sp(pred=[1, 2], scores=[0.9, 0.8], hidden=[1, 2]),
            sp(pred=[1, 2], scores=[0.9, 0.8], hidden=[1, 2]),
        ]
        assert mean_recall(split_of(scenes), 2, 2) == 100.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        scenes = [random_scene_predictions(rng) for _ in range(40)]
        for k in (1, 3):
            ours = per_class_recall_at_k(split_of(scenes), k, 4)
            brute = brute_force_per_class_recall(scenes, k, 4)
            for c in range(4):
                if brute[c] is None:
                    assert math.isnan(ours[c])
                else:
                    assert ours[c] == pytest.approx(brute[c], abs=1e-12)
            expected_mean = np.mean([b for b in brute if b is not None])
            assert mean_recall(split_of(scenes), k, 4) == pytest.approx(expected_mean, abs=1e-12)

    def test_duplicating_head_instances_leaves_mean_recall_alone(self):
        base = [
            sp(pred=[1, 2], scores=[0.9, 0.8], hidden=[1, 2]),
        ]
        duplicated = base + [sp(pred=[1], scores=[0.9], hidden=[1])] * 5
        assert mean_recall(split_of(base), 2, 2) == mean_recall(split_of(duplicated), 2, 2)


class TestFAtK:
    def test_table_anchor_motif_row(self):
        assert abs(f_at_k(65.3, 17.8) - 28.0) <= 0.05

    def test_table_anchor_second_row(self):
        assert abs(f_at_k(50.8, 35.2) - 41.6) <= 0.05

    def test_equal_inputs_are_identity(self):
        for x in (0.0, 12.5, 100.0):
            assert f_at_k(x, x) == pytest.approx(x, abs=1e-12)

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_symmetry_and_range(self, r, mr):
        assert f_at_k(r, mr) == f_at_k(mr, r)
        assert 0.0 <= f_at_k(r, mr) <= 100.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            f_at_k(-1.0, 5.0)


class TestGroups:
    def test_tercile_split_of_ten(self):
        groups = tercile_groups(10)
        assert list(groups["head"]) == [0, 1, 2, 3]
        assert list(groups["body"]) == [4, 5, 6]
        assert list(groups["tail"]) == [7, 8, 9]


class TestEvaluate:
    def _dataset(self):
        rng = np.random.default_rng(3)
        arrays = compile_split(build_scene(i, [1, 2, 1, 0], rng=rng) for i in range(6))
        counts = annotated_counts(arrays.observed, 2)
        catalog = build_catalog({"a": counts[0], "b": counts[1]})
        return Dataset(arrays, catalog, split="val")

    def test_report_shape_and_ranges(self):
        from strel.classifier import init_params

        ds = self._dataset()
        params = init_params("linear", 8, 3, seed=0)
        report = evaluate(params, ds, ks=(1, 2))
        assert [row.k for row in report.rows] == [1, 2]
        for row in report.rows:
            assert 0.0 <= row.recall <= 100.0
            assert 0.0 <= row.mean_recall <= 100.0
            assert 0.0 <= row.f_score <= 100.0
            assert row.f_score == pytest.approx(f_at_k(row.recall, row.mean_recall))


class TestAudit:
    def _dataset(self, n_scenes=5):
        rng = np.random.default_rng(11)
        arrays = compile_split(
            build_scene(i, [1, 2, 3, 0], rng=rng, observed=[0, 0, 3, 0])
            for i in range(n_scenes)
        )
        counts = [max(c, 1) for c in annotated_counts(arrays.observed, 3)]
        catalog = build_catalog({"a": 30, "b": 20, "c": counts[2]})
        return Dataset(arrays, catalog, split="train")

    def _record(self, scene_id, index, cls):
        return AssignmentRecord(0, scene_id, index, cls, 0.9)

    def test_perfect_assignments(self):
        ds = self._dataset()
        records = [self._record(s, 0, 1) for s in range(5)] + [
            self._record(s, 1, 2) for s in range(5)
        ]
        audit = audit_pseudo_labels(records, ds)
        assert audit.precision[0] == 1.0 and audit.precision[1] == 1.0
        assert audit.bg_violations == 0
        assert audit.overall_precision == 1.0

    def test_true_background_violation_bookkeeping(self):
        ds = self._dataset()
        records = [self._record(0, 0, 1), self._record(0, 3, 1)]  # pair 3 is true bg
        audit = audit_pseudo_labels(records, ds)
        assert audit.bg_violations == 1
        assert audit.assigned[0] == 2  # denominator keeps the violation
        assert audit.correct[0] == 1
        assert audit.precision[0] == 0.5

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(202)
        ds = self._dataset(n_scenes=10)
        records = [
            AssignmentRecord(0, int(rng.integers(10)), int(rng.integers(4)),
                             int(rng.integers(1, 4)), 0.5)
            for _ in range(100)
        ]
        audit = audit_pseudo_labels(records, ds)
        # independent recount with plain dict bookkeeping
        assigned = {c: 0 for c in (1, 2, 3)}
        correct = {c: 0 for c in (1, 2, 3)}
        violations = 0
        scenes = {s.scene_id: s for s in ds.scenes}
        for r in records:
            t = scenes[r.scene_id].triplets[r.triplet_index]
            assigned[r.assigned_class] += 1
            if t.hidden_label == r.assigned_class:
                correct[r.assigned_class] += 1
            elif t.hidden_label == 0:
                violations += 1
        assert [assigned[c] for c in (1, 2, 3)] == list(audit.assigned)
        assert [correct[c] for c in (1, 2, 3)] == list(audit.correct)
        assert violations == audit.bg_violations

    def test_recall_uses_recoverable_pool(self):
        ds = self._dataset()
        audit = audit_pseudo_labels([self._record(0, 0, 1)], ds)
        assert audit.recoverable[0] == 5  # class 1 masked in every scene
        assert audit.recall[0] == pytest.approx(0.2)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_with_unordered_scene_ids(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.permutation(50)[:6]
        scenes = tuple(
            build_scene(int(sid), [1, 2, 3, 0], rng=rng, observed=list(rng.integers(0, 2, 4) * [1, 2, 3, 0]))
            for sid in ids
        )
        ds = Dataset(compile_split(scenes), build_catalog({"a": 30, "b": 20, "c": 10}))
        records = [
            AssignmentRecord(0, int(rng.choice(ids)), int(rng.integers(4)), int(rng.integers(1, 4)), 0.5)
            for _ in range(int(rng.integers(0, 30)))
        ]
        audit = audit_pseudo_labels(records, ds)
        by_id = {s.scene_id: s for s in scenes}
        hidden = [by_id[r.scene_id].triplets[r.triplet_index].hidden_label for r in records]
        for c in (1, 2, 3):
            assert audit.assigned[c - 1] == sum(r.assigned_class == c for r in records)
            assert audit.correct[c - 1] == sum(
                r.assigned_class == c == h for r, h in zip(records, hidden)
            )
            assert audit.recoverable[c - 1] == sum(
                t.observed_label == 0 and t.hidden_label == c for s in scenes for t in s.triplets
            )
        assert audit.bg_violations == hidden.count(0)

    def test_dangling_reference_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValidationError):
            audit_pseudo_labels([self._record(99, 0, 1)], ds)
        with pytest.raises(ValidationError):
            audit_pseudo_labels([self._record(0, 42, 1)], ds)
        with pytest.raises(ValidationError, match="foreground"):
            audit_pseudo_labels([self._record(0, 1, 0)], ds)
