"""Ranking metrics and the pseudo-label audit.

Evaluation mirrors predicate classification over given pairs: every pair in
a scene is scored by its best foreground probability (background never
enters the ranking), the top-K predictions per scene are intersected with
the hidden ground truth, and per-class recalls aggregate across the split.
All reported values are percentages in [0, 100].
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .classifier import ModelParams, predict_probs
from .errors import ValidationError
from .labels import BG_INDEX, Dataset

GROUP_NAMES = ("head", "body", "tail")
EVAL_BLOCK_SCENES = 128


@dataclass(frozen=True, eq=False)
class SplitPredictions:
    """Per-pair predicted foreground class, ranking score and hidden truth
    over a split, with each pair's scene position and its rank within the
    scene (0 = highest score; ties keep the lower pair index)."""

    pred_classes: np.ndarray
    scores: np.ndarray
    hidden: np.ndarray
    pair_scene: np.ndarray
    rank: np.ndarray


def split_predictions(pred_classes, scores, hidden, scene_offsets) -> SplitPredictions:
    """Rank the pairs of every scene; scene s owns rows
    ``scene_offsets[s]:scene_offsets[s + 1]``."""
    scores = np.asarray(scores, dtype=np.float64)
    offsets = np.asarray(scene_offsets, dtype=np.intp)
    pair_scene = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    order = np.lexsort((-scores, pair_scene))  # stable: ties keep row order
    rank = np.empty(len(scores), dtype=np.intp)
    rank[order] = np.arange(len(scores)) - offsets[pair_scene[order]]
    return SplitPredictions(
        np.asarray(pred_classes, dtype=np.intp), scores,
        np.asarray(hidden, dtype=np.intp), pair_scene, rank,
    )


def _top_k_hits(preds: SplitPredictions, k: int) -> np.ndarray:
    if k <= 0:
        raise ValidationError("k must be positive")
    return (preds.rank < k) & (preds.hidden != BG_INDEX) & (preds.pred_classes == preds.hidden)


def recall_at_k(preds: SplitPredictions, k: int) -> float:
    """Mean over scenes of |top-k correct| / |ground truth|, as a percentage."""
    hits = _top_k_hits(preds, k)
    n_gt = np.bincount(preds.pair_scene, weights=preds.hidden != BG_INDEX)
    n_hit = np.bincount(preds.pair_scene, weights=hits)
    with_truth = n_gt > 0
    if not with_truth.any():
        raise ValidationError("no ground-truth relations in any scene")
    return 100.0 * float(np.mean(n_hit[with_truth] / n_gt[with_truth]))


def per_class_recall_at_k(preds: SplitPredictions, k: int, n_foreground: int) -> np.ndarray:
    """Recall per foreground class across the split; nan where no truth exists."""
    hits = _top_k_hits(preds, k)
    gt = preds.hidden != BG_INDEX
    total = np.bincount(preds.hidden[gt] - 1, minlength=n_foreground).astype(np.float64)
    hit = np.bincount(preds.hidden[hits] - 1, minlength=n_foreground).astype(np.float64)
    out = np.full(n_foreground, np.nan)
    mask = total > 0
    out[mask] = 100.0 * hit[mask] / total[mask]
    return out


def mean_recall_at_k(preds: SplitPredictions, k: int, n_foreground: int) -> float:
    """Unweighted mean of per-class recall over classes with ground truth."""
    per_class = per_class_recall_at_k(preds, k, n_foreground)
    if np.all(np.isnan(per_class)):
        raise ValidationError("mean recall is undefined without any ground truth")
    return float(np.nanmean(per_class))


def f_at_k(recall: float, mean_recall: float) -> float:
    """Harmonic mean of overall and per-class-mean recall; 0 when both are 0."""
    if recall < 0.0 or mean_recall < 0.0:
        raise ValidationError("recall values must be non-negative")
    if recall == 0.0 and mean_recall == 0.0:
        return 0.0
    return 2.0 * recall * mean_recall / (recall + mean_recall)


def tercile_groups(n_foreground: int) -> dict[str, np.ndarray]:
    """Head/body/tail class-rank groups by near-equal thirds of the ranking."""
    chunks = np.array_split(np.arange(n_foreground), 3)
    return dict(zip(GROUP_NAMES, chunks))


@dataclass(frozen=True)
class KMetrics:
    k: int
    recall: float
    mean_recall: float
    f_score: float
    per_class: np.ndarray
    group_recall: dict[str, float]


@dataclass(frozen=True)
class EvalReport:
    split: str
    rows: tuple[KMetrics, ...]

    def row_for(self, k: int) -> KMetrics:
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(k)


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    ks: Sequence[int] = (2, 5, 10),
    edge_learner=None,
) -> EvalReport:
    """Score a dataset split.

    With ``edge_learner`` given, pair features are first refreshed by one
    message-passing round over the deterministically gated edges
    (score > 0.5); no sampling noise enters evaluation.
    """
    arrays = dataset.arrays
    n = len(arrays.features)
    if n == 0:
        raise ValidationError("no ground-truth relations in any scene")
    pred, scores = np.empty(n, dtype=np.intp), np.empty(n)
    offsets = arrays.scene_offsets
    # blocks of whole scenes bound the temporaries
    for first in range(0, len(offsets) - 1, EVAL_BLOCK_SCENES):
        rows = np.arange(offsets[first], offsets[min(first + EVAL_BLOCK_SCENES, len(offsets) - 1)])
        X = arrays.features[rows]
        if edge_learner is not None:
            from .edges import edge_scores, message_pass  # cycle-free local import

            ents, subj, obj = arrays.entity_table(rows)
            X = message_pass(ents, subj, obj, edge_scores(edge_learner, ents[subj], ents[obj]) > 0.5)
        fg = predict_probs(params, X)[:, 1:]
        pred[rows] = 1 + np.argmax(fg, axis=1)
        scores[rows] = fg.max(axis=1)
    preds = split_predictions(pred, scores, arrays.hidden, offsets)

    n_fg = dataset.catalog.n_foreground
    groups = tercile_groups(n_fg)
    rows = []
    for k in ks:
        r = recall_at_k(preds, k)
        per_class = per_class_recall_at_k(preds, k, n_fg)
        mr = mean_recall_at_k(preds, k, n_fg)
        group_recall = {}
        for name, idx in groups.items():
            vals = per_class[idx]
            group_recall[name] = (
                float(np.nanmean(vals)) if not np.all(np.isnan(vals)) else float("nan")
            )
        rows.append(
            KMetrics(
                k=int(k),
                recall=r,
                mean_recall=mr,
                f_score=f_at_k(r, mr),
                per_class=per_class,
                group_recall=group_recall,
            )
        )
    return EvalReport(split=dataset.split, rows=tuple(rows))


class AssignmentRecord(NamedTuple):
    """One accepted pseudo-label, as logged by the self-training loop."""

    iteration: int
    scene_id: int
    triplet_index: int
    assigned_class: int
    confidence: float


@dataclass(frozen=True, eq=False)
class AssignmentLog(abc.Sequence):
    """Accepted pseudo-labels as parallel columns, read as a sequence of
    ``AssignmentRecord``s built on access."""

    iteration: np.ndarray
    scene_id: np.ndarray
    triplet_index: np.ndarray
    assigned_class: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.iteration)

    def __getitem__(self, i: int) -> AssignmentRecord:
        return AssignmentRecord(*(getattr(self, f)[i].item() for f in AssignmentRecord._fields))

    def __iter__(self):
        for lo in range(0, len(self), 4096):  # bounded temporaries
            chunk = (getattr(self, f)[lo : lo + 4096].tolist() for f in AssignmentRecord._fields)
            yield from map(AssignmentRecord._make, zip(*chunk))


@dataclass(frozen=True)
class PseudoLabelAudit:
    """Pseudo-label quality against the generator's hidden truth.

    An assignment is correct iff its class equals the hidden label.
    Assignments landing on true-background pairs count toward the per-class
    denominator and the ``bg_violations`` tally, never toward correctness.
    Recall divides correct assignments by the recoverable pool: unannotated
    pairs whose hidden label is that class.
    """

    assigned: np.ndarray
    correct: np.ndarray
    bg_violations: int
    recoverable: np.ndarray

    @property
    def precision(self) -> np.ndarray:
        out = np.full(len(self.assigned), np.nan)
        mask = self.assigned > 0
        out[mask] = self.correct[mask] / self.assigned[mask]
        return out

    @property
    def recall(self) -> np.ndarray:
        out = np.full(len(self.assigned), np.nan)
        mask = self.recoverable > 0
        out[mask] = self.correct[mask] / self.recoverable[mask]
        return out

    @property
    def overall_precision(self) -> float:
        total = int(self.assigned.sum())
        return float(self.correct.sum() / total) if total else float("nan")


def audit_pseudo_labels(
    assignments: Iterable[AssignmentRecord], dataset: Dataset
) -> PseudoLabelAudit:
    arrays = dataset.arrays
    n_fg = dataset.catalog.n_foreground
    if isinstance(assignments, AssignmentLog):
        scene_id, index, cls = assignments.scene_id, assignments.triplet_index, assignments.assigned_class
    else:
        scene_id, index, cls = np.fromiter(
            chain.from_iterable((a.scene_id, a.triplet_index, a.assigned_class) for a in assignments),
            dtype=np.int64,
        ).reshape(-1, 3).T
    ids = arrays.scene_ids
    if len(scene_id) and not len(ids):
        raise ValidationError(f"assignment references unknown scene {scene_id[0]}")
    order = np.argsort(ids, kind="stable")
    pos = order[np.minimum(np.searchsorted(ids, scene_id, sorter=order), max(len(ids) - 1, 0))]
    known = ids[pos] == scene_id
    start = arrays.scene_offsets[pos]
    present = known & (index >= 0) & (index < arrays.scene_offsets[pos + 1] - start)
    foreground = (cls >= 1) & (cls <= n_fg)
    bad = np.flatnonzero(~(present & foreground))
    if len(bad):
        i = bad[0]
        if not known[i]:
            raise ValidationError(f"assignment references unknown scene {scene_id[i]}")
        if not present[i]:
            raise ValidationError(
                f"assignment references missing pair {index[i]} in scene {scene_id[i]}"
            )
        raise ValidationError(f"not a foreground class: {cls[i]}")
    hidden = arrays.hidden[start + index]
    recoverable = arrays.hidden[(arrays.observed == BG_INDEX) & (arrays.hidden != BG_INDEX)]
    return PseudoLabelAudit(
        assigned=np.bincount(cls - 1, minlength=n_fg),
        correct=np.bincount(cls[hidden == cls] - 1, minlength=n_fg),
        bg_violations=int(np.sum(hidden == BG_INDEX)),
        recoverable=np.bincount(recoverable - 1, minlength=n_fg),
    )
