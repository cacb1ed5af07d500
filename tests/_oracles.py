"""Independent oracles shared by the test suite.

Everything here recomputes expected values through a different path than the
library: central finite differences for gradients, and plain per-item loops,
dicts and sets for pseudo-label selection, the ranking metrics and message
passing, where the library works on whole arrays.
"""

from __future__ import annotations

import numpy as np

from strel.classifier import ModelParams


def flatten_params(params: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for w, b in params.layers for a in (w, b)])


def unflatten_params(params: ModelParams, flat: np.ndarray) -> ModelParams:
    layers = []
    offset = 0
    for w, b in params.layers:
        nw = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
        nb = flat[offset : offset + b.size].reshape(b.shape)
        offset += b.size
        layers.append((nw, nb))
    return ModelParams(arch=params.arch, layers=tuple(layers))


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([a.ravel() for gw, gb in grads for a in (gw, gb)])


def numerical_gradient(loss_fn, params: ModelParams, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss_fn`` over every parameter entry."""
    flat = flatten_params(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += eps
        hi = loss_fn(unflatten_params(params, bumped))
        bumped[i] -= 2 * eps
        lo = loss_fn(unflatten_params(params, bumped))
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def gradient_relative_error(analytic, loss_fn, params, eps: float = 1e-6) -> float:
    """Norm-relative disagreement between analytic and numerical gradients."""
    num = numerical_gradient(loss_fn, params, eps)
    ana = flatten_grads(analytic)
    return float(np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-8))


def brute_force_selection(keys, pred_classes, confidences, tau, cap, gates=None, never=False):
    """Positions accepted by per-(scene, class) candidate lists.

    ``keys`` holds (scene, pair index) per candidate; a candidate needs a
    foreground argmax, confidence >= tau[class - 1] and an open gate; each
    (scene, class) keeps its ``cap`` most confident, ties to the lower index.
    """
    groups: dict[tuple[int, int], list[tuple[float, int, int]]] = {}
    for pos, (scene, index) in enumerate(keys):
        c = int(pred_classes[pos])
        q = float(confidences[pos])
        if never or c == 0 or q < float(tau[c - 1]):
            continue
        if gates is not None and not gates[pos]:
            continue
        groups.setdefault((int(scene), c), []).append((q, int(index), pos))
    kept = set()
    for group in groups.values():
        group.sort(key=lambda item: (-item[0], item[1]))
        kept.update(pos for _, _, pos in group[:cap])
    return sorted(kept)


def _top_k(scores, k):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def brute_force_scene_recall(pred_classes, scores, hidden, k) -> float | None:
    """Top-k hit rate for one scene by explicit enumeration; None without truth."""
    gt = [(i, h) for i, h in enumerate(hidden) if h != 0]
    if not gt:
        return None
    predicted = {(i, pred_classes[i]) for i in _top_k(scores, k)}
    hits = sum(1 for pair in gt if pair in predicted)
    return hits / len(gt)


def brute_force_recall_at_k(scenes, k) -> float:
    """``scenes`` holds one (pred_classes, scores, hidden) triple per scene."""
    vals = [r for sp in scenes if (r := brute_force_scene_recall(*sp, k)) is not None]
    return 100.0 * sum(vals) / len(vals)


def brute_force_per_class_recall(scenes, k, n_fg):
    total = [0] * n_fg
    hit = [0] * n_fg
    for pred_classes, scores, hidden in scenes:
        top = set(_top_k(scores, k))
        for i, h in enumerate(hidden):
            if h == 0:
                continue
            total[h - 1] += 1
            if i in top and pred_classes[i] == h:
                hit[h - 1] += 1
    return [
        (100.0 * hit[c] / total[c]) if total[c] else None for c in range(n_fg)
    ]


def dict_message_pass(scene, hard_flags) -> np.ndarray:
    """Neighbour-mean refresh of one scene's pair features, entity by entity."""
    feats = {e.id: e.features for e in scene.entities}
    neighbors: dict[int, list[int]] = {}
    for t, h in zip(scene.triplets, hard_flags):
        if h:
            neighbors.setdefault(t.subject_id, []).append(t.object_id)
            neighbors.setdefault(t.object_id, []).append(t.subject_id)
    refined = {}
    for eid, x in feats.items():
        ns = neighbors.get(eid)
        refined[eid] = 0.5 * x + 0.5 * np.mean([feats[j] for j in ns], axis=0) if ns else x
    return np.stack(
        [np.concatenate([refined[t.subject_id], refined[t.object_id]]) for t in scene.triplets]
    )
