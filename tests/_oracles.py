"""Independent oracles shared by the test suite.

Everything here recomputes expected values through a different path than the
library: central finite differences for gradients, and plain per-item loops,
dicts and sets for pseudo-label selection, the ranking metrics and message
passing, where the library works on whole arrays; the catm threshold step
as a per-class loop, and the entity table of a batch by sorting its
endpoints; the dataset pipeline
in object form, one scene record per scene; and the JSONL scene file that
``strel gen`` wrote before the split archives, with the record path from
scene records to columns.  ``build_catalog`` makes a catalog from raw
per-class counts, which only tests need.
"""

from __future__ import annotations

import dataclasses
import json
import math
from array import array
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from strel.classifier import ModelParams
from strel.errors import ConfigError, ValidationError
from strel.labels import Entity, PredicateCatalog, Scene, SplitArrays, make_scene


def build_catalog(label_counts: Mapping[str, int], bg_name: str = "bg") -> PredicateCatalog:
    """Build a catalog from raw per-class counts.

    Foreground classes are sorted by descending count (ties keep the
    mapping's insertion order) and the background class is prepended at
    index 0.  Rebuilding from a catalog's own name/count pairs reproduces it
    exactly.
    """
    if len(label_counts) < 2:
        raise ConfigError("need at least 2 foreground classes")
    if bg_name in label_counts:
        raise ConfigError(f"{bg_name!r} is reserved for the background class")
    for name, count in label_counts.items():
        if count < 0:
            raise ConfigError(f"negative count for class {name!r}")
    ordered = sorted(label_counts.items(), key=lambda item: -item[1])
    names = (bg_name,) + tuple(name for name, _ in ordered)
    counts = tuple(count for _, count in ordered)
    return PredicateCatalog(class_names=names, counts=counts)


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


def loop_ema_update(state, pred_classes, confidences, strict_eligible_mean=False) -> np.ndarray:
    """The tau of one catm step, class by class: ``thresholds.ema_update``
    as a loop over the predicted classes."""
    classes = np.asarray(pred_classes, dtype=np.intp)
    conf = np.asarray(confidences, dtype=np.float64)
    tau = state.tau.copy()
    order = np.argsort(classes, kind="stable")
    by_class = conf[order]
    bounds = np.searchsorted(classes[order], np.arange(1, tau.size + 2))
    for c in np.flatnonzero(np.diff(bounds)) + 1:
        sel = by_class[bounds[c - 1] : bounds[c]]
        prev = tau[c - 1]
        if sel.max() >= prev:  # some prediction clears the previous threshold
            lam = state.lambda_inc[c - 1]
            if strict_eligible_mean:
                sel = sel[sel >= prev]
        else:
            lam = state.lambda_dec[c - 1]
        mean = float(np.add.reduce(sel) / sel.size)  # exactly ndarray.mean
        tau[c - 1] = (1.0 - lam) * prev + lam * mean
    return tau


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


def unique_entity_table(arrays: SplitArrays, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entity table of a set of pair rows by sorting: one row per
    distinct entity the pairs name, in split order (``np.unique``), and every
    pair's subject and object row in that table."""
    ids, local = np.unique(
        np.concatenate([arrays.subject_row[rows], arrays.object_row[rows]]), return_inverse=True
    )
    return arrays.entity_features[ids], local[: len(rows)], local[len(rows) :]


def per_term_run(pretrained, train, val, cfg, metric_ks):
    """Self-training with one forward and backward per loss term.

    The reference loop for ``selftrain.run``: a separate inference pass over
    the unannotated rows picks the pseudo-labels, then the annotated,
    background and pseudo-label terms each run their own forward and
    backward, and the gradients are summed as ``g_a + g_b + beta * g_p``.
    Returns the final params and edge learner, the accepted labels as
    ``(iteration, scene_id, pair index, class)`` rows plus confidences, the
    tau trajectory and the per-epoch metric rows.
    """
    import math
    from dataclasses import replace

    from strel import edges, selftrain
    from strel.classifier import (
        add_grads, class_weights, downsample_background, forward_probs, predict_probs, sgd_step,
        weighted_ce_grads, zero_grads,
    )
    from strel.metrics import evaluate
    from strel.rngs import stream

    arrays, catalog = train.arrays, train.catalog
    params, w = pretrained, class_weights(catalog, cfg.reweight)
    state = selftrain.build_thresholds(cfg, catalog, params, val)
    edge = None
    if cfg.use_gsl:
        edge = edges.init_edge_learner(
            arrays.features.shape[1], hidden_dim=cfg.gsl_hidden_dim, seed=cfg.selftrain_seed
        )

    def term(X, rows, targets):
        if len(rows) == 0:
            return 0.0, zero_grads(params)
        t = np.asarray(targets, dtype=np.intp)
        return weighted_ce_grads(params, forward_probs(params, X[rows]), t, w[t] / len(rows))

    n_scenes = len(arrays.scene_ids)
    per_epoch = math.ceil(n_scenes / cfg.batch_size)
    keys, confs, taus, epochs = [], [], [], []
    it, epoch = 0, 0
    while it < cfg.max_iterations:
        order = stream(cfg.selftrain_seed, "epoch-order", epoch).permutation(n_scenes)
        for b in range(per_epoch):
            if it >= cfg.max_iterations:
                break
            positions = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            rows = arrays.rows_of(positions)
            observed = arrays.observed[rows]
            ann, un = np.flatnonzero(observed != 0), np.flatnonzero(observed == 0)
            X, gates = arrays.features[rows], None
            if cfg.use_gsl:
                ents, subj, obj = unique_entity_table(arrays, rows)
                pairs = np.concatenate([ents[subj], ents[obj]], axis=1)
                sizes = np.diff(arrays.scene_offsets)[positions]
                noise = [
                    edges.gumbel_noise(
                        stream(cfg.selftrain_seed, "gumbel", it, int(arrays.scene_ids[p])).random(n)
                    )
                    for p, n in zip(positions, sizes) if n
                ]
                samples = edges.sample_edges(
                    edges.edge_scores(edge, pairs), np.concatenate(noise) if noise else np.zeros(0)
                )
                X = edges.message_pass(ents, subj, obj, samples.hard)
                gates = samples.hard[un] == 1
            probs = predict_probs(params, X[un])
            pred, conf = np.argmax(probs, axis=1), probs.max(axis=1)
            accepted = selftrain.assign_pseudo_labels(
                np.stack([arrays.pair_scene[rows[un]], arrays.pair_index[rows[un]]], axis=1),
                pred, conf, state, cfg.per_class_per_scene_cap, gates,
            )
            pseudo = un[accepted]
            background = np.delete(un, accepted)
            if cfg.bg_downsample < 1.0:
                rng = stream(cfg.selftrain_seed, "bg-downsample", it)
                background = np.asarray(
                    downsample_background(background, cfg.bg_downsample, rng), dtype=np.intp
                )
            _, g_a = term(X, ann, observed[ann])
            _, g_b = term(X, background, np.zeros(len(background), dtype=np.intp))
            _, g_p = term(X, pseudo, pred[accepted])
            if cfg.use_gsl:
                _, g_e = edges.focal_loss_grad(edge, pairs, (observed != 0).astype(np.float64),
                                               cfg.focal_gamma)
                edge = replace(edge, net=sgd_step(edge.net, g_e, cfg.selftrain_learning_rate))
            state = selftrain.update_thresholds(state, cfg, it, pred, conf, params, val)
            grads = add_grads(add_grads(g_a, g_b), g_p, scale=cfg.beta)
            params = sgd_step(params, grads, cfg.selftrain_learning_rate)
            keys += [
                (it, int(arrays.scene_ids[arrays.pair_scene[r]]), int(arrays.pair_index[r]), int(c))
                for r, c in zip(rows[pseudo], pred[accepted])
            ]
            confs += conf[accepted].tolist()
            taus.append(np.array(state.tau, dtype=np.float64))
            it += 1
        if val is not None:
            report = evaluate(params, val, metric_ks, edge)
            epochs += [(epoch, it, r.k, r.recall, r.mean_recall, r.f_score) for r in report.rows]
        epoch += 1
    return {
        "params": params,
        "edge_learner": edge,
        "keys": np.array(keys, dtype=np.int64).reshape(-1, 4),
        "confidence": np.array(confs),
        "tau": np.array(taus).reshape(-1, catalog.n_foreground),
        "epochs": np.array(epochs, dtype=np.float64),
    }


# --- the object-form dataset pipeline --------------------------------------
#
# The synthetic generator, annotation masking and scene split as they were
# written before the library built datasets as columns: one ``Entity`` and one
# ``TripletInstance`` per draw, labels remapped by rebuilding every triplet.
# The columnar library must reproduce these scenes bit for bit.


class ObjectDataset(NamedTuple):
    scenes: tuple
    catalog: object
    split: str


def object_annotated_counts(scenes, n_foreground: int) -> list[int]:
    counts = [0] * n_foreground
    for scene in scenes:
        for t in scene.triplets:
            if t.observed_label != 0:
                counts[t.observed_label - 1] += 1
    return counts


def _object_relabel(scene_groups, counts, names):
    from strel.labels import PredicateCatalog

    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    mapping = {0: 0}
    for new_rank, old_zero_based in enumerate(order):
        mapping[old_zero_based + 1] = new_rank + 1

    def relabel(scene):
        triplets = tuple(
            dataclasses.replace(
                t, observed_label=mapping[t.observed_label], hidden_label=mapping[t.hidden_label]
            )
            for t in scene.triplets
        )
        return Scene(scene.scene_id, scene.entities, triplets)

    remapped = [[relabel(s) for s in scenes] for scenes in scene_groups]
    catalog = PredicateCatalog(
        class_names=("bg",) + tuple(names[i] for i in order),
        counts=tuple(counts[i] for i in order),
    )
    return remapped, catalog


def object_generate(config) -> ObjectDataset:
    """``synthgen.generate``, one pair at a time."""
    from strel.synthgen import _prototypes, zipf_shares

    root = np.random.SeedSequence(config.gen_seed)
    proto_seq, scene_root = root.spawn(2)
    protos = _prototypes(config, np.random.default_rng(proto_seq))
    shares = zipf_shares(config.n_fg_classes, config.zipf_exponent)
    half = config.feature_dim // 2
    lo = max(1, config.entities_min // 2)
    hi = max(lo, config.entities_max // 2)

    scenes = []
    for scene_id, seq in enumerate(scene_root.spawn(config.n_scenes)):
        rng = np.random.default_rng(seq)
        n_pairs = int(rng.integers(lo, hi + 1))
        entities, pairs = [], []
        for j in range(n_pairs):
            if rng.random() < config.true_bg_fraction:
                label, sigma = 0, config.bg_noise_sigma
            else:
                label = 1 + int(rng.choice(config.n_fg_classes, p=shares))
                sigma = config.noise_sigma
            proto = protos[label]
            subj_feat = proto[:half] + sigma * rng.standard_normal(half)
            obj_feat = proto[half:] + sigma * rng.standard_normal(half)
            sid, oid = 2 * j, 2 * j + 1
            entities.append(Entity(sid, int(rng.integers(config.n_entity_classes)), subj_feat))
            entities.append(Entity(oid, int(rng.integers(config.n_entity_classes)), obj_feat))
            pairs.append((sid, oid, label, label))
        scenes.append(make_scene(scene_id, entities, pairs))

    names = [f"rel{k:02d}" for k in range(1, config.n_fg_classes + 1)]
    counts = object_annotated_counts(scenes, config.n_fg_classes)
    (scenes,), catalog = _object_relabel([scenes], counts, names)
    return ObjectDataset(tuple(scenes), catalog, "full")


def object_mask_annotations(dataset: ObjectDataset, fraction: float, seed: int) -> ObjectDataset:
    """``synthgen.mask_annotations`` over a set of (scene, pair) keys."""
    refs = [
        (i, j)
        for i, scene in enumerate(dataset.scenes)
        for j, t in enumerate(scene.triplets)
        if t.hidden_label != 0
    ]
    keep = math.ceil(fraction * len(refs))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chosen = rng.choice(len(refs), size=keep, replace=False) if refs else []
    keep_set = {refs[int(k)] for k in chosen}
    scenes = []
    for i, scene in enumerate(dataset.scenes):
        triplets = tuple(
            dataclasses.replace(t, observed_label=t.hidden_label if (i, j) in keep_set else 0)
            for j, t in enumerate(scene.triplets)
        )
        scenes.append(Scene(scene.scene_id, scene.entities, triplets))
    return ObjectDataset(tuple(scenes), dataset.catalog, dataset.split)


def _object_allocate(n: int, fractions) -> list[int]:
    base = [int(math.floor(f * n)) for f in fractions]
    remainder = n - sum(base)
    residuals = sorted(range(len(fractions)), key=lambda i: (-(fractions[i] * n - base[i]), i))
    for i in residuals[:remainder]:
        base[i] += 1
    return base


def object_split(dataset: ObjectDataset, fractions, seed: int) -> tuple[ObjectDataset, ...]:
    """``synthgen.split``: scene lists, relabelled by the train counts."""
    f = np.asarray(fractions, dtype=np.float64)
    n = len(dataset.scenes)
    sizes = _object_allocate(n, f)
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    bounds = [0, sizes[0], sizes[0] + sizes[1], n]
    groups = [[dataset.scenes[int(i)] for i in perm[bounds[k] : bounds[k + 1]]] for k in range(3)]
    counts = object_annotated_counts(groups[0], dataset.catalog.n_foreground)
    groups, catalog = _object_relabel(groups, counts, dataset.catalog.class_names[1:])
    return tuple(
        ObjectDataset(tuple(g), catalog, tag) for g, tag in zip(groups, ("train", "val", "test"))
    )


# --- the JSONL scene file and the record path ---------------------------------
#
# One scene per line; entity features carry 9 significant digits, and pair
# features are rebuilt from the endpoints on read.


def compile_split(scenes: Iterable[Scene]) -> SplitArrays:
    """The columns of a sequence of scene records."""
    scene_ids, n_entities, n_pairs = array("q"), array("q"), array("q")
    entity_ids, entity_classes, features = array("q"), array("q"), []
    # four int32 columns per pair: subject row, object row, observed, hidden
    columns = array("i")
    base = 0
    for scene in scenes:
        row = {}
        for k, e in enumerate(scene.entities):
            row[e.id] = base + k
            entity_ids.append(e.id)
            entity_classes.append(e.entity_class)
            features.append(e.features)
        for t in scene.triplets:
            columns.extend((row[t.subject_id], row[t.object_id], t.observed_label, t.hidden_label))
        scene_ids.append(scene.scene_id)
        n_entities.append(len(scene.entities))
        n_pairs.append(len(scene.triplets))
        base += len(scene.entities)
    if len({f.shape for f in features}) > 1:
        raise ValidationError("entity features differ in length across the split")
    subj, obj, observed, hidden = np.frombuffer(columns, dtype=np.int32).reshape(-1, 4).T.copy()
    return SplitArrays(
        scene_ids=np.array(scene_ids, dtype=np.intp),
        scene_offsets=np.concatenate(([0], np.cumsum(n_pairs, dtype=np.intp))),
        entity_offsets=np.concatenate(([0], np.cumsum(n_entities, dtype=np.intp))),
        entity_ids=np.array(entity_ids, dtype=np.intp),
        entity_classes=np.array(entity_classes, dtype=np.intp),
        entity_features=(
            np.concatenate(features).reshape(len(features), -1) if features else np.zeros((0, 0))
        ),
        subject_row=subj,
        object_row=obj,
        observed=observed,
        hidden=hidden,
    )


def scene_lines(arrays: SplitArrays) -> Iterator[str]:
    """One JSON line per scene, written from the columns."""
    features = ",".join(["%.9g"] * arrays.entity_features.shape[1])
    entity = '{"id":%d,"class":%d,"features":[' + features + "]}"
    ids, classes, values = (a.tolist() for a in (arrays.entity_ids, arrays.entity_classes,
                                                  arrays.entity_features))
    entities = [entity % (i, c, *f) for i, c, f in zip(ids, classes, values)]
    pair = '{"subj":%d,"obj":%d,"observed":%d,"hidden":%d}'
    pairs = [pair % p for p in zip(*arrays.pair_columns())]
    ents, rows = arrays.entity_offsets.tolist(), arrays.scene_offsets.tolist()
    for s, scene_id in enumerate(arrays.scene_ids.tolist()):
        yield '{"scene_id":%d,"entities":[%s],"triplets":[%s]}' % (
            scene_id,
            ",".join(entities[ents[s] : ents[s + 1]]),
            ",".join(pairs[rows[s] : rows[s + 1]]),
        )


def scene_from_line(line: str) -> Scene:
    try:
        raw = json.loads(line)
        entities = [
            Entity(
                id=int(e["id"]),
                entity_class=int(e["class"]),
                features=np.asarray(e["features"], dtype=np.float64),
            )
            for e in raw["entities"]
        ]
        pairs = [
            (int(t["subj"]), int(t["obj"]), int(t["observed"]), int(t["hidden"]))
            for t in raw["triplets"]
        ]
        return make_scene(int(raw["scene_id"]), entities, pairs)
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"malformed scene line: {type(exc).__name__}: {exc}") from exc


def write_jsonl(path, arrays: SplitArrays) -> None:
    """The scene file of a split."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in scene_lines(arrays))


def read_jsonl(path) -> SplitArrays:
    """The columns of a scene file, parsed line by line as scene records."""
    with open(path, "r", encoding="utf-8") as fh:
        return compile_split(scene_from_line(line) for line in fh if line.strip())
