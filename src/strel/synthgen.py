"""Synthetic long-tailed relation benchmark.

Scenes are built from disjoint subject-object pairs: every pair owns its two
entities, so a pair's features (its endpoint features concatenated) land
exactly on the relation-class prototype plus isotropic Gaussian noise.
Relation classes follow a Zipf law over the foreground label space; a
configurable share of pairs carries no relation at all and draws from a
dedicated background prototype instead.

Semantic ambiguity is modelled with *sibling groups*: selected tail-class
prototypes are planted close to a head-class prototype, which produces the
soft, unsharpened confidences that defeat a single global acceptance
threshold.

The dataset is built as columns (``labels.SplitArrays``) from the first
draw on: the generator fills the pair, label and entity columns straight
from its per-scene streams, masking is one row mask over the label column,
a split is one gather of scene rows, and relabelling to frequency rank is a
lookup table over the label columns.  A split is saved as one ``tensorio``
archive of those columns (``labels.write_scenes``); ``Scene`` records are
only the view that ``Dataset.scenes`` builds from them.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import replace
from typing import Sequence

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .labels import BG_INDEX, Dataset, PredicateCatalog, SplitArrays, annotated_counts
from .rngs import children


def zipf_shares(n_classes: int, exponent: float) -> np.ndarray:
    """Normalized 1/rank**exponent shares for ranks 1..n_classes."""
    ranks = np.arange(1, n_classes + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


def _prototypes(config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Class-mean pair features: row 0 background, row c foreground class c.

    Foreground prototypes sit on random orthonormal-ish directions scaled so
    that orthogonal pairs are ``class_separation`` apart; each sibling group
    then moves one tail prototype next to its head anchor at
    ``sibling_scale * class_separation``.  The background prototype is the
    origin: "no relation" has no direction, and with a wide ``bg_noise_sigma``
    its cloud grazes every class region, producing the soft foreground
    argmaxes that real unannotated pairs exhibit.
    """
    n = config.n_fg_classes + 1
    if config.feature_dim >= n:
        raw = rng.standard_normal((config.feature_dim, n))
        q, _ = np.linalg.qr(raw)
        directions = q[:, :n].T
    else:
        raw = rng.standard_normal((n, config.feature_dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    protos = directions * (config.class_separation / math.sqrt(2.0))
    protos[0] = 0.0
    for anchor, partner in config.parsed_sibling_pairs():
        direction = rng.standard_normal(config.feature_dim)
        direction /= np.linalg.norm(direction)
        protos[partner] = (
            protos[anchor] + config.sibling_scale * config.class_separation * direction
        )
    return protos


def _canonical_relabel(
    counts: Sequence[int], names: Sequence[str]
) -> tuple[np.ndarray, PredicateCatalog]:
    """Re-sort foreground classes by descending count.

    Returns the label lookup table (old label -> new label) and the catalog
    under the new order, so that label index keeps matching frequency rank
    after any operation that changes the counts; ties preserve the previous
    index order.
    """
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    lut = np.zeros(len(counts) + 1, dtype=np.int32)
    lut[1 + np.array(order, dtype=np.intp)] = np.arange(1, len(counts) + 1)
    catalog = PredicateCatalog(
        class_names=("bg",) + tuple(names[i] for i in order),
        counts=tuple(counts[i] for i in order),
    )
    return lut, catalog


def generate(config: RunConfig) -> Dataset:
    """Generate a fully annotated dataset (observed == hidden everywhere).

    Every scene draws from its own stream: its pair count, then per pair the
    background coin, the class (inverse-CDF of the Zipf shares, as
    ``Generator.choice`` draws it), the pair's noise and its two entity
    classes.  Identical configs produce bit-identical datasets.
    """
    proto_seq = np.random.SeedSequence(config.gen_seed, spawn_key=(0,))  # scenes: spawn key (1, i)
    protos = _prototypes(config, np.random.default_rng(proto_seq))
    # Generator.choice(p=shares) draws one uniform and bisects this CDF
    cdf = zipf_shares(config.n_fg_classes, config.zipf_exponent).cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    lo = max(1, config.entities_min // 2)
    hi = max(lo, config.entities_max // 2)
    bg_fraction, n_classes = config.true_bg_fraction, config.n_entity_classes

    noise = np.empty((config.n_scenes * hi, config.feature_dim))
    labels, classes = array("i"), array("q")
    counts = np.empty(config.n_scenes, dtype=np.intp)
    for s, rng in enumerate(children(config.gen_seed, (1,), config.n_scenes)):
        random, normal, integers = rng.random, rng.standard_normal, rng.integers
        counts[s] = n_pairs = int(integers(lo, hi + 1))
        for _ in range(n_pairs):
            if random() < bg_fraction:
                labels.append(BG_INDEX)
            else:
                labels.append(1 + bisect_right(cdf, random()))
            normal(out=noise[len(labels) - 1])
            classes.append(integers(n_classes))
            classes.append(integers(n_classes))

    n = len(labels)
    hidden = np.array(labels, dtype=np.int32)
    sigma = np.where(hidden == BG_INDEX, config.bg_noise_sigma, config.noise_sigma)
    features = protos[hidden] + sigma[:, None] * noise[:n]
    lut, catalog = _canonical_relabel(
        annotated_counts(hidden, config.n_fg_classes).tolist(),
        [f"rel{k:02d}" for k in range(1, config.n_fg_classes + 1)],
    )
    hidden = lut[hidden]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # pair r owns entity rows 2r (subject) and 2r + 1 (object), ids 2j and 2j + 1
    entity_rows = np.arange(2 * n)
    arrays = SplitArrays(
        scene_ids=np.arange(config.n_scenes, dtype=np.intp),
        scene_offsets=offsets,
        entity_offsets=2 * offsets,
        entity_ids=entity_rows - np.repeat(2 * offsets[:-1], 2 * counts),
        entity_classes=np.array(classes, dtype=np.intp),
        entity_features=features.reshape(2 * n, config.feature_dim // 2),
        subject_row=entity_rows[0::2].astype(np.int32),
        object_row=entity_rows[1::2].astype(np.int32),
        observed=hidden,
        hidden=hidden,
    )
    return Dataset(arrays, catalog, split="full")


def mask_annotations(dataset: Dataset, annotated_fraction: float, seed: int) -> Dataset:
    """Hide all but ``ceil(fraction * n)`` of the relation-bearing annotations.

    The kept set is a uniform random sample over relation-bearing pairs; all
    other pairs get the background observation.  Hidden labels are untouched
    and pairs with no true relation always observe background.
    """
    arrays = dataset.arrays
    refs = np.flatnonzero(arrays.hidden != BG_INDEX)
    keep = math.ceil(annotated_fraction * len(refs))
    observed = np.full_like(arrays.hidden, BG_INDEX)
    if len(refs):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        kept = refs[rng.choice(len(refs), size=keep, replace=False)]
        observed[kept] = arrays.hidden[kept]
    return Dataset(replace(arrays, observed=observed), dataset.catalog, dataset.split)


def _allocate(n: int, fractions: np.ndarray) -> list[int]:
    base = [int(math.floor(f * n)) for f in fractions]
    remainder = n - sum(base)
    residuals = sorted(
        range(len(fractions)), key=lambda i: (-(fractions[i] * n - base[i]), i)
    )
    for i in residuals[:remainder]:
        base[i] += 1
    return base


def split(
    dataset: Dataset,
    fractions: Sequence[float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Scene-disjoint train/val/test partition.

    Catalog counts are recomputed from the train split's annotated pairs
    only, and labels across all three splits are remapped so that label index
    keeps matching frequency rank under the new counts.
    """
    f = np.asarray(fractions, dtype=np.float64)
    n = len(dataset.arrays.scene_ids)
    sizes = _allocate(n, f)
    if any(s == 0 for s in sizes):
        raise ConfigError(f"every split must be non-empty, got sizes {sizes}")

    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    bounds = [0, sizes[0], sizes[0] + sizes[1], n]
    parts = [dataset.arrays.take(perm[bounds[k] : bounds[k + 1]]) for k in range(3)]
    lut, catalog = _canonical_relabel(
        annotated_counts(parts[0].observed, dataset.catalog.n_foreground).tolist(),
        dataset.catalog.class_names[1:],
    )
    return tuple(
        Dataset(replace(p, observed=lut[p.observed], hidden=lut[p.hidden]), catalog, tag)
        for p, tag in zip(parts, ("train", "val", "test"))
    )
