"""Relation label space, the columnar dataset, and the split file.

Index 0 of every probability vector and label field is reserved for the
background class ("no relation").  Foreground classes occupy indices 1..F in
descending training-count order, so a foreground class's label index doubles
as its frequency rank.

The columns are the dataset: a split is a ``SplitArrays``, one row per pair
and one per entity, which the generator fills, masking and splitting gather,
and training and evaluation read through ``Dataset.arrays``.  On disk it is
one ``tensorio`` archive of those columns under their field names
(``write_scenes``; ``SPLIT_COLUMNS`` gives the dtypes), which ``read_scenes``
loads in one read and checks.  ``Scene``, ``Entity`` and ``TripletInstance``
are the record view that ``Dataset.scenes`` builds on first read.  All types
here are immutable and safe to share across parallel readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .tensorio import pack_tensors, unpack_tensors, write_atomic

BG_INDEX = 0


@dataclass(frozen=True)
class PredicateCatalog:
    """Relation label space with per-class training counts.

    ``class_names[0]`` is the background class.  The remaining names are
    foreground classes ordered by descending ``counts``, so the foreground
    class with label index ``i`` has count ``counts[i - 1]``.
    """

    class_names: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.class_names) != len(self.counts) + 1:
            raise ValidationError(
                "need exactly one class name per foreground count plus background"
            )
        if len(set(self.class_names)) != len(self.class_names):
            raise ValidationError("class names must be unique")
        if any(c < 0 for c in self.counts):
            raise ValidationError("class counts must be non-negative")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise ValidationError("counts must be sorted non-increasing")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_foreground(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class Entity:
    id: int
    entity_class: int
    features: np.ndarray  # treated as read-only


@dataclass(frozen=True)
class TripletInstance:
    """One ordered subject-object pair and its relation labels.

    ``observed_label`` is what training sees (background when the pair is
    unannotated); ``hidden_label`` is the generator's ground truth kept for
    auditing.  Annotation is never wrong, only missing, so an observed
    foreground label always equals the hidden one.
    """

    scene_id: int
    subject_id: int
    object_id: int
    subject_class: int
    object_class: int
    features: np.ndarray
    observed_label: int
    hidden_label: int

    def __post_init__(self) -> None:
        if self.subject_id == self.object_id:
            raise ValidationError("subject and object must be distinct entities")
        if self.observed_label != BG_INDEX and self.observed_label != self.hidden_label:
            raise ValidationError("an observed annotation must match the hidden label")


def relation_features(subject_features: np.ndarray, object_features: np.ndarray) -> np.ndarray:
    """Canonical pair representation: endpoint features concatenated."""
    return np.concatenate([subject_features, object_features])


@dataclass(frozen=True)
class Scene:
    scene_id: int
    entities: tuple[Entity, ...]
    triplets: tuple[TripletInstance, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "triplets", tuple(self.triplets))
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate entity ids in scene {self.scene_id}")
        known = set(ids)
        for t in self.triplets:
            if t.scene_id != self.scene_id:
                raise ValidationError("triplet carries a foreign scene_id")
            if t.subject_id not in known or t.object_id not in known:
                raise ValidationError("triplet references an entity missing from its scene")


def make_scene(
    scene_id: int,
    entities: Sequence[Entity],
    pairs: Iterable[tuple[int, int, int, int]],
) -> Scene:
    """Assemble a scene, deriving each pair's features from its endpoints.

    ``pairs`` holds ``(subject_id, object_id, observed, hidden)`` tuples;
    entity classes and features are looked up from ``entities``.
    """
    by_id = {e.id: e for e in entities}
    triplets = []
    for subj, obj, observed, hidden in pairs:
        s, o = by_id[subj], by_id[obj]
        triplets.append(
            TripletInstance(
                scene_id=scene_id,
                subject_id=subj,
                object_id=obj,
                subject_class=s.entity_class,
                object_class=o.entity_class,
                features=relation_features(s.features, o.features),
                observed_label=observed,
                hidden_label=hidden,
            )
        )
    return Scene(scene_id=scene_id, entities=tuple(entities), triplets=tuple(triplets))


@dataclass(frozen=True, eq=False)
class SplitArrays:
    """A split as flat arrays: the dataset itself, one row per pair and one
    per entity.

    Scenes are in split order and each scene's pairs and entities are
    contiguous in file order: the pair rows of scene position ``s`` are
    ``scene_offsets[s]:scene_offsets[s + 1]`` and its entity rows
    ``entity_offsets[s]:entity_offsets[s + 1]``.  ``subject_row`` and
    ``object_row`` name a pair's endpoints by entity row, and a pair's
    features are its endpoints' features concatenated
    (``relation_features``), built once on first read.
    """

    scene_ids: np.ndarray  # (S,)
    scene_offsets: np.ndarray  # (S + 1,) pair rows
    entity_offsets: np.ndarray  # (S + 1,) entity rows
    entity_ids: np.ndarray  # (E,) ids, unique within a scene
    entity_classes: np.ndarray  # (E,)
    entity_features: np.ndarray  # (E, d / 2)
    subject_row: np.ndarray  # (N,) entity rows
    object_row: np.ndarray
    observed: np.ndarray  # (N,) labels
    hidden: np.ndarray

    @cached_property
    def features(self) -> np.ndarray:
        """(N, d) pair features."""
        return np.concatenate(
            [self.entity_features[self.subject_row], self.entity_features[self.object_row]], axis=1
        )

    @cached_property
    def pair_scene(self) -> np.ndarray:
        """(N,) scene position of each pair."""
        counts = np.diff(self.scene_offsets)
        return np.repeat(np.arange(len(counts), dtype=np.int32), counts)

    @cached_property
    def pair_index(self) -> np.ndarray:
        """(N,) each pair's index within its scene."""
        starts = np.repeat(self.scene_offsets[:-1], np.diff(self.scene_offsets))
        return (np.arange(len(starts)) - starts).astype(np.int32)

    def rows_of(self, scene_positions: np.ndarray) -> np.ndarray:
        """Pair rows of the given scene positions, scene by scene in order."""
        return _ranges(self.scene_offsets, scene_positions)

    def entity_table(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features of the entities the given pairs name, one row each, and
        every pair's subject and object row in that table."""
        ids, local = np.unique(
            np.concatenate([self.subject_row[rows], self.object_row[rows]]), return_inverse=True
        )
        return self.entity_features[ids], local[: len(rows)], local[len(rows) :]

    def take(self, scene_positions: np.ndarray) -> SplitArrays:
        """The split of the given scene positions, in that order."""
        rows = self.rows_of(scene_positions)
        entities = _ranges(self.entity_offsets, scene_positions)
        n_pairs = np.diff(self.scene_offsets)[scene_positions]
        n_entities = np.diff(self.entity_offsets)[scene_positions]
        entity_offsets = np.concatenate(([0], np.cumsum(n_entities)))
        # every endpoint moves with its scene's first entity row
        shift = np.repeat(entity_offsets[:-1] - self.entity_offsets[scene_positions], n_pairs)
        return SplitArrays(
            scene_ids=self.scene_ids[scene_positions],
            scene_offsets=np.concatenate(([0], np.cumsum(n_pairs))),
            entity_offsets=entity_offsets,
            entity_ids=self.entity_ids[entities],
            entity_classes=self.entity_classes[entities],
            entity_features=self.entity_features[entities],
            subject_row=(self.subject_row[rows] + shift).astype(np.int32),
            object_row=(self.object_row[rows] + shift).astype(np.int32),
            observed=self.observed[rows],
            hidden=self.hidden[rows],
        )

    def to_scenes(self) -> tuple[Scene, ...]:
        """The split as scene records."""
        ids, classes = self.entity_ids.tolist(), self.entity_classes.tolist()
        entities = [Entity(*e) for e in zip(ids, classes, self.entity_features)]
        pairs = list(zip(*self.pair_columns()))
        ents, rows = self.entity_offsets.tolist(), self.scene_offsets.tolist()
        return tuple(
            make_scene(scene_id, entities[ents[s] : ents[s + 1]], pairs[rows[s] : rows[s + 1]])
            for s, scene_id in enumerate(self.scene_ids.tolist())
        )

    def pair_columns(self) -> tuple[list[int], ...]:
        """Each pair's subject id, object id, observed and hidden label."""
        ids = self.entity_ids
        return (ids[self.subject_row].tolist(), ids[self.object_row].tolist(),
                self.observed.tolist(), self.hidden.tolist())


def _ranges(offsets: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rows ``offsets[p]:offsets[p + 1]`` of every position, in order."""
    starts = offsets[positions]
    lengths = offsets[positions + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return shift + np.arange(shift.size)


@dataclass(frozen=True)
class Dataset:
    """One split: its columns, the label space and the split's name."""

    arrays: SplitArrays
    catalog: PredicateCatalog
    split: str = "train"

    @cached_property
    def scenes(self) -> tuple[Scene, ...]:
        """The split as scene records, built on first read and cached."""
        return self.arrays.to_scenes()


def annotated_counts(observed: np.ndarray, n_foreground: int) -> np.ndarray:
    """Per-class counts of annotated (non-background) pairs."""
    return np.bincount(observed, minlength=n_foreground + 1)[1:]


# --- the split file ----------------------------------------------------------

SPLIT_COLUMNS = {  # every SplitArrays field and its dtype on disk
    "scene_ids": np.int64,
    "scene_offsets": np.int64,
    "entity_offsets": np.int64,
    "entity_ids": np.int64,
    "entity_classes": np.int64,
    "entity_features": np.float64,
    "subject_row": np.int32,
    "object_row": np.int32,
    "observed": np.int32,
    "hidden": np.int32,
}


def write_scenes(path, arrays: SplitArrays) -> None:
    """Write a split as its column archive.  Entity features are stored as
    printed with 9 significant digits and parsed back, the values of the JSONL
    scene file the archive replaced, so a dataset keeps its numbers."""
    columns = {name: np.asarray(getattr(arrays, name), t) for name, t in SPLIT_COLUMNS.items()}
    features = columns["entity_features"]
    flat, rounded = features.ravel(), np.empty(features.size)
    for start in range(0, features.size, 16384):  # blocks bound the Python floats alive at once
        part = flat[start : start + 16384].tolist()
        text = ",".join(["%.9g"] * len(part)) % tuple(part)
        rounded[start : start + len(part)] = np.fromiter(map(float, text.split(",")), float, len(part))
    columns["entity_features"] = rounded.reshape(features.shape)
    with write_atomic(path) as fh:
        fh.write(pack_tensors(columns))


def read_scenes(path) -> SplitArrays:
    """The columns of a split archive; a damaged one is a ValidationError."""
    with open(path, "rb") as fh:
        columns, _ = unpack_tensors(fh.read(), path)
    for name, dtype in SPLIT_COLUMNS.items():
        column = columns.get(name)
        rank = 2 if name == "entity_features" else 1
        if column is None or column.dtype != dtype or column.ndim != rank:
            raise ValidationError(f"{path}: no {rank}-d {np.dtype(dtype)} column {name!r}")
    arrays = SplitArrays(**{name: columns[name] for name in SPLIT_COLUMNS})
    fault = _fault(arrays)
    if fault:
        raise ValidationError(f"{path}: {fault}")
    return arrays


def _fault(arrays: SplitArrays) -> str | None:
    """The first invariant the columns of a split break, or None."""
    n_scenes = len(arrays.scene_ids)
    for name in ("scene_offsets", "entity_offsets"):
        offsets = getattr(arrays, name)
        if len(offsets) != n_scenes + 1 or offsets[0] != 0 or (np.diff(offsets) < 0).any():
            return f"{name} must start at 0, never fall and hold {n_scenes + 1} entries"
    n_entities, n_pairs = arrays.entity_offsets[-1], arrays.scene_offsets[-1]
    if any(len(c) != n_entities for c in (arrays.entity_ids, arrays.entity_classes,
                                          arrays.entity_features)):
        return f"entity columns must have {n_entities} rows"
    subj, obj = arrays.subject_row, arrays.object_row
    if any(len(c) != n_pairs for c in (subj, obj, arrays.observed, arrays.hidden)):
        return f"pair columns must have {n_pairs} rows"
    ids = np.sort(arrays.scene_ids)  # not np.unique, which imports numpy.ma
    if (ids[1:] == ids[:-1]).any():
        return "a scene id repeats"
    first = arrays.entity_offsets[arrays.pair_scene]
    last = arrays.entity_offsets[arrays.pair_scene + 1]
    if ((subj < first) | (subj >= last) | (obj < first) | (obj >= last)).any():
        return "a pair names an entity outside its scene"
    if (subj == obj).any():
        return "a pair's subject and object are one entity"
    if (arrays.hidden < 0).any():
        return "a hidden label is negative"
    if ((arrays.observed != BG_INDEX) & (arrays.observed != arrays.hidden)).any():
        return "an observed label differs from its hidden label"
    if not np.isfinite(arrays.entity_features).all():
        return "an entity feature is not finite"
    return None
