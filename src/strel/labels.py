"""Relation label space and scene containers.

Index 0 of every probability vector and label field is reserved for the
background class ("no relation").  Foreground classes occupy indices 1..F in
descending training-count order, so a foreground class's label index doubles
as its frequency rank.

All types here are immutable value records and safe to share across
parallel readers.  ``Scene`` is the input/output format; training and
evaluation read a split through ``Dataset.arrays``, the columnar form built
once on first use (see ``SplitArrays``).
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ValidationError

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
    bg_index: int = BG_INDEX

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.bg_index != BG_INDEX:
            raise ValidationError("background class must sit at index 0")
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


@dataclass(frozen=True)
class Dataset:
    scenes: tuple[Scene, ...]
    catalog: PredicateCatalog
    split: str = "train"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenes", tuple(self.scenes))

    @cached_property
    def arrays(self) -> SplitArrays:
        """The split in columnar form, compiled on first use and cached."""
        return compile_split(self.scenes)


@dataclass(frozen=True, eq=False)
class SplitArrays:
    """A split as flat arrays: one row per pair, scenes in split order and
    pairs in scene order, so the rows of scene position ``s`` are
    ``scene_offsets[s]:scene_offsets[s + 1]`` and a row's within-scene index
    is ``pair_index``.  ``subject_row``/``object_row`` number the entities,
    each scene's contiguously.  A pair's features are its endpoints'
    features concatenated (``relation_features``), so entity features are
    read back from the halves of the pair rows that name them.
    """

    features: np.ndarray  # (N, d) pair features
    subject_row: np.ndarray  # (N,) entity rows
    object_row: np.ndarray
    scene_offsets: np.ndarray  # (S + 1,)
    scene_ids: np.ndarray  # (S,)
    pair_scene: np.ndarray  # (N,) scene position of each pair
    pair_index: np.ndarray  # (N,)
    observed: np.ndarray  # (N,) labels
    hidden: np.ndarray

    def rows_of(self, scene_positions: np.ndarray) -> np.ndarray:
        """Pair rows of the given scene positions, scene by scene in order."""
        starts = self.scene_offsets[scene_positions]
        lengths = self.scene_offsets[scene_positions + 1] - starts
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return shift + np.arange(shift.size)

    def entity_table(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features of the entities the given pairs name, one row each, and
        every pair's subject and object row in that table."""
        ids, local = np.unique(
            np.concatenate([self.subject_row[rows], self.object_row[rows]]), return_inverse=True
        )
        subj, obj = local[: len(rows)], local[len(rows) :]
        half = self.features.shape[1] // 2
        table = np.empty((len(ids), half))
        table[subj] = self.features[rows, :half]
        table[obj] = self.features[rows, half:]
        return table, subj, obj


def compile_split(scenes: Sequence[Scene]) -> SplitArrays:
    triplets = [t for scene in scenes for t in scene.triplets]
    if len({t.features.shape for t in triplets}) > 1:
        raise ValidationError("pair features differ in length across the split")
    # four int32 columns per pair: subject row, object row, observed, hidden
    columns = array("i")
    base = 0
    for scene in scenes:
        row = {e.id: base + k for k, e in enumerate(scene.entities)}
        for t in scene.triplets:
            columns.extend((row[t.subject_id], row[t.object_id], t.observed_label, t.hidden_label))
        base += len(scene.entities)
    subj, obj, observed, hidden = np.frombuffer(columns, dtype=np.int32).reshape(-1, 4).T.copy()
    counts = np.array([len(scene.triplets) for scene in scenes], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return SplitArrays(
        features=(
            np.concatenate([t.features for t in triplets]).reshape(len(triplets), -1)
            if triplets else np.zeros((0, 0))
        ),
        subject_row=subj,
        object_row=obj,
        scene_offsets=offsets,
        scene_ids=np.array([scene.scene_id for scene in scenes], dtype=np.intp),
        pair_scene=np.repeat(np.arange(len(scenes), dtype=np.int32), counts),
        pair_index=(np.arange(len(triplets)) - np.repeat(offsets[:-1], counts)).astype(np.int32),
        observed=observed,
        hidden=hidden,
    )


def annotated_counts(scenes: Iterable[Scene], n_foreground: int) -> list[int]:
    """Per-class counts of annotated (non-background) triplets."""
    counts = [0] * n_foreground
    for scene in scenes:
        for t in scene.triplets:
            if t.observed_label != BG_INDEX:
                counts[t.observed_label - 1] += 1
    return counts


def relabel_triplet(t: TripletInstance, mapping: Mapping[int, int]) -> TripletInstance:
    return replace(
        t,
        observed_label=mapping[t.observed_label],
        hidden_label=mapping[t.hidden_label],
    )


def relabel_scene(scene: Scene, mapping: Mapping[int, int]) -> Scene:
    return Scene(
        scene_id=scene.scene_id,
        entities=scene.entities,
        triplets=tuple(relabel_triplet(t, mapping) for t in scene.triplets),
    )


# --- line-delimited serialization ------------------------------------------
#
# One scene per line; entity features carry 9 significant digits, and triplet
# features are rebuilt from the endpoints on read.


def _fmt_features(values: np.ndarray) -> str:
    return "[" + ",".join("%.9g" % v for v in values) + "]"


def scene_to_line(scene: Scene) -> str:
    ent = ",".join(
        '{"id":%d,"class":%d,"features":%s}'
        % (e.id, e.entity_class, _fmt_features(e.features))
        for e in scene.entities
    )
    tri = ",".join(
        '{"subj":%d,"obj":%d,"observed":%d,"hidden":%d}'
        % (t.subject_id, t.object_id, t.observed_label, t.hidden_label)
        for t in scene.triplets
    )
    return '{"scene_id":%d,"entities":[%s],"triplets":[%s]}' % (scene.scene_id, ent, tri)


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


def write_scenes(path, scenes: Iterable[Scene]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(scene_to_line(scene))
            fh.write("\n")


def read_scenes(path) -> tuple[Scene, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(scene_from_line(line) for line in fh if line.strip())
