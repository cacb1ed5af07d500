"""Relation label space, the columnar dataset, and the scene file record.

Index 0 of every probability vector and label field is reserved for the
background class ("no relation").  Foreground classes occupy indices 1..F in
descending training-count order, so a foreground class's label index doubles
as its frequency rank.

The columns are the dataset: a split is a ``SplitArrays``, one row per pair
and one per entity, which the generator fills, masking and splitting gather,
and training and evaluation read through ``Dataset.arrays``.  ``Scene``,
``Entity`` and ``TripletInstance`` are the record of the scene file format:
``read_scenes`` parses them and compiles their columns, ``write_scenes``
writes the lines from the columns, and ``Dataset.scenes`` builds them only
when read.  All types here are immutable and safe to share across parallel
readers.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

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


# --- line-delimited serialization ------------------------------------------
#
# One scene per line; entity features carry 9 significant digits, and pair
# features are rebuilt from the endpoints on read.


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


def write_scenes(path, arrays: SplitArrays) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in scene_lines(arrays))


def read_scenes(path) -> SplitArrays:
    """The columns of a scene file, parsed line by line as scene records."""
    with open(path, "r", encoding="utf-8") as fh:
        return compile_split(scene_from_line(line) for line in fh if line.strip())
