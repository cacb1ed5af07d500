import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

from strel.labels import Entity, PredicateCatalog, make_scene  # noqa: E402


@pytest.fixture
def tiny_catalog() -> PredicateCatalog:
    return PredicateCatalog(class_names=("bg", "a", "b", "c"), counts=(50, 40, 10))


def iter_triplets(dataset):
    """Every pair of a dataset, scene by scene."""
    return (t for scene in dataset.scenes for t in scene.triplets)


def assert_records_equal(a, b):
    """Two scene records (or entities, or triplets) agree field by field,
    arrays bit for bit."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        elif isinstance(x, tuple):
            assert len(x) == len(y)
            for u, v in zip(x, y):
                assert_records_equal(u, v)
        else:
            assert x == y, field.name


def build_scene(scene_id, labels, rng=None, dim=4, observed=None):
    """Hand-built scene: one dedicated entity pair per label."""
    rng = rng or np.random.default_rng(0)
    entities, pairs = [], []
    for j, hidden in enumerate(labels):
        sid, oid = 2 * j, 2 * j + 1
        entities.append(Entity(sid, 0, rng.standard_normal(dim)))
        entities.append(Entity(oid, 0, rng.standard_normal(dim)))
        obs = hidden if observed is None else observed[j]
        pairs.append((sid, oid, obs, hidden))
    return make_scene(scene_id, entities, pairs)


def build_shared_scene(scene_id, rng, n_entities, n_pairs, n_fg=3, dim=3):
    """Scene of random distinct ordered pairs, so pairs may share endpoints;
    entities that no chosen pair names stay isolated."""
    entities = [Entity(i, 0, rng.standard_normal(dim)) for i in range(n_entities)]
    ordered = [(a, b) for a in range(n_entities) for b in range(n_entities) if a != b]
    pairs = []
    for c in rng.choice(len(ordered), size=min(n_pairs, len(ordered)), replace=False):
        hidden = int(rng.integers(0, n_fg + 1))
        observed = hidden if rng.random() < 0.3 else 0
        pairs.append((*ordered[int(c)], observed, hidden))
    return make_scene(scene_id, entities, pairs)


@pytest.fixture
def scene_factory():
    return build_scene
