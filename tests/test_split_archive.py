"""The split files ``strel gen`` writes, read back through ``cli.load_split``.

The columns a command loads must equal bit for bit the columns parsed from
the JSONL scene file ``strel gen`` wrote before the split archives: entity
features rounded to 9 significant digits and parsed back, and every integer
column in the dtype that parse gives.  A damaged archive either fails to
load with a ``ValidationError`` or loads a split that keeps every invariant.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel import cli, synthgen
from strel.errors import ValidationError
from strel.labels import SPLIT_COLUMNS, SplitArrays

from _oracles import read_jsonl, write_jsonl

SPLITS = ("train", "val", "test")
FIELDS = [f.name for f in dataclasses.fields(SplitArrays)]


def generated_splits(rc):
    """The three splits as ``strel gen`` builds them in memory."""
    full = synthgen.generate(cli.generator_config(rc))
    masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
    fractions = (rc.train_fraction, rc.val_fraction, rc.test_fraction)
    return dict(zip(SPLITS, synthgen.split(masked, fractions, rc.split_seed)))


@pytest.mark.parametrize("n_scenes", [60, cli.RunConfig.n_scenes])
def test_loaded_columns_equal_the_parsed_jsonl(tmp_path, n_scenes):
    rc = cli.RunConfig(n_scenes=n_scenes, data_dir=str(tmp_path / "data"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--n-scenes", str(n_scenes), "--data-dir", rc.data_dir]) == 0
    for split, dataset in generated_splits(rc).items():
        write_jsonl(tmp_path / f"{split}.jsonl", dataset.arrays)
        want = read_jsonl(tmp_path / f"{split}.jsonl")
        loaded = cli.load_split(rc, split)
        assert loaded.catalog == dataset.catalog
        for name in FIELDS:
            got, expected = getattr(loaded.arrays, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, (split, name)
            assert got.tobytes() == expected.tobytes(), (split, name)
        # the 9-digit rounding is what the file edge changes; nothing else is
        np.testing.assert_allclose(want.entity_features, dataset.arrays.entity_features, rtol=1e-8)


def assert_split_invariants(arrays, n_foreground):
    """The split file's invariants, checked scene by scene and pair by pair."""
    for name, dtype in SPLIT_COLUMNS.items():
        assert getattr(arrays, name).dtype == np.dtype(dtype), name
    n_scenes = len(arrays.scene_ids)
    assert len(set(arrays.scene_ids.tolist())) == n_scenes
    pairs, entities = arrays.scene_offsets.tolist(), arrays.entity_offsets.tolist()
    assert len(pairs) == len(entities) == n_scenes + 1 and pairs[0] == entities[0] == 0
    assert arrays.entity_features.ndim == 2 and np.isfinite(arrays.entity_features).all()
    for name in ("entity_ids", "entity_classes", "entity_features"):
        assert len(getattr(arrays, name)) == entities[-1], name
    for name in ("subject_row", "object_row", "observed", "hidden"):
        assert len(getattr(arrays, name)) == pairs[-1], name
    for s in range(n_scenes):
        assert pairs[s] <= pairs[s + 1] and entities[s] <= entities[s + 1]
        for r in range(pairs[s], pairs[s + 1]):
            subj, obj = int(arrays.subject_row[r]), int(arrays.object_row[r])
            assert entities[s] <= subj < entities[s + 1] and entities[s] <= obj < entities[s + 1]
            assert subj != obj
            hidden, observed = int(arrays.hidden[r]), int(arrays.observed[r])
            assert 0 <= hidden <= n_foreground and observed in (0, hidden)


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    """The val split archive of a 20-scene generation, and a run config whose
    data directory holds its manifest, for damaged copies of the archive."""
    root = tmp_path_factory.mktemp("small")
    argv = ["gen", "--n-scenes", "20", "--entities-min", "4", "--entities-max", "6",
            "--feature-dim", "4", "--n-fg-classes", "3", "--sibling-groups", "1",
            "--data-dir", str(root / "data")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    damaged = root / "damaged"
    damaged.mkdir()
    shutil.copy(root / "data" / "manifest.json", damaged / "manifest.json")
    return (root / "data" / "val.tns").read_bytes(), cli.RunConfig(data_dir=str(damaged))


@given(data=st.data())
def test_damaged_archive_fails_or_loads_a_valid_split(small_split, data):
    """Any byte flip or truncation either raises ValidationError from
    ``load_split`` or loads columns that keep every invariant."""
    archive, rc = small_split
    position = data.draw(st.integers(0, len(archive) - 1))
    if data.draw(st.booleans()):
        damaged = archive[:position]
    else:
        flipped = archive[position] ^ data.draw(st.integers(1, 255))
        damaged = archive[:position] + bytes([flipped]) + archive[position + 1 :]
    with open(os.path.join(rc.data_dir, "val.tns"), "wb") as fh:
        fh.write(damaged)
    try:
        dataset = cli.load_split(rc, "val")
    except ValidationError:
        return
    assert_split_invariants(dataset.arrays, dataset.catalog.n_foreground)
