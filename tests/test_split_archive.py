"""The split files ``strel gen`` writes, read back through ``cli.load_split``.

The columns a command loads must equal bit for bit the columns parsed from
the JSONL scene file ``strel gen`` wrote before the split archives: entity
features rounded to 9 significant digits and parsed back, and every integer
column in the dtype that parse gives.  A damaged archive either fails to
load with a ``ValidationError`` or loads a split that keeps every invariant.
A write that fails part-way leaves the earlier file as it was, and loading a
split does not import ``numpy.ma``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strel
from strel import cli, synthgen, tensorio
from strel.errors import ValidationError
from strel.labels import SPLIT_COLUMNS, SplitArrays, write_scenes
from strel.tables import write_columns

from _oracles import read_jsonl, write_jsonl

SPLITS = ("train", "val", "test")
FIELDS = [f.name for f in dataclasses.fields(SplitArrays)]


def generated_splits(rc):
    """The three splits as ``strel gen`` builds them in memory."""
    full = synthgen.generate(rc)
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


class HalfWrite:
    """A file opened for writing whose ``write`` stores half its data, then
    fails as a full disk does."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


WRITERS = {  # each writes a file that grows with n
    "save_tensors": lambda path, n: tensorio.save_tensors(path, {"x": np.arange(n * 100.0)}, {"n": n}),
    "write_scenes": lambda path, n: write_scenes(
        path, generated_splits(cli.RunConfig(n_scenes=20 * n))["train"].arrays
    ),
    "write_columns": lambda path, n: write_columns(path, ("x",), [np.arange(n * 100.0)], {"n": n}),
    "manifest": lambda path, n: cli.write_manifest(path, {"counts": list(range(n * 100))}),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.tns"
    WRITERS[writer](path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(tensorio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](path, 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.tns"]  # no <path>.tmp left
    monkeypatch.undo()
    WRITERS[writer](path, 2)
    assert len(path.read_bytes()) > len(before) and os.listdir(tmp_path) == ["out.tns"]


def test_loading_a_split_does_not_import_numpy_ma(tmp_path):
    """``numpy.ma`` costs about 12 ms and 1 MB to import; the plain
    ``np.unique`` imports it, so neither reading a split nor oversampling
    may call it."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--n-scenes", "60", "--data-dir", str(tmp_path)]) == 0
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from strel import cli\n"
        "from strel.classifier import balanced_resample\n"
        "from strel.rngs import stream\n"
        f"arrays = cli.load_split(cli.RunConfig(data_dir={str(tmp_path)!r}), 'train').arrays\n"
        "rows = np.flatnonzero(arrays.observed)\n"
        "assert len(balanced_resample(rows, arrays.observed[rows], stream(0, 'o'))) == len(rows) > 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(strel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def endpoint_rows(arrays, positions):
    """The pair-feature rows of the given scene positions rebuilt from their
    endpoints' entity features, as message passing reads them."""
    batch = arrays.batches(positions, len(positions), entities=True)[0]
    ents = arrays.entity_features[batch.entities]
    return np.concatenate([ents[batch.subject], ents[batch.object]], axis=1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_scenes=st.integers(10, 30), data=st.data())
def test_pair_features_are_their_endpoints_concatenated(seed, n_scenes, data):
    """The edge learner scores a batch's ``features[rows_of(positions)]``;
    those rows equal the concatenation of the endpoints a one-batch plan of
    ``positions`` gives, bit for bit, in generated splits, in
    ``take``n splits and in loaded splits."""
    with tempfile.TemporaryDirectory() as root:
        argv = ["gen", "--n-scenes", str(n_scenes), "--entities-min", "4", "--entities-max", "7",
                "--gen-seed", str(seed), "--data-dir", root]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        rc = cli.run_config(cli.build_parser().parse_args(argv))
        loaded = {split: cli.load_split(rc, split).arrays for split in SPLITS}
    for split, dataset in generated_splits(rc).items():
        n = len(dataset.arrays.scene_ids)
        positions = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
        for arrays in (dataset.arrays, dataset.arrays.take(positions), loaded[split]):
            every = np.arange(len(arrays.scene_ids))
            for batch in (every, every[::-1]):
                got, want = arrays.features[arrays.rows_of(batch)], endpoint_rows(arrays, batch)
                assert got.dtype == want.dtype and got.shape == want.shape, split
                assert got.tobytes() == want.tobytes(), split
