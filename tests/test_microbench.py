"""Microbenchmarks of the self-training hot path at benchmark size.

One batch of the default benchmark is 20 scenes of about 8 pairs each; the
test split is 400 such scenes.  ``test_selftrain_step`` times one whole
self-training iteration: batch gather, forward, selection, loss, backward,
threshold update and parameter step; ``test_gumbel_batch`` draws one epoch's
edge noise as ``selftrain.run`` does: one ``rngs.streams`` derivation of the
epoch's (iteration, scene id) keys, consumed batch by batch, one stream per
scene (20 batches over the 400 scenes; divide by 20 for one batch).
``test_scene_streams`` builds the 2,000 per-scene generators of the default
benchmark as ``synthgen.generate`` does.  ``test_write_assignments`` and
``test_read_assignments`` write and parse an assignment table of the size
catm logs on the default benchmark (85,120 rows).  ``test_setup`` generates,
masks and splits the default 2,000-scene benchmark, and ``test_load_split``
loads its three split archives as every CLI command does.  Each benchmark runs a
fixed number of rounds (``benchmark.pedantic``) so the suite stays fast;
compare the timings across changes with ``pytest tests/test_microbench.py
--benchmark-only``.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from strel import cli, synthgen
from strel.classifier import class_weights, forward_probs, init_params, predict_probs, sgd_step
from strel.config import RunConfig
from strel.edges import batch_gumbel_noise, gumbel_noise, message_pass, sample_edges
from strel.metrics import AssignmentLog, AssignmentRecord, evaluate
from strel.rngs import children, stream, streams
from strel.selftrain import assign_pseudo_labels, build_thresholds, partition_batch, three_term_loss
from strel.tables import read_columns, write_columns
from strel.thresholds import ema_update

ROUNDS = 30
IO_ROUNDS = 5
SETUP_ROUNDS = 3


RC = RunConfig(n_scenes=400)


@pytest.fixture(scope="module")
def split():
    return synthgen.generate(RC)


@pytest.fixture(scope="module")
def batch(split):
    arrays = split.arrays
    rows = arrays.rows_of(np.arange(20))
    params = init_params("linear", arrays.features.shape[1], split.catalog.n_classes, seed=1)
    probs = predict_probs(params, arrays.features[rows])
    keys = np.stack([arrays.pair_scene[rows], arrays.pair_index[rows]], axis=1)
    return rows, keys, np.argmax(probs, axis=1), probs.max(axis=1)


def _run(benchmark, fn, *args, rounds=ROUNDS):
    return benchmark.pedantic(fn, args=args, rounds=rounds, iterations=1)


ASSIGNMENT_DTYPES = (np.int64,) * 4 + (np.float64,)


@pytest.fixture(scope="module")
def assignments():
    """85,120 pseudo-labels over 1,500 iterations, as catm logs them."""
    rng = stream(0, "assignments")
    n = 85_120
    return AssignmentLog(
        np.sort(rng.integers(0, 1500, n)),
        rng.integers(0, 1400, n),
        rng.integers(0, 90, n),
        rng.integers(1, 11, n),
        rng.uniform(0.5, 1.0, n),
    )


def _write_assignments(path, log):
    columns = [getattr(log, f) for f in AssignmentRecord._fields]
    write_columns(path, AssignmentRecord._fields, columns, RC.echo())


def test_selection(benchmark, split, batch):
    _, keys, pred, conf = batch
    state = build_thresholds(RC, split.catalog, None, None)
    accepted = _run(benchmark, assign_pseudo_labels, keys, pred, conf, state, 3)
    assert 0 < len(accepted) <= len(keys)


def test_ema_update(benchmark, split, batch):
    _, _, pred, conf = batch
    state = build_thresholds(RC, split.catalog, None, None)
    assert _run(benchmark, ema_update, state, pred, conf).step == 1


def test_evaluate(benchmark, split):
    params = init_params("linear", split.arrays.features.shape[1], split.catalog.n_classes, seed=1)
    report = _run(benchmark, evaluate, params, split, (2, 5, 10))
    assert [row.k for row in report.rows] == [2, 5, 10]


def test_sample_edges(benchmark, batch):
    scores = stream(0, "scores").random(len(batch[0]))
    noise = gumbel_noise(stream(0, "noise").random(len(scores)))
    assert len(_run(benchmark, sample_edges, scores, noise)) == len(scores)


def test_gumbel_batch(benchmark, split):
    """The edge learner's noise for one epoch of 20-scene batches, one
    stream each, derived once for the epoch."""
    arrays = split.arrays
    sizes = np.diff(arrays.scene_offsets).tolist()
    iterations = np.arange(len(sizes)) // 20
    keys = np.stack([iterations, arrays.scene_ids], axis=1)

    def epoch():
        rngs = streams(0, "gumbel", keys=keys)
        return [batch_gumbel_noise(rngs, sizes[b : b + 20]) for b in range(0, len(sizes), 20)]

    noise = _run(benchmark, epoch)
    assert len(noise) == 20 and sum(map(len, noise)) == sum(sizes)
    first = gumbel_noise(stream(0, "gumbel", 1, 20).random(sizes[20]))  # batch 1's first scene
    assert np.array_equal(noise[1][: sizes[20]], first)


def test_scene_streams(benchmark):
    """The default benchmark's 2,000 scene generators, derived at once."""
    rc = RunConfig()

    def scene_streams():
        return list(children(rc.gen_seed, (1,), rc.n_scenes))

    assert len(_run(benchmark, scene_streams, rounds=SETUP_ROUNDS)) == rc.n_scenes


def test_message_pass(benchmark, split, batch):
    planned = split.arrays.batches(np.arange(20), 20, entities=True)[0]  # the scenes of ``batch``
    ents = split.arrays.entity_features[planned.entities]
    hard = stream(0, "hard").integers(0, 2, size=len(batch[0]))
    out = _run(benchmark, message_pass, ents, planned.subject, planned.object, hard)
    assert out.shape == (len(batch[0]), 2 * ents.shape[1])


def test_selftrain_step(benchmark, split):
    train = synthgen.mask_annotations(split, RC.annotated_fraction, RC.mask_seed)
    arrays, n_fg = train.arrays, train.catalog.n_foreground
    params = init_params("linear", arrays.features.shape[1], train.catalog.n_classes, seed=1)
    state = build_thresholds(RC, train.catalog, None, None)
    w = class_weights(train.catalog, "none")

    def step():  # the body of one ``selftrain.run`` iteration without the edge learner
        rows = arrays.rows_of(np.arange(20))
        observed = arrays.observed[rows]
        ann, un = (np.asarray(side, dtype=np.intp) for side in partition_batch(observed))
        forward = forward_probs(params, arrays.features[rows])
        probs = forward[0][un]
        pred, conf = np.argmax(probs, axis=1), probs.max(axis=1)
        keys = np.stack([arrays.pair_scene[rows[un]], arrays.pair_index[rows[un]]], axis=1)
        accepted = assign_pseudo_labels(keys, pred, conf, state, 3)
        _, grads, _ = three_term_loss(
            params, forward, (ann, observed[ann]), np.delete(un, accepted),
            (un[accepted], pred[accepted]), w, 1.0,
        )
        return accepted, ema_update(state, pred, conf), sgd_step(params, grads, 0.5)

    accepted, _, _ = _run(benchmark, step)
    assert len(accepted) > 0


def test_write_assignments(benchmark, assignments, tmp_path):
    path = tmp_path / "assignments.csv"
    _run(benchmark, _write_assignments, path, assignments, rounds=IO_ROUNDS)
    assert path.stat().st_size > 0


def test_read_assignments(benchmark, assignments, tmp_path):
    path = tmp_path / "assignments.csv"
    _write_assignments(path, assignments)
    columns = _run(benchmark, read_columns, path, AssignmentRecord._fields, ASSIGNMENT_DTYPES,
                   rounds=IO_ROUNDS)
    assert AssignmentLog(*columns) == assignments


def test_setup(benchmark):
    rc = RunConfig()
    fractions = (rc.train_fraction, rc.val_fraction, rc.test_fraction)

    def setup():
        full = synthgen.generate(rc)
        masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
        return synthgen.split(masked, fractions, rc.split_seed)

    train, val, test = _run(benchmark, setup, rounds=SETUP_ROUNDS)
    assert sum(len(d.arrays.scene_ids) for d in (train, val, test)) == rc.n_scenes


def test_load_split(benchmark, tmp_path):
    rc = RunConfig(data_dir=str(tmp_path))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--data-dir", rc.data_dir]) == 0

    def load():
        return [cli.load_split(rc, split) for split in ("train", "val", "test")]

    splits = _run(benchmark, load, rounds=SETUP_ROUNDS)
    assert sum(len(d.arrays.scene_ids) for d in splits) == rc.n_scenes
