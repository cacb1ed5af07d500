"""Microbenchmarks of the self-training hot path at benchmark size.

One batch of the default benchmark is 20 scenes of about 8 pairs each; the
test split is 400 such scenes.  Each benchmark runs a fixed number of
rounds (``benchmark.pedantic``) so the suite stays fast; compare the
timings across changes with ``pytest tests/test_microbench.py
--benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from strel import synthgen
from strel.classifier import init_params, predict_probs
from strel.cli import RunConfig, generator_config
from strel.edges import gumbel_noise, message_pass, sample_edges
from strel.metrics import evaluate
from strel.rngs import stream
from strel.selftrain import assign_pseudo_labels
from strel.thresholds import ema_update, initial_state, momentum_coefficients

ROUNDS = 30


@pytest.fixture(scope="module")
def split():
    rc = RunConfig(n_scenes=400)
    return synthgen.generate(generator_config(rc))


@pytest.fixture(scope="module")
def batch(split):
    arrays = split.arrays
    rows = arrays.rows_of(np.arange(20))
    params = init_params("linear", arrays.features.shape[1], split.catalog.n_classes, seed=1)
    probs = predict_probs(params, arrays.features[rows])
    keys = np.stack([arrays.pair_scene[rows], arrays.pair_index[rows]], axis=1)
    return rows, keys, np.argmax(probs, axis=1), probs.max(axis=1)


def _run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=ROUNDS, iterations=1)


def test_selection(benchmark, split, batch):
    _, keys, pred, conf = batch
    state = initial_state(momentum_coefficients(split.catalog), split.catalog.n_foreground)
    accepted = _run(benchmark, assign_pseudo_labels, keys, pred, conf, state, 3)
    assert 0 < len(accepted) <= len(keys)


def test_ema_update(benchmark, split, batch):
    _, _, pred, conf = batch
    state = initial_state(momentum_coefficients(split.catalog), split.catalog.n_foreground)
    assert _run(benchmark, ema_update, state, pred, conf).iteration == 1


def test_evaluate(benchmark, split):
    params = init_params("linear", split.arrays.features.shape[1], split.catalog.n_classes, seed=1)
    report = _run(benchmark, evaluate, params, split, (2, 5, 10))
    assert [row.k for row in report.rows] == [2, 5, 10]


def test_sample_edges(benchmark, batch):
    scores = stream(0, "scores").random(len(batch[0]))
    noise = gumbel_noise(stream(0, "noise"), len(scores))
    assert len(_run(benchmark, sample_edges, scores, 0.5, noise)) == len(scores)


def test_message_pass(benchmark, split, batch):
    rows = batch[0]
    ents, subj, obj = split.arrays.entity_table(rows)
    hard = stream(0, "hard").integers(0, 2, size=len(rows))
    out = _run(benchmark, message_pass, ents, subj, obj, hard)
    assert out.shape == (len(rows), 2 * ents.shape[1])
