"""Golden trace: self-training reproduces recorded runs bit for bit.

Every threshold policy runs without the edge learner, and catm runs once
more with it, on a tiny synthetic benchmark: 100 iterations over 20 epochs,
so the dash-adaptive ramp and the valid-interval recompute both fire.  Each
run is reduced to SHA-256 hashes of its assignments, its final parameters
(plus the edge learner's), its tau trajectory and its per-epoch metrics, and
the hashes must equal the ones recorded in ``GOLDEN``.

A second test runs ``_oracles.per_term_run``, the loop with one forward and
backward per loss term, beside ``run`` and bounds their difference: the same
assignments and per-epoch metrics, and params, tau and confidences within
``REL_TOL`` of the largest magnitude in each array.

A refactor of the hot path must pass this unchanged.  Only a change that is
meant to alter results, or one that reorders floating-point sums and passes
the tolerance test, may re-record the table, by running this file as a
script and pasting its output:

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from strel import synthgen
from strel.classifier import pretrain
from strel.config import RunConfig
from strel.selftrain import POLICIES, run

from _oracles import per_term_run

RC = RunConfig(
    n_scenes=60,
    batch_size=10,
    pretrain_epochs=2,
    max_iterations=100,
    dash_interval=30,
    valid_recompute_interval=30,
)
RUNS = tuple((p, False) for p in POLICIES) + (("catm", True),)
RUN_IDS = [p + ("+gsl" if g else "") for p, g in RUNS]
REL_TOL = 1e-12

GOLDEN = {
    ('catm', False): {
        'n_assignments': 1730,
        'assignments': '16215dc011b715453618f25635ead9ca74d605e5c1f79f3c123f20532fc7f07d',
        'params': '72adacfc8050686045d46775960dce40b568eedcc0a50d88f00ec762139aefa1',
        'tau': 'ac61673a63e63dcd6ccdc8447ca8ccc5fc00f88ec0884805ee7ee2968fa7cb6a',
        'epochs': 'ac3ec7dc0e79ea9998d03c8c1a4d7902722bb0bb4318f97f11fb96bfea3ac7dd',
    },
    ('constant', False): {
        'n_assignments': 781,
        'assignments': '2870fc43ea630b097108f01a420c4e6e460596d2dd4144c207a87c30d108f873',
        'params': '5cec121f8ab750dfaccff35f5cf1f968afa736a7c5cc8b594e84a5e32243ae78',
        'tau': 'a02c78485cc2e15b3f30c9f556fb654880e3714e5377a53908c779f042d4c0be',
        'epochs': '5ca2d5d537bde119082c60c73152389e363657e159083561c142c3116c6da52d',
    },
    ('fixed-class', False): {
        'n_assignments': 1778,
        'assignments': '5115fcabe1bb98918da3cf4b8c222204c05a62344c2aecfb93ec053c999e3858',
        'params': '835dcabcc886084cadd84f683e8e11af5586eb46a115f19aede5856b73063b99',
        'tau': '9a358c0651d4c797f2d41cd4600ed82281ad0276012e94a766a080209cd9bdee',
        'epochs': 'd12262a7d1b7a2265e6de534ce0409cc9636264fbc84627814178b6dfd1a047c',
    },
    ('freq-weighted', False): {
        'n_assignments': 1865,
        'assignments': 'b61eb0c09d83b5511561bd49b11ec08ce1f329db34d0caadd0f0bcd5554419c1',
        'params': '4a30e389b515c8f4590cddff92516d7d44c46905fcc108f5dc7b6ef6489edb5e',
        'tau': '37e327ab90127c7d43ba023e516e1db49feb29e75a3c133c76c7ebe4ee2cc671',
        'epochs': '9423de177f85c24dccb89f0e9ac6cf10f165c18fc3a512493226a1403a06d7cc',
    },
    ('dash-adaptive', False): {
        'n_assignments': 1476,
        'assignments': '70fc7e66d50e9605f555b454081270ddbe1b9076757d4d3ae1f496f6fed094d6',
        'params': '8cd37bdacb59b57dbe4768a7ed57eb33a891490362c96bc6a99570f8585867c5',
        'tau': 'c5767acb6170f6c1ef60211e5d6843dc408bf9345395d8ec964e7e2859bbb99f',
        'epochs': 'f3f7b03d6cb9475121d5139ccfc5e6e8b3300e92dbdf2b789b5be2e443e2371d',
    },
    ('valid-interval', False): {
        'n_assignments': 939,
        'assignments': '2126f77b294f410173644900978b11d10f876932f0ab997e8a0fe74d7fc76e81',
        'params': 'daa8d574964217ce3386d86e503dd13d206270f4dad439193742b48cce5c671a',
        'tau': '66a94f4fe45cfb83d84d11ee93e3ff414d593fda29e4b4eb6f3764b3e1f1dd92',
        'epochs': '3e93155068a40c09a1bd567030512f1f573b2c01602870afe6ea4eccc82d542e',
    },
    ('never', False): {
        'n_assignments': 0,
        'assignments': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'params': 'f9dfcfc95ec0c7bacdea1c8e27afde722620e3abffda6157d60c75743bb546d3',
        'tau': 'e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec',
        'epochs': 'ca10fc75dc174a1c137dc9967e75b1dd9dfef836275cc4710c003dd1bcc6230c',
    },
    ('catm', True): {
        'n_assignments': 41,
        'assignments': '7737e37f82c10e66f3fca5bd24b46f5e124e29a2509278ae0e2fb4f34d690e2b',
        'params': 'fd8fa92db893e1f2754717ecd9d7e6e7ffda1177758910496d0fc085f41e3b41',
        'tau': '009452b894b8368fb533a1e571a6668ade71b3c826865ee0530dbb28807bd23e',
        'epochs': '0f54bc7a010e9ee619c92b86e55a9d9e057e871b1ec014aeb7802c416842d36a',
    },
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def trace_hashes(result, n_fg: int) -> dict[str, object]:
    ints = np.array(
        [(a.iteration, a.scene_id, a.triplet_index, a.assigned_class) for a in result.assignments],
        dtype=np.int64,
    ).reshape(-1, 4)
    conf = np.array([a.confidence for a in result.assignments], dtype=np.float64)
    layers = [a for wb in result.params.layers for a in wb]
    if result.edge_learner is not None:
        layers += [a for wb in result.edge_learner.net.layers for a in wb]
    tau = np.array([r.tau for r in result.log.iterations], dtype=np.float64).reshape(-1, n_fg)
    epochs = np.array(
        [
            (e.epoch, e.iterations_done, k, *e.metrics[k])
            for e in result.log.epochs
            for k in sorted(e.metrics)
        ],
        dtype=np.float64,
    )
    return {
        "n_assignments": len(ints),
        "assignments": _sha(ints, conf),
        "params": _sha(*layers),
        "tau": _sha(tau),
        "epochs": _sha(epochs),
    }


def _splits():
    full = synthgen.generate(RC)
    masked = synthgen.mask_annotations(full, RC.annotated_fraction, RC.mask_seed)
    fractions = (RC.train_fraction, RC.val_fraction, RC.test_fraction)
    return synthgen.split(masked, fractions, RC.split_seed)


def run_trace(train, val, params, policy: str, use_gsl: bool) -> dict[str, object]:
    cfg = dataclasses.replace(RC, policy=policy, use_gsl=use_gsl)
    result = run(params, train, val, cfg, metric_ks=RC.metric_ks)
    return trace_hashes(result, train.catalog.n_foreground)


@pytest.fixture(scope="module")
def pretrained():
    train, val, _ = _splits()
    params, _ = pretrain(train, RC, val, metric_k=RC.metric_ks[-1])
    return train, val, params


@pytest.mark.parametrize("policy, use_gsl", RUNS, ids=RUN_IDS)
def test_run_matches_golden_trace(pretrained, policy, use_gsl):
    train, val, params = pretrained
    assert run_trace(train, val, params, policy, use_gsl) == GOLDEN[(policy, use_gsl)]


def _assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= REL_TOL * np.max(np.abs(expected), initial=0.0)


@pytest.mark.parametrize("policy, use_gsl", RUNS, ids=RUN_IDS)
def test_run_within_tolerance_of_per_term_reference(pretrained, policy, use_gsl):
    train, val, params = pretrained
    cfg = dataclasses.replace(RC, policy=policy, use_gsl=use_gsl)
    result = run(params, train, val, cfg, metric_ks=RC.metric_ks)
    ref = per_term_run(params, train, val, cfg, RC.metric_ks)
    log = result.assignments
    keys = np.stack([log.iteration, log.scene_id, log.triplet_index, log.assigned_class], axis=1)
    assert np.array_equal(keys.reshape(-1, 4), ref["keys"])
    _assert_close(log.confidence, ref["confidence"])
    tau = np.array([r.tau for r in result.log.iterations]).reshape(ref["tau"].shape)
    _assert_close(tau, ref["tau"])
    layers = [a for wb in result.params.layers for a in wb]
    ref_layers = [a for wb in ref["params"].layers for a in wb]
    if use_gsl:
        layers += [a for wb in result.edge_learner.net.layers for a in wb]
        ref_layers += [a for wb in ref["edge_learner"].net.layers for a in wb]
    for a, b in zip(layers, ref_layers, strict=True):
        _assert_close(a, b)
    epochs = [
        (e.epoch, e.iterations_done, k, *e.metrics[k])
        for e in result.log.epochs
        for k in sorted(e.metrics)
    ]
    assert np.array_equal(np.array(epochs, dtype=np.float64), ref["epochs"])


if __name__ == "__main__":
    train, val, _ = _splits()
    params, _ = pretrain(train, RC, val, metric_k=RC.metric_ks[-1])
    print("GOLDEN = {")
    for policy, use_gsl in RUNS:
        hashes = run_trace(train, val, params, policy, use_gsl)
        print(f"    ({policy!r}, {use_gsl}): {{")
        for key, value in hashes.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
    sys.exit(0)
