"""Golden trace: self-training reproduces recorded runs bit for bit.

Every threshold policy runs without the edge learner, and catm runs once
more with it, on a tiny synthetic benchmark: 100 iterations over 20 epochs,
so the dash-adaptive ramp and the valid-interval recompute both fire.  Each
run is reduced to SHA-256 hashes of its assignments, its final parameters
(plus the edge learner's), its tau trajectory and its per-epoch metrics, and
the hashes must equal the ones recorded in ``GOLDEN``.

A refactor of the hot path must pass this unchanged.  Only a change that is
meant to alter results may re-record the table, by running this file as a
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
from strel.cli import RunConfig, generator_config, selftrain_config, train_config
from strel.selftrain import POLICIES, run

RC = RunConfig(
    n_scenes=60,
    batch_size=10,
    pretrain_epochs=2,
    max_iterations=100,
    dash_interval=30,
    valid_recompute_interval=30,
)
RUNS = tuple((p, False) for p in POLICIES) + (("catm", True),)

GOLDEN = {
    ('catm', False): {
        'n_assignments': 1730,
        'assignments': '08281a88f246d453e981004154e0cf2cd3a1de2fb5e7aea02947470ee861ccc5',
        'params': 'bf6d8500d94e88aa3e93f08a561e6fb2ddfd665a7721546cfefdf3bae9983b5a',
        'tau': 'b15c10aa37ee79ca55f54260fb16341c98bd9775e311137487ad3b726c8794d4',
        'epochs': 'ac3ec7dc0e79ea9998d03c8c1a4d7902722bb0bb4318f97f11fb96bfea3ac7dd',
    },
    ('constant', False): {
        'n_assignments': 781,
        'assignments': '26976d1c1550c0a42b97320a2d2bab294419a7921ba600107628d01b7c6bc5e9',
        'params': '54c18f3bfad1d015f0469633248dd9c4bd6b089647bd6f08d48545066145732c',
        'tau': 'a02c78485cc2e15b3f30c9f556fb654880e3714e5377a53908c779f042d4c0be',
        'epochs': '5ca2d5d537bde119082c60c73152389e363657e159083561c142c3116c6da52d',
    },
    ('fixed-class', False): {
        'n_assignments': 1778,
        'assignments': '53f785126877cf4264b135161105a8cbc5be9548b08fcac18d8f9c2989fedc63',
        'params': 'f1a0649b023ce981a48e5064ab25d3321925c5e1f42142f924695d9980767a7e',
        'tau': '9a358c0651d4c797f2d41cd4600ed82281ad0276012e94a766a080209cd9bdee',
        'epochs': 'd12262a7d1b7a2265e6de534ce0409cc9636264fbc84627814178b6dfd1a047c',
    },
    ('freq-weighted', False): {
        'n_assignments': 1865,
        'assignments': '6e09d8912e23cdca1489ad3d278ff1a6795a0f513be02a4457f7399431535ce4',
        'params': '52f94c06e876dab530453c63153b2928c67dfbe70bde0d9f5846ec2b5b98b6ed',
        'tau': '37e327ab90127c7d43ba023e516e1db49feb29e75a3c133c76c7ebe4ee2cc671',
        'epochs': '9423de177f85c24dccb89f0e9ac6cf10f165c18fc3a512493226a1403a06d7cc',
    },
    ('dash-adaptive', False): {
        'n_assignments': 1476,
        'assignments': '8ab473983a5f7a1fd60f6bf01306943efddfbf04f7fa269aaf0918a9de185539',
        'params': 'd0b3d09160e64b09672e020f2573d4b53805de96e6ea0d2d89cde56afac9aea5',
        'tau': 'c5767acb6170f6c1ef60211e5d6843dc408bf9345395d8ec964e7e2859bbb99f',
        'epochs': 'f3f7b03d6cb9475121d5139ccfc5e6e8b3300e92dbdf2b789b5be2e443e2371d',
    },
    ('valid-interval', False): {
        'n_assignments': 939,
        'assignments': '03cd0da08d4ea3d44051cf1a4aa334cc1cda1ec84bcc5ff16adf42e837efd884',
        'params': '6e6d1766d3300bae63b91c8cc51ee65374883e990ccc8c2ff90999053fe7cb8c',
        'tau': 'f1bebb7f3cb4169884bbcc4c7890e247c2411c741e0f3dca064d2c3dff22da26',
        'epochs': '3e93155068a40c09a1bd567030512f1f573b2c01602870afe6ea4eccc82d542e',
    },
    ('never', False): {
        'n_assignments': 0,
        'assignments': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'params': 'c61877b929d6c900892b657cc601631be9405db18784ba01d224a94a3d40145f',
        'tau': 'e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec',
        'epochs': 'ca10fc75dc174a1c137dc9967e75b1dd9dfef836275cc4710c003dd1bcc6230c',
    },
    ('catm', True): {
        'n_assignments': 41,
        'assignments': '604a260e971bd7b4f117f7b28d6b91f1770a5f0ae461335ad1a6746161424f4a',
        'params': 'f3e0bb397ca21e23b92f917a856dafedaa20d013064f734286fc46ccfcb166c4',
        'tau': 'aed2b81872be9d3b6ed73dc53dca95f6e7b5fabef97420a82aebc447c25c00b3',
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
    full = synthgen.generate(generator_config(RC))
    masked = synthgen.mask_annotations(full, RC.annotated_fraction, RC.mask_seed)
    fractions = (RC.train_fraction, RC.val_fraction, RC.test_fraction)
    return synthgen.split(masked, fractions, RC.split_seed)


def run_trace(train, val, params, policy: str, use_gsl: bool) -> dict[str, object]:
    cfg = dataclasses.replace(selftrain_config(RC), policy=policy, use_gsl=use_gsl)
    result = run(params, train, val, cfg, metric_ks=RC.metric_ks)
    return trace_hashes(result, train.catalog.n_foreground)


@pytest.fixture(scope="module")
def pretrained():
    train, val, _ = _splits()
    params, _ = pretrain(train, train_config(RC), val, metric_k=RC.metric_ks[-1])
    return train, val, params


@pytest.mark.parametrize("policy, use_gsl", RUNS, ids=[p + ("+gsl" if g else "") for p, g in RUNS])
def test_run_matches_golden_trace(pretrained, policy, use_gsl):
    train, val, params = pretrained
    assert run_trace(train, val, params, policy, use_gsl) == GOLDEN[(policy, use_gsl)]


if __name__ == "__main__":
    train, val, _ = _splits()
    params, _ = pretrain(train, train_config(RC), val, metric_k=RC.metric_ks[-1])
    print("GOLDEN = {")
    for policy, use_gsl in RUNS:
        hashes = run_trace(train, val, params, policy, use_gsl)
        print(f"    ({policy!r}, {use_gsl}): {{")
        for key, value in hashes.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
    sys.exit(0)
