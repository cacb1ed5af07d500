"""Golden checkpoints: ``strel pretrain`` and ``strel selftrain`` write
recorded files byte for byte.

A tiny gen → pretrain → selftrain pipeline without the edge learner, run
from a temporary directory with relative paths (each checkpoint echoes the
run config, paths included), must write ``pretrain.ckpt`` and
``selftrain.ckpt`` whose SHA-256 hashes equal the ones in ``GOLDEN``.  A
change to how checkpoints are written must pass this unchanged; only a
change meant to alter the format or the trained numbers may re-record it,
by running this file as a script and pasting its output:

    PYTHONPATH=src python tests/test_golden_checkpoint.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

from strel import cli

FLAGS = [
    "--n-scenes", "60", "--entities-min", "6", "--entities-max", "10",
    "--n-fg-classes", "4", "--feature-dim", "8", "--sibling-groups", "1",
    "--annotated-fraction", "0.2", "--bg-downsample", "0.25", "--pretrain-epochs", "4",
    "--max-iterations", "10", "--batch-size", "8", "--metric-ks", "2,5",
    "--data-dir", "data", "--checkpoint-dir", "ckpt", "--log-dir", "logs",
]
CHECKPOINTS = ("pretrain.ckpt", "selftrain.ckpt")

GOLDEN = {
    'pretrain.ckpt': '6b55f0b6c9cf32a5e6cedbb460862486e704c90a4b027ef3092eef4fe3ab9880',
    'selftrain.ckpt': 'c46378f16be596ec973f55f65c20bb48619a783a7c32f60808d34be71211c1a0',
}


def checkpoint_hashes(root) -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("gen", "pretrain", "selftrain"):
                assert cli.main([command] + FLAGS) == 0
        hashes = {}
        for name in CHECKPOINTS:
            with open(os.path.join("ckpt", name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        return hashes
    finally:
        os.chdir(cwd)


def test_pipeline_writes_the_recorded_checkpoints(tmp_path):
    assert checkpoint_hashes(str(tmp_path)) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        hashes = checkpoint_hashes(root)
    print("GOLDEN = {")
    for name, value in hashes.items():
        print(f"    {name!r}: {value!r},")
    print("}")
