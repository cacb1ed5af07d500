"""Golden data: ``strel gen`` writes recorded files byte for byte.

A 60-scene ``strel gen`` at the default generator settings, run from a
temporary directory with relative paths (the manifest echoes them), must
write ``train/val/test.jsonl`` and ``manifest.json`` whose SHA-256 hashes
equal the ones in ``GOLDEN``.  A change to how datasets are generated,
masked, split or written must pass this unchanged; only a change meant to
alter the data may re-record it, by running this file as a script and
pasting its output:

    PYTHONPATH=src python tests/test_golden_data.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

from strel import cli

ARGV = ["gen", "--n-scenes", "60", "--data-dir", "data"]
FILES = ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json")

GOLDEN = {
    'train.jsonl': 'c31704a722cb9aec38fde94f0bb1d7e352bcf0a367a9dd29edf235f3d0b2720a',
    'val.jsonl': '6d796d597aba64527970a5e6354db29c66404651f0eb38594d8b6dcd02bd4d7d',
    'test.jsonl': '9538294a1c6f2e99d97cdc82dfa52d63c5f8b47158e232d8f24501c5cbffff22',
    'manifest.json': 'c41e5ddce13df882de62e94f26757254c97f49209cc6c7ea6c9abb1aea2951e5',
}


def gen_hashes(root) -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(ARGV) == 0
    finally:
        os.chdir(cwd)
    return {
        name: hashlib.sha256(open(os.path.join(root, "data", name), "rb").read()).hexdigest()
        for name in FILES
    }


def test_gen_writes_the_recorded_files(tmp_path):
    assert gen_hashes(str(tmp_path)) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        hashes = gen_hashes(root)
    print("GOLDEN = {")
    for name, value in hashes.items():
        print(f"    {name!r}: {value!r},")
    print("}")
