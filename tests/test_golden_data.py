"""Golden data: ``strel gen`` writes recorded files byte for byte.

A 60-scene ``strel gen`` at the default generator settings, run from a
temporary directory with relative paths (the manifest echoes them), must
write ``train/val/test.tns`` and ``manifest.json`` whose SHA-256 hashes
equal the ones in ``GOLDEN``.  Each split, loaded back and rendered as the
JSONL scene file ``strel gen`` wrote before the split archives (the oracle
``scene_lines``), must also hash as that file did, so the archives carry
the same data bit for bit.  A change to how datasets are generated, masked,
split or written must pass this unchanged; only a change meant to alter
the data may re-record it, by running this file as a script and pasting
its output:

    PYTHONPATH=src python tests/test_golden_data.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

from strel import cli

from _oracles import scene_lines

ARGV = ["gen", "--n-scenes", "60", "--data-dir", "data"]
SPLITS = ("train", "val", "test")

GOLDEN = {
    'train.jsonl': 'c31704a722cb9aec38fde94f0bb1d7e352bcf0a367a9dd29edf235f3d0b2720a',
    'val.jsonl': '6d796d597aba64527970a5e6354db29c66404651f0eb38594d8b6dcd02bd4d7d',
    'test.jsonl': '9538294a1c6f2e99d97cdc82dfa52d63c5f8b47158e232d8f24501c5cbffff22',
    'train.tns': 'ccdb02bc92bc5dcb336dcdd1590405cbe95dd9cbaa8c4a36ddffe0dbcb5fbcda',
    'val.tns': '53b1c72ebea199c2ed7e03147f2c61c9500fe8cb4a98d69a1a800bc02101b77e',
    'test.tns': '2750f3c625b0d9cfbb91da787be4112857e0f170053503c580d1b592fa71fb30',
    'manifest.json': 'c41e5ddce13df882de62e94f26757254c97f49209cc6c7ea6c9abb1aea2951e5',
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gen_hashes(root) -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(ARGV) == 0
        rc = cli.RunConfig(data_dir="data")
        hashes = {}
        for split in SPLITS:
            lines = scene_lines(cli.load_split(rc, split).arrays)
            hashes[f"{split}.jsonl"] = sha256("".join(line + "\n" for line in lines).encode())
        for name in [f"{split}.tns" for split in SPLITS] + ["manifest.json"]:
            with open(os.path.join("data", name), "rb") as fh:
                hashes[name] = sha256(fh.read())
        return hashes
    finally:
        os.chdir(cwd)


def test_gen_writes_the_recorded_files(tmp_path):
    assert gen_hashes(str(tmp_path)) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        hashes = gen_hashes(root)
    print("GOLDEN = {")
    for name, value in hashes.items():
        print(f"    {name!r}: {value!r},")
    print("}")
