"""Bit-exact tensor archives for checkpoints and dataset splits.

Layout: 8-byte magic, 8-byte little-endian header length, a UTF-8 JSON
header (metadata plus a tensor index), then the raw tensor payloads
concatenated in index order.  Saving the same tensors and metadata twice
yields byte-identical files, and a load/save round trip is bit-exact.
``pack_tensors`` and ``unpack_tensors`` are the same format as bytes;
``labels`` reads and writes split files through them, so that a split file
is one I/O call, not two nested ones, in ``perfbench``'s traced byte counts.
Both write through ``write_atomic``, as do the CSV tables and the
manifest: a failed write leaves the old file.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from typing import Mapping

import numpy as np

from .errors import ValidationError

MAGIC = b"TNSRCHK1"


def pack_tensors(tensors: Mapping[str, np.ndarray], meta: Mapping | None = None) -> bytes:
    """The archive of ``tensors`` and ``meta``, as bytes."""
    names = sorted(tensors)
    arrays = [np.ascontiguousarray(tensors[name]) for name in names]
    index = [
        {"name": name, "dtype": str(a.dtype), "shape": list(a.shape)} for name, a in zip(names, arrays)
    ]
    header = json.dumps(
        {"meta": dict(meta or {}), "tensors": index},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<Q", len(header)), header, *(a.tobytes() for a in arrays)])


@contextmanager
def write_atomic(path, mode: str = "wb", **kwargs):
    """A handle to a sibling ``<path>.tmp``, opened with ``mode`` and
    ``kwargs``, that is renamed over ``path`` when the block ends; on any
    failure the temp file goes and ``path`` keeps its old contents."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_tensors(path, tensors: Mapping[str, np.ndarray], meta: Mapping | None = None) -> None:
    with write_atomic(path) as fh:
        fh.write(pack_tensors(tensors, meta))


def unpack_tensors(data: bytes, path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`pack_tensors`; a damaged archive is a ValidationError
    naming ``path``."""
    if data[: len(MAGIC)] != MAGIC or len(data) < len(MAGIC) + 8:
        raise ValidationError(f"not a tensor archive: {path}")
    start = len(MAGIC) + 8
    (hlen,) = struct.unpack("<Q", data[len(MAGIC) : start])
    try:
        header = json.loads(data[start : start + hlen].decode("utf-8"))
        if not isinstance(header, dict) or not isinstance(header["meta"], dict):
            raise ValidationError(f"corrupt tensor archive header: {path}: not a JSON object")
        offset = start + hlen
        tensors = {}
        for entry in header["tensors"]:
            dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
            count = int(np.prod(shape))
            if offset + count * dtype.itemsize > len(data):
                raise ValidationError(f"truncated tensor archive: {path}")
            tensors[entry["name"]] = np.frombuffer(data, dtype, count, offset).reshape(shape).copy()
            offset += count * dtype.itemsize
        return tensors, header["meta"]
    except ValidationError:
        raise
    # bad header JSON or fields; numpy parses a dtype string such as ",nt64"
    # with ast.literal_eval, which raises SyntaxError
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        raise ValidationError(f"corrupt tensor archive header: {path}: {exc}") from exc


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_tensors`; a damaged archive is a ValidationError."""
    with open(path, "rb") as fh:
        return unpack_tensors(fh.read(), path)
