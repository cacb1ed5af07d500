"""Bit-exact tensor archives for checkpoints.

Layout: 8-byte magic, 8-byte little-endian header length, a UTF-8 JSON
header (metadata plus a tensor index), then the raw tensor payloads
concatenated in index order.  Saving the same tensors and metadata twice
yields byte-identical files, and a load/save round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from typing import Mapping

import numpy as np

from .errors import ValidationError

MAGIC = b"TNSRCHK1"


def save_tensors(path, tensors: Mapping[str, np.ndarray], meta: Mapping | None = None) -> None:
    names = sorted(tensors)
    index = []
    for name in names:
        arr = np.ascontiguousarray(tensors[name])
        index.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
    header = json.dumps(
        {"meta": dict(meta or {}), "tensors": index},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name]).tobytes())


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_tensors`; a damaged archive is a ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC or len(data) < len(MAGIC) + 8:
        raise ValidationError(f"not a tensor archive: {path}")
    start = len(MAGIC) + 8
    (hlen,) = struct.unpack("<Q", data[len(MAGIC) : start])
    try:
        header = json.loads(data[start : start + hlen].decode("utf-8"))
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
    except (ValueError, KeyError, TypeError) as exc:  # bad header JSON or fields
        raise ValidationError(f"corrupt tensor archive header: {path}: {exc}") from exc
