"""Content-addressed on-disk cache for generated texts and embeddings.

Entries are written in shards, one file per batched write, so a cold persona
stage writes a handful of files instead of one per user.  A shard is named
by the sha256 of its bytes: writing the same entries again lands on the same
name, and a rerun that finds every key writes nothing.  A shard is an
8-byte magic, a little-endian uint32 header length (no version word, unlike
a checkpoint), a JSON header, then raw little-endian float64 blobs.  The
header maps each key either to its JSON value (under "json") or to the shape
and byte offset of its vector (under "arrays").

Only `*.shard` files are read.  Temp files of an interrupted write and the
per-key `*.json` files of the older layout are ignored, so a cache written by
that layout is rebuilt once.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..util import atomic_write_bytes, content_key

_MAGIC = b"MTAPSHRD"
_SUFFIX = ".shard"


def _encode(entries: Mapping[str, Any]) -> bytes:
    values: dict[str, Any] = {}
    arrays: dict[str, dict] = {}
    blobs: list[bytes] = []
    offset = 0
    for key in sorted(entries):
        value = entries[key]
        if isinstance(value, np.ndarray):
            raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
            arrays[key] = {"shape": list(value.shape), "offset": offset}
            blobs.append(raw)
            offset += len(raw)
        else:
            values[key] = value
    header = json.dumps({"arrays": arrays, "json": values}, sort_keys=True).encode("utf-8")
    return b"".join([_MAGIC, struct.pack("<I", len(header)), header, *blobs])


def _read(path: Path, keys: set[str]) -> dict[str, Any]:
    """The entries of one shard whose key is in `keys`; only their vectors
    are read from disk."""
    with open(path, "rb") as fh:
        prefix = fh.read(len(_MAGIC) + 4)
        if prefix[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path} is not a multitap cache shard")
        (length,) = struct.unpack_from("<I", prefix, len(_MAGIC))
        header = json.loads(fh.read(length).decode("utf-8"))
        base = len(prefix) + length
        found = {key: value for key, value in header["json"].items() if key in keys}
        for key, entry in header["arrays"].items():
            if key in keys:
                shape = entry["shape"]
                fh.seek(base + entry["offset"])
                vector = np.fromfile(fh, dtype="<f8", count=math.prod(shape))
                found[key] = vector.reshape(shape).astype(np.float64, copy=False)
    return found


class JsonCache:
    """Sharded store of JSON values and float64 vectors under one directory.

    Every read and every write is one batched call, and nothing is kept in
    memory between calls."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def get(self, keys: Iterable[str]) -> dict[str, Any] | None:
        """The stored entries among `keys`, or None when none is stored.

        Vectors come back as float64 arrays.  A key stored in several
        shards is read from the first one in name order."""
        wanted = set(keys)
        found: dict[str, Any] = {}
        for path in sorted(self.directory.glob("*" + _SUFFIX)):
            if len(found) == len(wanted):
                break
            found.update(_read(path, wanted - found.keys()))
        return found or None

    def put(self, entries: Mapping[str, Any]) -> None:
        """Write `entries` as one shard; numpy arrays are stored as float64
        vectors, every other value as JSON.  An empty batch writes nothing."""
        if not entries:
            return
        data = _encode(entries)
        name = hashlib.sha256(data).hexdigest() + _SUFFIX
        atomic_write_bytes(self.directory / name, data)


@contextmanager
def cache_batch(
    cache: JsonCache | None, keys: Iterable[str]
) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
    """One batched call: yields `(stored, new)`, the cached entries among
    `keys` and an empty dict for the caller to fill with what it computes.
    `new` is written as one shard on exit, also when the caller fails, so
    finished work survives an interrupted batch.  Without a cache, `stored`
    is empty and nothing is written."""
    stored = (cache.get(keys) if cache is not None else None) or {}
    new: dict[str, Any] = {}
    try:
        yield stored, new
    finally:
        if cache is not None:
            cache.put(new)


__all__ = ["JsonCache", "cache_batch", "content_key"]
