"""Content-addressed on-disk cache for generated texts and embeddings.

Entries are written in shards, one file per batched write, so a cold persona
stage writes four per domain (its description, its persona texts, their
vectors and its item vectors) instead of one per entry.  A shard is named
by the sha256 of its bytes: writing the same entries again lands on the same
name, and a rerun that finds every key writes nothing.  A shard is the
checkpoint container of `diffkit.pack_container`: vectors are its named
float64 arrays and every other value sits in its "json" header map, so a
lookup reads the header and seeks only the vectors it wants.

Only `*.pack` files are read.  Temp files of an interrupted write, the
`*.shard` files of the previous shard format and the per-key `*.json` files
of the layout before it are ignored, so a cache written by either older
layout is rebuilt once.  A damaged shard holds nothing: a warning names it,
the shard is deleted, and the entries looked up in it are computed and
written again.  A batch that writes the same entries writes the same bytes,
so such a shard comes back whole under its own name.
"""

from __future__ import annotations

import hashlib
import logging
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..diffkit import pack_container, read_container
from ..util import atomic_write_bytes

logger = logging.getLogger(__name__)

_SUFFIX = ".pack"


class JsonCache:
    """Sharded store of JSON values and float64 vectors under one directory.

    Every read and every write is one batched call, and nothing is kept in
    memory between calls."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def get(self, keys: Iterable[str]) -> dict[str, Any] | None:
        """The stored entries among `keys`, or None when none is stored.

        Vectors come back as float64 arrays.  A key stored in several
        shards is read from the first readable one in name order."""
        wanted = set(keys)
        found: dict[str, Any] = {}
        for path in sorted(self.directory.glob("*" + _SUFFIX)):
            if len(found) == len(wanted):
                break
            try:
                arrays, values = read_container(path, wanted - found.keys())
            except ValueError as exc:  # bad magic, a header or arrays cut short
                logger.warning("cache shard cannot be read, deleting it and recomputing: %s", exc)
                path.unlink(missing_ok=True)
                continue
            found.update(values)
            found.update(arrays)
        return found or None

    def put(self, entries: Mapping[str, Any]) -> None:
        """Write `entries` as one shard; numpy arrays are stored as float64
        vectors, every other value as JSON.  An empty batch writes nothing."""
        if not entries:
            return
        arrays = {key: value for key, value in entries.items() if isinstance(value, np.ndarray)}
        parts = pack_container(arrays, {k: v for k, v in entries.items() if k not in arrays})
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        atomic_write_bytes(self.directory / (digest.hexdigest() + _SUFFIX), *parts)


@contextmanager
def cache_batch(
    cache: JsonCache, keys: Iterable[str]
) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
    """One batched call: yields `(stored, new)`, the cached entries among
    `keys` and an empty dict for the caller to fill with what it computes.
    `new` is written as one shard on exit, also when the caller fails, so
    finished work survives an interrupted batch."""
    stored = cache.get(keys) or {}
    new: dict[str, Any] = {}
    try:
        yield stored, new
    finally:
        cache.put(new)


__all__ = ["JsonCache", "cache_batch"]
