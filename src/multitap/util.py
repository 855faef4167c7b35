"""Small shared helpers: canonical JSON, hashing, atomic file writes, least
values of settings."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any


def canonical_json(obj: Any) -> str:
    """Serialize to a stable byte-for-byte JSON form (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def content_key(obj: Any) -> str:
    """Content-address an arbitrary JSON-serializable object."""
    return sha256_hex(canonical_json(obj))


def atomic_write_bytes(path: str | Path, *chunks: bytes | memoryview) -> None:
    """Write `chunks` one after another to a temp file in the same
    directory, then rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj: Any) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> Any:
    with open(path, "rb") as fh:
        return json.loads(fh.read())


def require_at_least(settings: Any, least_values: dict[str, int]) -> None:
    """Raise ValueError for the first field of `settings` below its least
    value; a None field (one that falls back to a default) is not checked."""
    for name, least in least_values.items():
        value = getattr(settings, name)
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
