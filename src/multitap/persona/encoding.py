"""Dense encoding of persona texts and item metadata.

`encode_texts` is the one encoder path: each distinct text is keyed by its
content and the encoder identity, and encoded and written to the run's
vector cache once.
`encode_personas` flattens each user's `{criterion value: text}` map, as
`generation.generate_all_personas` returns it, into a (U, 5, d) array, each
user's rows in `CRITERIA_ORDER`; `encode_item_batch` returns an (I, d)
array, each item encoded from the domain description concatenated with its
category.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..corpus import ItemMeta
from ..idh import CRITERIA_ORDER
from ..util import content_key
from .cache import JsonCache, cache_batch
from .clients import EncoderClient


def encode_texts(texts: Sequence[str], encoder: EncoderClient, chunk_size: int,
                 cache: JsonCache) -> np.ndarray:
    """The (N, d) vectors of `texts`, in input order.  A text repeated in
    `texts` or already in `cache` is not sent again: the distinct texts the
    cache lacks reach the encoder once, in calls of `chunk_size`, and are
    written, in first-seen order, as one shard."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    keys = [content_key({"text": t, "encoder": encoder.identity}) for t in texts]
    distinct = dict(zip(keys, texts))
    with cache_batch(cache, distinct) as (stored, new):
        todo = [key for key in distinct if key not in stored]
        for start in range(0, len(todo), chunk_size):
            chunk = todo[start : start + chunk_size]
            matrix = encoder.embed([distinct[key] for key in chunk])
            if matrix.shape != (len(chunk), encoder.dim):
                raise ValueError(f"encoder returned shape {matrix.shape}, "
                                 f"expected ({len(chunk)}, {encoder.dim})")
            new.update(zip(chunk, matrix))
    stored.update(new)
    return np.array([stored[key] for key in keys]).reshape(len(keys), encoder.dim)


def encode_personas(texts: Sequence[Mapping[str, str]], encoder: EncoderClient,
                    chunk_size: int, cache: JsonCache) -> np.ndarray:
    """The (U, 5, d) vectors of each user's five criterion texts."""
    for text in texts:
        missing = [c.value for c in CRITERIA_ORDER if c.value not in text]
        if missing:
            raise ValueError(f"persona texts missing criteria: {missing}")
    flat = [text[c.value] for text in texts for c in CRITERIA_ORDER]
    vectors = encode_texts(flat, encoder, chunk_size, cache)
    return vectors.reshape(len(texts), len(CRITERIA_ORDER), encoder.dim)


def item_semantic_text(item: ItemMeta, domain_description: str) -> str:
    """Item-side encoder input: the domain description plus the item category."""
    return f"{domain_description} || {item.category}"


def encode_item_batch(
    items: Sequence[ItemMeta],
    domain_description: str,
    encoder: EncoderClient,
    chunk_size: int,
    cache: JsonCache,
) -> np.ndarray:
    """The (I, d) vectors of `items`, in input order."""
    texts = [item_semantic_text(m, domain_description) for m in items]
    return encode_texts(texts, encoder, chunk_size, cache)
